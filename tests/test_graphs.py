"""Problem graphs, architectures, mappings, and their file formats."""

import os
import pickle
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ctagsched import cli
from ctagsched.embedding import find_line_embedding, hilbert_embedding, multi_embeddings
from ctagsched.graphs import (
    MAX_SITES,
    Architecture,
    GraphFormatError,
    Mapping,
    ProblemGraph,
    SplitMix64,
    _edge_count,
    clique,
    density,
    grid,
    ibm20,
    ibm27,
    identity_mapping,
    linear,
    load_problem_graph,
    make_architecture,
    make_problem_graph,
    random_graph,
    random_initial_mapping,
    save_problem_graph,
    shortest_dist,
)
from ctagsched.initial_mapping import astar_initial_mapping, iso_initial_mapping
from ctagsched.pattern import (
    ScheduledCircuit,
    generate_2xn_pattern,
    generate_clique_pattern,
    meet_cycle,
    prune_pattern,
)
from ctagsched.scheduler import SchedulerConfig, partial_pattern_cycles, schedule
from ctagsched.verify import metrics

BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark

# deterministic output of random_graph(10, 0.5, 1), frozen
RG_10_05_1 = [
    (0, 2), (0, 4), (0, 7), (0, 8), (1, 3), (1, 6), (1, 7), (1, 8),
    (1, 9), (2, 4), (2, 7), (2, 8), (2, 9), (3, 5), (3, 9), (4, 6),
    (5, 6), (5, 7), (5, 9), (6, 8), (7, 8), (7, 9), (8, 9),
]



def ref_random_graph(n, dens, seed):
    # random_graph as it was when it decoded every rank from row 0
    if n < 2:
        raise ValueError(f"random_graph needs n >= 2, got {n}")
    total = n * (n - 1) // 2
    m = _edge_count(n, dens)
    if m == 0:
        raise ValueError(f"density {dens} rounds to zero edges for n={n}")
    rng = SplitMix64(seed)
    chosen: set[int] = set()
    for j in range(total - m, total):
        t = rng.below(j + 1)
        chosen.add(t if t not in chosen else j)
    edges = []
    starts = []
    acc = 0
    for u in range(n - 1):
        starts.append(acc)
        acc += n - 1 - u
    for r in sorted(chosen):
        u = 0
        while u + 1 < n - 1 and starts[u + 1] <= r:
            u += 1
        v = u + 1 + (r - starts[u])
        edges.append((u, v))
    return ProblemGraph(n, frozenset(edges))


class TestProblemGraph:
    def test_make_normalizes(self):
        g = make_problem_graph(4, [(2, 1), (0, 3)])
        assert g.edges == frozenset({(1, 2), (0, 3)})

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            make_problem_graph(4, [(2, 1), (1, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            make_problem_graph(3, [(1, 1)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            make_problem_graph(3, [(0, 3)])

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            make_problem_graph(0, [])

    def test_degree(self):
        g = make_problem_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(3) == 1

    def test_clique_counts(self):
        g = clique(6)
        assert g.n == 6
        assert len(g.edges) == 15
        assert density(g) == 1.0

    def test_density_empty(self):
        assert density(make_problem_graph(5, [])) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 30),
        st.floats(0.01, 1.0),
        st.integers(0, 2**64 - 1),
        st.randoms(use_true_random=False),
    )
    def test_builders_equal_the_checked_construction(self, n, dens, seed, rng):
        # clique, random_graph and load_problem_graph skip the constructor's
        # edge checks, which their own checks cover: each graph is the one
        # ProblemGraph builds, checks included, from its fields
        pairs = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u in range(n) for v in range(u + 1, n) if rng.random() < dens]
        rng.shuffle(pairs)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/g.graph"
            with open(path, "w") as fh:
                fh.write(f"{n} {len(pairs)}\n" + "".join(f"{a} {b}\n" for a, b in pairs))
            built = [clique(n), load_problem_graph(path)]
        assert built[1] == make_problem_graph(n, pairs)
        try:
            built.append(random_graph(n, dens, seed))
        except ValueError:  # the density rounds to zero edges
            pass
        for g in built:
            checked = ProblemGraph(g.n, g.edges)
            assert type(g) is ProblemGraph
            assert g.__dict__ == checked.__dict__
            assert g == checked
            assert g.adj == checked.adj


class TestRandomGraph:
    def test_exact_edge_count_from_density(self):
        # round(d * n(n-1)/2) edges, exactly
        g = random_graph(10, 0.5, 1)
        assert len(g.edges) == 23  # round(0.5 * 45)
        g = random_graph(50, 0.3, 7)
        assert len(g.edges) == 368  # round(0.3 * 1225)

    def test_frozen_edge_list(self):
        g = random_graph(10, 0.5, 1)
        assert sorted(g.edges) == RG_10_05_1

    def test_determinism(self):
        assert random_graph(20, 0.4, 9).edges == random_graph(20, 0.4, 9).edges

    def test_seed_sensitivity(self):
        assert random_graph(20, 0.4, 9).edges != random_graph(20, 0.4, 10).edges

    def test_density_one_is_clique(self):
        assert random_graph(7, 1.0, 3).edges == clique(7).edges

    def test_more_vertices_than_a_device_may_have_is_rejected_first(self):
        # the check comes before the n(n-1)/2 edge ranks are sampled, which
        # at this size would exhaust memory
        with pytest.raises(ValueError, match=f"n <= MAX_SITES = {MAX_SITES}, got 100000"):
            random_graph(100_000, 1.0, 1)
        assert random_graph(MAX_SITES, 0.0001, 1).n == MAX_SITES

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 60),
        # 0.95 and up round to every edge at small n, e.g. n = 5 at 0.95
        st.floats(0, 1, exclude_min=True)
        | st.sampled_from([1.0, 0.5, 0.1, 0.3, 0.95, 0.99, 0.999]),
        st.integers(0, 2**64),
    )
    def test_matches_the_per_rank_decode(self, n, dens, seed):
        try:
            expected = ref_random_graph(n, dens, seed)
        except ValueError:  # rounds to zero edges
            with pytest.raises(ValueError):
                random_graph(n, dens, seed)
            return
        g = random_graph(n, dens, seed)
        assert g == expected
        # the iteration order the meet counts, the routed start and the
        # round engine read
        assert list(g.edges) == list(expected.edges)

    @pytest.mark.parametrize(("n", "dens"), [(100, 1.0), (200, 1.0), (196, 0.9)])
    def test_large_graphs_match_the_per_rank_decode(self, n, dens):
        g = random_graph(n, dens, 1)
        assert list(g.edges) == list(ref_random_graph(n, dens, 1).edges)

    @pytest.mark.parametrize("n", [3, 5, 12, 45])
    def test_every_edge_is_built_without_drawing(self, n, monkeypatch):
        # the density that rounds half-up to exactly every edge, and 1: the
        # complete graph, in clique's edge order; one below the boundary
        # still draws
        total = n * (n - 1) // 2
        boundary = 1 - Fraction(1, 2 * total)

        def no_draw(self):
            raise AssertionError("drew a number for a complete graph")

        monkeypatch.setattr(SplitMix64, "next64", no_draw)
        for dens in (boundary, 1, 1.0):
            g = random_graph(n, dens, 3)
            assert list(g.edges) == list(clique(n).edges)
        monkeypatch.undo()
        below = boundary - Fraction(1, 4 * total)
        g = random_graph(n, below, 3)
        assert g.m == total - 1
        assert list(g.edges) == list(ref_random_graph(n, below, 3).edges)

    def test_density_may_be_an_int_a_float_or_a_fraction(self):
        assert random_graph(6, Fraction(1, 2), 4) == random_graph(6, 0.5, 4)
        assert random_graph(6, 1, 4) == clique(6)

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            random_graph(5, 1.5, 0)
        with pytest.raises(ValueError):
            random_graph(7, 0.0, 3)  # zero edges is not a workload
        for dens in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=rf"^density must be in \(0, 1\], got {dens}$"):
                random_graph(5, dens, 0)


class TestArchitecture:
    def test_linear(self):
        a = linear(5)
        assert a.q == 5
        assert a.couplings == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
        assert a.coupled(1, 0)
        assert not a.coupled(0, 2)

    def test_grid(self):
        a = grid(2, 3)
        assert a.q == 6
        # row-major ids: 0 1 2 / 3 4 5
        assert (0, 3) in a.couplings and (1, 2) in a.couplings
        assert len(a.couplings) == 7

    def test_ibm20(self):
        a = ibm20()
        assert a.q == 20
        assert len(a.couplings) == 23

    def test_ibm27(self):
        a = ibm27()
        assert a.q == 27
        assert len(a.couplings) == 28

    def test_shortest_dist(self):
        a = grid(3, 3)
        assert shortest_dist(a, 0, 8) == 4
        assert shortest_dist(a, 4, 4) == 0
        assert shortest_dist(a, 0, 1) == 1

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (-1, 0, "a must be at least 0, got -1"),
            (0, -2, "b must be at least 0, got -2"),
            (5, 0, "a must be below 5, got 5"),
            (0, 5, "b must be below 5, got 5"),
            (0, 1.0, "b must be an integer, got 1.0"),
            (True, 0, "a must be an integer, got True"),
        ],
    )
    def test_shortest_dist_refuses_a_site_the_device_lacks(self, a, b, message):
        # a negative site once read the row from the end (-1 gave 4 on
        # linear:5), and a site past the last raised IndexError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            shortest_dist(linear(5), a, b)

    @pytest.mark.parametrize("chain", [(0, 1.0, 2), (0, True, 2), (0.0, 1, 2)])
    def test_chain_of_sites_that_are_no_plain_ints(self, chain):
        # equal to (0, 1, 2), but no chain of sites: prune_pattern once laid
        # a gate on site 1.0, which verify took and the CLI then refused
        arch = linear(3)
        assert arch.is_chain((0, 1, 2)) and not arch.is_chain(chain)
        with pytest.raises(ValueError, match="^chain must be 3 distinct coupled sites"):
            prune_pattern(clique(3), identity_mapping(3), arch, chain)

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            Architecture(4, frozenset({(0, 1), (2, 3)}), "bad")

    def test_adj(self):
        a = linear(4)
        assert a.adj[0] == (1,)
        assert a.adj[1] == (0, 2)


class TestMakeArchitecture:
    def test_specs(self):
        assert make_architecture("linear:7").q == 7
        assert make_architecture("grid:3x4").q == 12
        assert make_architecture("ibm20").name == "ibm20"
        assert make_architecture("ibm27").name == "ibm27"

    def test_file_spec(self, tmp_path):
        p = tmp_path / "dev.arch"
        p.write_text("3 2\n0 1\n1 2\n")
        a = make_architecture(f"file:{p}")
        assert a.q == 3 and a.coupled(0, 1) and a.coupled(1, 2)

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            make_architecture("torus:3x3")

    def test_site_ceiling(self):
        assert make_architecture(f"linear:{MAX_SITES}").q == MAX_SITES
        assert make_architecture("grid:64x64").q == MAX_SITES == 4096
        for spec in (f"linear:{MAX_SITES + 1}", "grid:64x65", "grid:4097x1"):
            with pytest.raises(ValueError, match=f"more than the {MAX_SITES} a device may have"):
                make_architecture(spec)
        with pytest.raises(ValueError, match="custom has 4097 sites"):
            Architecture(MAX_SITES + 1, frozenset())

    def test_bad_linear_size(self):
        with pytest.raises(ValueError):
            make_architecture("linear:0")

    @pytest.mark.parametrize(
        "spec, form",
        [
            ("grid:2x", "grid:RxC"),
            ("grid:x3", "grid:RxC"),
            ("grid:axb", "grid:RxC"),
            ("grid:2x3x4", "grid:RxC"),
            ("linear:", "linear:N"),
            ("linear:abc", "linear:N"),
        ],
    )
    def test_malformed_spec_names_the_expected_form(self, spec, form):
        with pytest.raises(ValueError) as ei:
            make_architecture(spec)
        assert str(ei.value) == f"bad architecture spec {spec!r}, expected {form}"

    def test_bad_file_line_is_reported(self, tmp_path):
        p = tmp_path / "dev.arch"
        p.write_text("3 2\n0 1\nbogus line extra\n")
        with pytest.raises(GraphFormatError) as ei:
            make_architecture(f"file:{p}")
        assert ei.value.line == 3
        assert "line 3" in str(ei.value)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("3 2\n0 1\n1 7\n", 3, "vertex out of range in '1 7'"),
            ("3 2\n0 1\n\n2 2\n", 4, "self-loop on vertex 2"),
            ("3 2\n0 1\n1 0\n", 3, "duplicate pair (0, 1)"),
            ("# dev\n3 3\n0 1\n1 2\n", 2, "header promised 3 pairs, found 2"),
            ("# dev\n3\n0 1\n", 2, "expected header 'count m'"),
            ("\n3 two\n0 1\n", 2, "bad header '3 two'"),
            ("0 0\n", 1, "need at least one vertex, got 0"),
        ],
        ids=["out-of-range", "self-coupling", "duplicate", "short-count",
             "one-field-header", "bad-header", "no-site"],
    )
    def test_bad_coupling_is_a_format_error(self, tmp_path, text, line, message):
        p = tmp_path / "dev.arch"
        p.write_text(text)
        with pytest.raises(GraphFormatError) as ei:
            make_architecture(f"file:{p}")
        assert ei.value.line == line
        assert str(ei.value) == f"line {line}: {message}"


class TestGraphIO:
    def test_round_trip(self, tmp_path):
        g = random_graph(12, 0.4, 5)
        p = tmp_path / "g.graph"
        save_problem_graph(g, p)
        assert load_problem_graph(p).edges == g.edges

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("# a comment\n3 2\n\n0 1\n# another\n1 2\n")
        g = load_problem_graph(p)
        assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2)})

    def test_malformed_line_number(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("4 2\n0 1\n0 one\n")
        with pytest.raises(GraphFormatError) as ei:
            load_problem_graph(p)
        assert ei.value.line == 3

    def test_edge_count_mismatch(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("4 3\n0 1\n")
        with pytest.raises(GraphFormatError):
            load_problem_graph(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("")
        with pytest.raises(GraphFormatError):
            load_problem_graph(p)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # as an editor may save them: a UTF-8 byte-order mark, CRLF line ends
        p = tmp_path / "g.graph"
        p.write_bytes(BOM + b"3 2\r\n0 1\r\n1 2\r\n")
        assert load_problem_graph(p) == make_problem_graph(3, [(0, 1), (1, 2)])
        p = tmp_path / "dev.arch"
        p.write_bytes(BOM + b"3 2\n0 1\n1 2\n")
        assert make_architecture(f"file:{p}").couplings == linear(3).couplings

    @pytest.mark.parametrize(
        "body, message",
        [(b"\xff3 2\n0 1\n", "line 1: byte 0xff"), (b"3 2\n0 1\n1 \xfe2\n", "line 3: byte 0xfe")],
    )
    def test_bad_byte_after_a_byte_order_mark_names_its_line(self, tmp_path, body, message):
        p = tmp_path / "g.graph"
        p.write_bytes(BOM + body)
        with pytest.raises(GraphFormatError) as ei:
            load_problem_graph(p)
        assert str(ei.value) == f"{message} is not UTF-8 text"


class TestMapping:
    def test_identity(self):
        m = identity_mapping(4)
        assert m.pi == (0, 1, 2, 3)
        assert m[2] == 2

    def test_injectivity_enforced(self):
        with pytest.raises(ValueError):
            Mapping((0, 0, 1))

    def test_codomain_may_exceed_n(self):
        # physical placements use site ids above n-1
        m = Mapping((5, 0, 9))
        assert m[2] == 9
        assert m.inverse() == {5: 0, 0: 1, 9: 2}

    def test_random_initial_mapping_is_permutation(self):
        m = random_initial_mapping(8, 3)
        assert sorted(m.pi) == list(range(8))

    def test_random_initial_mapping_deterministic(self):
        assert random_initial_mapping(8, 3).pi == random_initial_mapping(8, 3).pi
        assert random_initial_mapping(8, 3).pi != random_initial_mapping(8, 4).pi


@pytest.mark.parametrize("seed", [1.5, "1", None, True], ids=repr)
def test_seed_that_is_no_plain_int_is_rejected(seed):
    # both seeded helpers reach SplitMix64, which takes a plain int only, as
    # a beam is checked: True would pass for 1.  A complete graph draws
    # nothing, but its seed is checked all the same
    with pytest.raises(ValueError, match="seed must be an integer"):
        random_graph(8, 0.5, seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        random_graph(7, 1.0, seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        random_initial_mapping(8, seed)


@pytest.mark.parametrize(
    ("n", "dens", "message"),
    [
        (6.0, 0.5, "n must be an integer, got 6.0"),
        ("6", 0.5, "n must be an integer, got '6'"),
        (True, 0.5, "n must be an integer, got True"),
        (6, True, "density must be an int, a float or a Fraction, got True"),
        (6, "0.5", "density must be an int, a float or a Fraction, got '0.5'"),
        (6, None, "density must be an int, a float or a Fraction, got None"),
        (6, 0.5 + 0j, "density must be an int, a float or a Fraction, got (0.5+0j)"),
    ],
    ids=repr,
)
def test_random_graph_argument_of_a_bad_type_is_rejected(n, dens, message, monkeypatch):
    # a ValueError that names the value, before any draw; unchecked, these
    # would raise TypeError from a comparison or from range(), and a True
    # density would reach Fraction's parser
    def no_draw(self):
        raise AssertionError("drew a number for a rejected argument")

    monkeypatch.setattr(SplitMix64, "next64", no_draw)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        random_graph(n, dens, 1)


@pytest.mark.parametrize(
    "edges",
    [[(0, 1.7)], [(True, 2)], [("0", "2")], [(0, 2.0)]],
    ids=repr,
)
def test_vertex_that_is_no_plain_int_is_rejected(edges):
    # int() once turned each of these into another graph without an error:
    # (0, 1.7) into (0, 1), (True, 2) into (1, 2), ("0", "2") into (0, 2)
    with pytest.raises(ValueError, match="^vertex must be an integer, got "):
        make_problem_graph(3, edges)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ProblemGraph(3, [(0, 1), (1, 2)]), "vertex pairs must be a frozenset, got a list"),
        (lambda: ProblemGraph(3, {(0, 1)}), "vertex pairs must be a frozenset, got a set"),
        (lambda: ProblemGraph(2.5, frozenset()), "n must be an integer, got 2.5"),
        (lambda: ProblemGraph(True, frozenset()), "n must be an integer, got True"),
        (lambda: ProblemGraph(3, frozenset({(0, 1.5)})), "vertex must be an integer, got 1.5"),
        (lambda: ProblemGraph(3, frozenset({"01"})), "vertex pair '01' is not a tuple of two"),
        (lambda: Architecture(3.0, frozenset({(0, 1), (1, 2)})),
         "the site count of custom must be an integer, got 3.0"),
        (lambda: Architecture(3, [(0, 1), (1, 2)]), "site pairs must be a frozenset, got a list"),
        (lambda: Architecture(3, frozenset({(0, 1), (1, 2.0)})),
         "site must be an integer, got 2.0"),
        (lambda: linear(True), "n must be an integer, got True"),
        (lambda: linear(2.5), "n must be an integer, got 2.5"),
        (lambda: grid(True, 3), "rows must be an integer, got True"),
        (lambda: grid(2, "3"), "cols must be an integer, got '3'"),
        (lambda: Mapping([0, 1, 2]), "a mapping's pi must be a tuple, got a list"),
        (lambda: partial_pattern_cycles(clique(3), Mapping([0, 1, 2]), 0.5),
         "a mapping's pi must be a tuple, got a list"),
    ],
    ids=["graph-edge-list", "graph-edge-set", "graph-float-n", "graph-bool-n",
         "graph-float-vertex", "graph-str-pair", "arch-float-q", "arch-coupling-list",
         "arch-float-site", "linear-bool", "linear-float", "grid-bool", "grid-str",
         "mapping-list", "prefix-of-list-mapping"],
)
def test_record_of_a_bad_type_is_rejected_when_built(build, message):
    # a ValueError that names the value; each of these once raised a
    # TypeError, or was built and failed later inside the library (a list
    # of edges or a list mapping is unhashable in the scheduler, a float
    # vertex is no key of the adjacency), or gave a device of q=True sites
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ProblemGraph(3, frozenset({(2, 1)})), "vertex pair (2, 1) is not normalized"),
        (lambda: Architecture(3, frozenset({(0, 1), (1, 3)})),
         "site pair (1, 3) is not two distinct sites below 3"),
        (lambda: make_problem_graph(2, [(0, 0)]),
         "vertex pair (0, 0) is not two distinct vertices below 2"),
        (lambda: Architecture(3, frozenset({(0, 1), (2, 1)})), "site pair (2, 1) is not normalized"),
        (lambda: clique(1), "n must be at least 2, got 1"),
        (lambda: grid(0, 3), "rows must be at least 1, got 0"),
        (lambda: linear(0), "n must be at least 1, got 0"),
        (lambda: SplitMix64(1).below(0), "bound must be positive"),
    ],
    ids=["graph-unnormalized", "arch-bad-coupling", "graph-self-loop", "arch-unnormalized",
         "clique-1", "grid-0x3", "linear-0", "below-0"],
)
def test_out_of_range_argument_is_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def _bench_with_jobs(jobs):
    args = cli._build_parser().parse_args(
        ["bench", "--n", "4", "--density", "1", "--arch", "linear",
         "--strategy", "pattern-only", "--out", os.devnull]
    )
    args.jobs = jobs
    return cli.cmd_bench(args)


# each public integer parameter: a call that passes the value to it, the
# name its message starts with, its smallest valid value (or a valid one,
# where there is no least) and whether one below that is refused
INT_PARAMETERS = {
    "ProblemGraph n": (lambda v: ProblemGraph(v, frozenset()), "n", 1, True),
    "ProblemGraph vertex": (lambda v: ProblemGraph(2, frozenset({(0, v)})), "vertex", 1, True),
    "Architecture q": (lambda v: Architecture(v, frozenset()), "the site count of custom", 1, True),
    "Architecture site": (lambda v: Architecture(2, frozenset({(0, v)})), "site", 1, True),
    "linear n": (linear, "n", 1, True),
    "grid rows": (lambda v: grid(v, 2), "rows", 1, True),
    "grid cols": (lambda v: grid(2, v), "cols", 1, True),
    "clique n": (clique, "n", 2, True),
    "random_graph n": (lambda v: random_graph(v, 1.0, 0), "n", 2, True),
    "random_graph seed": (lambda v: random_graph(4, 0.5, v), "seed", -1, False),
    "identity_mapping n": (identity_mapping, "n", 0, True),
    "random_initial_mapping n": (lambda v: random_initial_mapping(v, 1), "n", 0, True),
    "random_initial_mapping seed": (lambda v: random_initial_mapping(3, v), "seed", -1, False),
    # a negative entry stays legal: verify reports it as a missing site
    "Mapping site": (lambda v: Mapping((0, v, 2)), "a mapping's site", -1, False),
    "astar tie_seed": (lambda v: astar_initial_mapping(clique(3), tie_seed=v), "tie_seed", -1,
                       False),
    "astar beam": (lambda v: astar_initial_mapping(clique(3), beam=v), "beam", 1, True),
    "iso beam": (lambda v: iso_initial_mapping(clique(3), beam=v), "beam", 1, True),
    "schedule beam": (lambda v: schedule(clique(3), linear(3), SchedulerConfig(beam=v)), "beam",
                      1, True),
    "generate_clique_pattern n": (generate_clique_pattern, "n", 2, True),
    "generate_2xn_pattern n": (generate_2xn_pattern, "n", 4, True),
    "hilbert_embedding rows": (lambda v: hilbert_embedding(v, 3), "rows", 2, True),
    "hilbert_embedding cols": (lambda v: hilbert_embedding(3, v), "cols", 2, True),
    "multi_embeddings k": (lambda v: multi_embeddings(linear(6), v), "k", 1, True),
    "find_line_embedding length": (lambda v: find_line_embedding(linear(6), length=v), "length",
                                   1, True),
    "find_line_embedding budget": (lambda v: find_line_embedding(linear(1), budget=v), "budget",
                                   0, True),
    "find_line_embedding seed": (lambda v: find_line_embedding(linear(1), seed=v), "seed", -1,
                                 False),
    "multi_embeddings seed": (lambda v: multi_embeddings(linear(6), 1, seed=v), "seed", -1, False),
    "meet_cycle n": (lambda v: meet_cycle(v, 0, 1), "n", 2, True),
    "meet_cycle pos_a": (lambda v: meet_cycle(6, v, 2), "pos_a", 0, True),
    "meet_cycle pos_b": (lambda v: meet_cycle(6, 2, v), "pos_b", 0, True),
    "shortest_dist a": (lambda v: shortest_dist(linear(5), v, 0), "a", 0, True),
    "shortest_dist b": (lambda v: shortest_dist(linear(5), 0, v), "b", 0, True),
    "bench --jobs": (_bench_with_jobs, "--jobs", 1, True),
    # on the one-qubit circuit, whose qubit count is the smallest valid n
    "metrics n": (
        lambda v: metrics(ScheduledCircuit((), Mapping((0,)), linear(1)), v), "n", 1, True
    ),
}

BAD_INTS = st.one_of(
    st.floats(),  # nan and inf included
    st.integers(-3, 8).map(float),  # integral floats such as 3.0
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(sorted(INT_PARAMETERS)), bad=BAD_INTS)
@example(case="find_line_embedding length", bad=2.5)
@example(case="find_line_embedding length", bad=True)
@example(case="clique n", bad=2.5)
@example(case="identity_mapping n", bad="3")
@example(case="Mapping site", bad=1.5)
@example(case="meet_cycle pos_a", bad=1.0)
@example(case="hilbert_embedding rows", bad=2.0)
@example(case="multi_embeddings k", bad=1.5)
@example(case="metrics n", bad=2.5)
@example(case="metrics n", bad=True)
def test_integer_parameter_refuses_every_other_value(case, bad):
    # a float, a bool, a str or None is a ValueError that names the
    # parameter, never a TypeError, a KeyError, an IndexError or a result;
    # None is find_line_embedding's default length
    call, name, smallest, bounded = INT_PARAMETERS[case]
    assume(not (bad is None and case == "find_line_embedding length"))
    with pytest.raises(ValueError) as ei:
        call(bad)
    assert str(ei.value) == f"{name} must be an integer, got {bad!r}"
    call(smallest)
    if bounded:
        with pytest.raises(ValueError) as ei:
            call(smallest - 1)
        assert name in str(ei.value)


def test_records_are_read_only_values():
    # the graph records compare and hash by their fields, as frozen records
    # do, keep their cached properties, refuse assignment and show their
    # fields; the result records keep their field order and pickle, which
    # a bench worker pool relies on
    g = make_problem_graph(3, [(1, 2), (0, 1)])
    arch = linear(3)
    m = Mapping((2, 0, 1))
    pairs = [
        (g, ProblemGraph(3, frozenset({(0, 1), (1, 2)})), make_problem_graph(3, [(0, 1)])),
        (arch, Architecture(3, frozenset({(0, 1), (1, 2)}), "linear:3"),
         Architecture(3, arch.couplings)),
        (m, Mapping((2, 0, 1)), Mapping((0, 1, 2))),
    ]
    for rec, same, other in pairs:
        assert rec == same and hash(rec) == hash(same) and rec is not same
        assert rec != other and rec != rec._values()
    assert hash(g) == hash((3, g.edges))
    assert hash(arch) == hash((3, arch.couplings, "linear:3"))
    assert hash(m) == hash(((2, 0, 1),))
    assert arch.dist[0][2] == 2 and arch.dist is arch.dist
    for rec, name in [(g, "n"), (g, "edges"), (g, "adj"), (arch, "q"), (arch, "name"),
                      (arch, "dist"), (m, "pi"), (m, "other")]:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert g == make_problem_graph(3, [(0, 1), (1, 2)]) and m.pi == (2, 0, 1)
    assert repr(ProblemGraph(2, frozenset({(0, 1)}))) == "ProblemGraph(n=2, edges=frozenset({(0, 1)}))"
    assert repr(Architecture(2, frozenset({(0, 1)}))) == (
        "Architecture(q=2, couplings=frozenset({(0, 1)}), name='custom')"
    )
    assert repr(m) == "Mapping(pi=(2, 0, 1))"

    cfg = SchedulerConfig("ctag-r", 0.25, 2, 3)
    assert cfg == SchedulerConfig(strategy="ctag-r", threshold=0.25, beam=2, seed=3)
    assert cfg != SchedulerConfig("ctag-r", 0.25, 2, 4)
    assert repr(SchedulerConfig()) == (
        "SchedulerConfig(strategy='ctag-h', threshold=0.5, beam=8, seed=0)"
    )
    c = schedule(clique(4), linear(4), cfg)
    assert list(metrics(c, 4).to_json_dict()) == [
        "abstract_depth", "decomposed_depth", "cphase_count", "swap_count",
        "decomposed_gate_count",
    ]
    for value in (cfg, c):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and type(back) is type(value)
    assert isinstance(c, ScheduledCircuit)
