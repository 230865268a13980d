"""Initial-mapping search: beam search and its exact, budgeted refinement."""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctagsched.graphs import (
    Mapping,
    clique,
    linear,
    make_problem_graph,
    random_graph,
    random_initial_mapping,
)
import ctagsched.initial_mapping
from ctagsched.initial_mapping import (
    WIDE_LEVEL,
    _mask_tables,
    astar_initial_mapping,
    iso_initial_mapping,
)
from ctagsched.pattern import _meet_table, _meets, meet_cycle, prune_pattern
from reference_models import rows_astar_initial_mapping


def path(n):
    return make_problem_graph(n, [(i, i + 1) for i in range(n - 1)])


def exhaustive_best(g):
    """Smallest horizon count over all n! placements; ground truth for n <= 7."""
    n = g.n
    best = 2 * n - 2
    for perm in permutations(range(n)):
        worst = -1
        for u, v in g.edges:
            worst = max(worst, meet_cycle(n, perm[u], perm[v]))
        best = min(best, worst + 1)
    return best


FIG_CHORDED = make_problem_graph(
    6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (2, 4)]
)


def horizon_pairs(n, i):
    """Start-position pairs whose CPHASE fires before cycle horizon i."""
    return {(a, b) for a in range(n) for b in range(a + 1, n) if meet_cycle(n, a, b) < i}


class TestPatternGraph:
    """Horizon graphs read off meet_cycle: a mapping finishes within i cycles
    exactly when it places every input edge on a pair of horizon_pairs(n, i)."""

    def test_horizon_one_is_the_even_matching(self):
        assert horizon_pairs(6, 1) == {(0, 1), (2, 3), (4, 5)}

    def test_full_horizon_is_complete(self):
        for n in (3, 6, 7):
            assert horizon_pairs(n, 2 * n - 2) == set(clique(n).edges)
            assert horizon_pairs(n, 2 * n - 3) != set(clique(n).edges)

    def test_mid_horizon_path(self):
        # positions reachable within 4 cycles on 8 qubits form a path
        assert sorted(horizon_pairs(8, 4)) == [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)
        ]

    def test_monotone_in_horizon(self):
        prev = set()
        for i in range(1, 11):
            cur = horizon_pairs(6, i)
            assert prev <= cur
            prev = cur

    def test_edge_count_matches_meet_table(self):
        # pairs per horizon, frozen from the generated pattern
        for n, counts in (
            (6, [3, 5, 5, 5, 8, 10, 10, 10, 13, 15]),
            (7, [3, 6, 6, 6, 9, 12, 12, 12, 15, 18, 18, 21]),
        ):
            assert [len(horizon_pairs(n, i)) for i in range(1, 2 * n - 1)] == counts


class TestAstar:
    def test_path4(self):
        mapping, depth = astar_initial_mapping(path(4))
        assert depth == 2
        assert sorted(mapping.pi) == [0, 1, 2, 3]

    def test_single_edge(self):
        g = make_problem_graph(4, [(1, 3)])
        mapping, depth = astar_initial_mapping(g)
        assert depth == 1
        assert meet_cycle(4, mapping[1], mapping[3]) == 0

    def test_empty_graph(self):
        assert astar_initial_mapping(make_problem_graph(4, []))[1] == 0

    @pytest.mark.parametrize("n", [4, 5, 6, 8])
    def test_clique_needs_the_full_pattern(self, n):
        assert astar_initial_mapping(clique(n))[1] == 2 * n - 2

    def test_returned_depth_matches_mapping(self):
        g = make_problem_graph(6, [(0, 3), (1, 4), (2, 5), (0, 1)])
        mapping, depth = astar_initial_mapping(g)
        worst = max(meet_cycle(6, mapping[u], mapping[v]) for u, v in g.edges)
        assert depth == worst + 1

    def test_pruned_circuit_honors_predicted_depth(self):
        g = make_problem_graph(6, [(0, 1), (1, 2), (2, 3), (0, 4), (3, 5)])
        mapping, depth = astar_initial_mapping(g)
        assert prune_pattern(g, mapping, linear(6), range(6)).depth <= depth

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 4)],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
        ],
    )
    def test_beats_identity_on_chorded_paths(self, edges):
        g = make_problem_graph(6, edges)
        _, depth = astar_initial_mapping(g, beam=8)
        assert depth == 5
        assert depth == exhaustive_best(g)

    def test_exhaustive_beam_agrees_with_ground_truth(self):
        g = make_problem_graph(5, [(0, 2), (1, 3), (2, 4), (0, 1)])
        _, depth = astar_initial_mapping(g, beam=None)
        assert depth == exhaustive_best(g)

    def test_one_vertex_is_rejected(self):
        # the pattern needs two positions; schedule() handles n = 1 itself
        with pytest.raises(ValueError, match="^need at least 2 vertices$"):
            astar_initial_mapping(make_problem_graph(1, []))

    @pytest.mark.parametrize("beam", [0, -1])
    def test_beam_below_one_is_rejected(self, beam):
        with pytest.raises(ValueError, match="beam must be at least 1"):
            astar_initial_mapping(path(6), beam=beam)

    @pytest.mark.parametrize("beam", [2.5, True, "8"], ids=["float", "bool", "str"])
    def test_beam_that_is_not_an_int_is_rejected(self, beam):
        # a float beam would never fill the heap, so the bar would never
        # apply, and True would silently be a beam of 1
        with pytest.raises(ValueError, match="beam must be an integer or None"):
            astar_initial_mapping(path(6), beam=beam)

    def test_beam_never_beats_exhaustive(self):
        g = make_problem_graph(6, [(0, 3), (1, 4), (2, 5), (1, 2), (3, 4)])
        _, d_beam = astar_initial_mapping(g, beam=4)
        _, d_full = astar_initial_mapping(g, beam=None)
        assert d_full <= d_beam
        assert d_full == exhaustive_best(g)

    def test_deterministic(self):
        g = make_problem_graph(7, [(0, 4), (2, 6), (1, 3), (4, 5)])
        assert astar_initial_mapping(g) == astar_initial_mapping(g)

    def test_tie_seed_stays_valid(self):
        g = make_problem_graph(6, [(0, 1), (2, 4), (3, 5)])
        for seed in (1, 2):
            mapping, depth = astar_initial_mapping(g, tie_seed=seed)
            worst = max(meet_cycle(6, mapping[u], mapping[v]) for u, v in g.edges)
            assert depth == worst + 1


    @pytest.mark.parametrize("tie_seed", [None, False, 0.0, 1.5, "3"])
    def test_tie_seed_that_is_not_an_int_is_rejected(self, tie_seed):
        # None, False and 0.0 are falsy, so they once ran unsalted unchecked
        with pytest.raises(ValueError, match="seed must be an integer"):
            astar_initial_mapping(path(6), tie_seed=tie_seed)


class TestIso:
    @pytest.mark.parametrize("tie_seed", [None, False, 0.0, 1.5, "3"])
    def test_tie_seed_that_is_not_an_int_is_rejected(self, tie_seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            iso_initial_mapping(path(6), tie_seed=tie_seed)

    @pytest.mark.parametrize("budget", ["x", 1.5, True, None], ids=["str", "float", "bool", "none"])
    def test_budget_that_is_not_an_int_is_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be an integer"):
            iso_initial_mapping(path(6), budget=budget)

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError, match="budget must be at least 0"):
            iso_initial_mapping(path(6), budget=-5)

    def test_matching_fits_the_first_layer(self):
        g = make_problem_graph(6, [(0, 1), (2, 3), (4, 5)])
        mapping, depth = iso_initial_mapping(g)
        assert depth == 1

    def test_clique_needs_everything(self):
        assert iso_initial_mapping(clique(5))[1] == 8

    def test_chorded_path_certificate(self):
        mapping, depth = iso_initial_mapping(FIG_CHORDED)
        assert depth == 6
        assert all(
            meet_cycle(6, mapping[u], mapping[v]) < depth for u, v in FIG_CHORDED.edges
        )

    def test_result_is_minimal(self):
        # the search is exact at this size; cross-check exhaustively
        for edges in ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)],
                      [(0, 2), (1, 4), (3, 5)]):
            g = make_problem_graph(6, edges)
            _, depth = iso_initial_mapping(g)
            assert depth == exhaustive_best(g)

    def test_never_worse_than_astar_exhaustive(self):
        g = make_problem_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 4)])
        _, d_iso = iso_initial_mapping(g)
        _, d_astar = astar_initial_mapping(g, beam=None)
        assert d_iso == d_astar

    def test_zero_budget_keeps_astar(self):
        # the refinement takes this graph from 14 cycles to 10
        g = random_graph(9, 0.4, 3)
        assert iso_initial_mapping(g, budget=0) == astar_initial_mapping(g)
        assert iso_initial_mapping(g)[1] == 10

    @pytest.mark.parametrize("beam, seed", [(1, 0), (8, 3), (None, 5)])
    def test_incumbent_is_astar_under_beam_and_seed(self, beam, seed):
        # beam and tie_seed reach the astar incumbent, and on this graph
        # every pair of them gives another one than the default
        g = random_graph(9, 0.4, 2)
        incumbent = astar_initial_mapping(g, beam, seed)
        assert incumbent != astar_initial_mapping(g)
        assert iso_initial_mapping(g, budget=0, beam=beam, tie_seed=seed) == incumbent
        assert iso_initial_mapping(g, beam=beam, tie_seed=seed)[1] <= incumbent[1]

    def test_deterministic(self):
        g = random_graph(10, 0.5, 7)
        assert iso_initial_mapping(g) == iso_initial_mapping(g)

    def test_budget_bounds_the_search(self):
        # 40 vertices are far beyond exhaustive search; the node budget ends
        # it, and the result may only improve on astar
        g = random_graph(40, 0.2, 1)
        mapping, depth = iso_initial_mapping(g, budget=2000)
        assert depth <= astar_initial_mapping(g)[1]
        assert depth == 1 + max(meet_cycle(40, mapping[u], mapping[v]) for u, v in g.edges)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_on_small_graphs(self, data):
        n = data.draw(st.integers(2, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        g = make_problem_graph(n, edges)
        mapping, depth = iso_initial_mapping(g)
        assert depth == exhaustive_best(g)
        worst = max((meet_cycle(n, mapping[u], mapping[v]) for u, v in edges), default=-1)
        assert depth == worst + 1
        assert depth <= astar_initial_mapping(g, beam=8)[1]


def ref_astar_initial_mapping(g, beam=8, tie_seed=0):
    """Beam search as first written: whole prefix tuples per child, sorted by
    (cost, prefix) or (cost, salted prefix).  Reference for the rewrite."""
    n = g.n
    table = _meet_table(n)
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    vertex_level = {v: k for k, v in enumerate(order)}
    frontier = [((), -1)]
    salt = random_initial_mapping(n, tie_seed).pi if tie_seed else None
    for level, v in enumerate(order):
        nbrs = [u for u in g.adj[v] if vertex_level[u] < level]
        children = []
        for partial_pi, cost in frontier:
            used = set(partial_pi)
            for p in range(n):
                if p in used:
                    continue
                c = cost
                for u in nbrs:
                    c = max(c, table[p][partial_pi[vertex_level[u]]])
                children.append((partial_pi + (p,), c))
        if salt is not None:
            children.sort(key=lambda ch: (ch[1], [salt[p] for p in ch[0]]))
        else:
            children.sort(key=lambda ch: (ch[1], ch[0]))
        frontier = children if beam is None else children[:beam]
    best, cost = frontier[0]
    pi = [0] * n
    for k, v in enumerate(order):
        pi[v] = best[k]
    return Mapping(tuple(pi)), cost + 1 if g.edges else 0


@st.composite
def search_inputs(draw):
    n = draw(st.integers(2, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.floats(0.0, 1.0))
    bits = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, b in zip(pairs, bits) if b < keep]
    beam = draw(st.sampled_from([1, 2, 8] + ([None] if n <= 6 else [])))
    tie_seed = draw(st.sampled_from([0, draw(st.integers(1, 2**31))]))
    return make_problem_graph(n, edges), beam, tie_seed


class TestAstarMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(search_inputs())
    def test_same_mapping_and_depth(self, drawn):
        g, beam, tie_seed = drawn
        assert astar_initial_mapping(g, beam, tie_seed) == ref_astar_initial_mapping(
            g, beam, tie_seed
        )

    @pytest.mark.parametrize("n", [2, 5, 12, 40])
    def test_cliques_and_empty_graphs(self, n):
        for g in (clique(n), make_problem_graph(n, [])):
            for tie_seed in (0, 3):
                assert astar_initial_mapping(g, 8, tie_seed) == ref_astar_initial_mapping(
                    g, 8, tie_seed
                )

    # large enough that the beam fills early and the bar cuts most scans
    @pytest.mark.parametrize(
        "g",
        [random_graph(120, 0.3, 3), random_graph(90, 0.9, 2), clique(60)],
        ids=["n120-d0.3", "n90-d0.9", "clique60"],
    )
    @pytest.mark.parametrize("beam", [1, 8])
    @pytest.mark.parametrize("tie_seed", [0, 5])
    def test_large_graphs_where_the_bar_cuts(self, g, beam, tie_seed):
        assert astar_initial_mapping(g, beam, tie_seed) == ref_astar_initial_mapping(
            g, beam, tie_seed
        )


@st.composite
def dense_inputs(draw):
    n = draw(st.integers(2, 60))
    g = random_graph(n, draw(st.floats(0.5, 1.0)), draw(st.integers(0, 2**31)))
    beam = draw(st.sampled_from([1, 2, 8]))
    tie_seed = draw(st.sampled_from([0, draw(st.integers(1, 2**31))]))
    return g, beam, tie_seed


# the graphs on which line-dense runs astar_initial_mapping, or close to them:
# nearly every level is wide, so the mask path does most of the search
@lru_cache(maxsize=None)
def large_graph(name):
    return {
        "clique": lambda: clique(200),
        "rg196": lambda: random_graph(196, 0.9, 1),
        "rg150": lambda: random_graph(150, 0.5, 1),
        "rg100": lambda: random_graph(100, 0.8, 1),
    }[name]()


class TestMaskedLevels:
    @settings(max_examples=100, deadline=None)
    @given(dense_inputs())
    def test_every_level_masked_matches_the_row_search(self, drawn):
        # a width cutoff of 1 sends every level with a placed neighbour
        # down the mask path
        g, beam, tie_seed = drawn
        with mock.patch.object(ctagsched.initial_mapping, "WIDE_LEVEL", 1):
            got = astar_initial_mapping(g, beam, tie_seed)
        assert got == rows_astar_initial_mapping(g, beam, tie_seed)

    @pytest.mark.parametrize("name", ["clique", "rg196", "rg150", "rg100"])
    @pytest.mark.parametrize("beam", [1, 8])
    @pytest.mark.parametrize("tie_seed", [0, 5])
    def test_large_dense_graphs_match_the_row_search(self, name, beam, tie_seed):
        g = large_graph(name)
        assert astar_initial_mapping(g, beam, tie_seed) == rows_astar_initial_mapping(
            g, beam, tie_seed
        )

    def test_positions_past_one_byte_match_the_row_search(self):
        # from n = 256 the mask tables hold positions in two bytes
        g = random_graph(260, 0.9, 1)
        assert astar_initial_mapping(g, 1, 3) == rows_astar_initial_mapping(g, 1, 3)


class TestMaskTables:
    """The mask path's per-n tables are built once per n and shared, read
    only, by every later search and thread."""

    @pytest.mark.parametrize("n", [*range(2, 41), 256, 260])
    def test_tables_are_the_meets_and_the_inverted_meet_rows(self, n):
        # from n = 256 the entries take two bytes
        tables = _mask_tables(n)
        assert tables.table is _meet_table(n)
        assert [list(chain) for chain in tables.pairs] == [list(met) for met in _meets(n)]
        assert len(tables.pairs) == 2 * n - 2  # cycles 0 to the last, 2n-3
        for p, row in enumerate(tables.table):
            who = tables.who[p]
            # the row's cycle c holds the position p meets then, the last
            # entry p itself (its diagonal cycle is -1), every other one n
            want = [n] * (2 * n - 1)
            for q, c in enumerate(row):
                want[c] = q
            assert list(who) == want
        for shared in (tables.pairs[0], tables.who[0]):
            with pytest.raises(TypeError):
                shared[0] = 1

    @pytest.mark.parametrize("wide", [WIDE_LEVEL, 1])
    def test_later_searches_read_the_tables_of_an_earlier_one(self, wide):
        # the first search builds the tables of n = 70, the later ones on
        # graphs of that n only read them
        _mask_tables.cache_clear()
        graphs = [random_graph(70, d, s) for d, s in [(0.3, 1), (0.9, 2), (0.6, 3), (0.3, 4)]]
        with mock.patch.object(ctagsched.initial_mapping, "WIDE_LEVEL", wide):
            for g in graphs:
                for beam, tie_seed in [(8, 0), (2, 5)]:
                    got = astar_initial_mapping(g, beam, tie_seed)
                    assert got == rows_astar_initial_mapping(g, beam, tie_seed)
        # built by the first search alone, and read by all eight
        assert _mask_tables.cache_info()[:2] == (7, 1)  # (hits, misses)

    def test_threads_share_the_tables_of_a_fresh_n(self):
        # more searches than cores start together on a cleared cache, with
        # the interpreter switching threads often, so any of them may build
        # the tables of n = 80 while the others read them
        _mask_tables.cache_clear()
        graphs = [random_graph(80, d, s) for d, s in [(0.7, 1), (0.4, 2), (0.9, 3), (0.5, 4)]]
        start = threading.Barrier(len(graphs), timeout=60)

        def search(g):
            start.wait()
            return astar_initial_mapping(g, 8, 3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(graphs)) as pool:
                futures = [pool.submit(search, g) for g in graphs]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [rows_astar_initial_mapping(g, 8, 3) for g in graphs]
        assert _mask_tables.cache_info().currsize == 1


def near_clique(n, removed, seed):
    # clique(n) less `removed` seeded edges
    pairs = sorted(clique(n).edges)
    drop = {pairs[i] for i in random_initial_mapping(len(pairs), seed).pi[:removed]}
    return make_problem_graph(n, [e for e in pairs if e not in drop])


@st.composite
def near_clique_inputs(draw):
    n = draw(st.integers(3, 60))
    g = near_clique(n, draw(st.integers(1, min(3, n - 1))), draw(st.integers(0, 2**31)))
    beam = draw(st.sampled_from([1, 2, 8] + ([None] if n <= 7 else [])))
    return g, beam, draw(st.sampled_from([0, 3, 7]))


class TestSaturation:
    """Once every parent costs the pattern's last cycle, astar returns the
    first parent's prefix and then the free positions in salt order; that
    is the mapping the whole search would reach."""

    @pytest.mark.parametrize("n", range(2, 61))
    def test_cliques_match_the_row_search(self, n):
        g = clique(n)
        for beam in (1, 2, 8) + ((None,) if n <= 7 else ()):
            for tie_seed in (0, 3, 7):
                got = astar_initial_mapping(g, beam, tie_seed)
                assert got == rows_astar_initial_mapping(g, beam, tie_seed), (beam, tie_seed)
                assert got[1] == (1 if n == 2 else 2 * n - 2)

    @settings(max_examples=120, deadline=None)
    @given(near_clique_inputs())
    def test_near_cliques_match_the_row_search(self, drawn):
        # a few edges short of a clique, the search still saturates, later
        g, beam, tie_seed = drawn
        assert astar_initial_mapping(g, beam, tie_seed) == rows_astar_initial_mapping(
            g, beam, tie_seed
        )

    def test_the_search_stops_at_saturation(self):
        # on K200 every parent costs the last cycle from about halfway down
        # the order, so the levels past it are never scored
        levels = []
        im = ctagsched.initial_mapping
        real = {name: getattr(im, name) for name in ("_masked_children", "_scanned_children")}

        def counted(name):
            def score(*args):
                levels.append(name)
                return real[name](*args)

            return score

        with mock.patch.multiple(im, **{name: counted(name) for name in real}):
            mapping, depth = astar_initial_mapping(clique(200), 8, 0)
        assert depth == 398
        assert 0 < len(levels) < 200


# astar_initial_mapping's sha256 of repr(pi) and depth on the four large
# graphs, captured from the row search before wide levels took bit masks
ASTAR_PINNED = [
    ("clique", 1, 0, "de5bbad65a85a6aaf7bc1fe152b72b7771e7f7f928dc4002f63b9aa1304a4904", 398),
    ("clique", 1, 5, "8efd8f7858f11ea22e3f97afeca9847aa65f4903831aafd2b15b08b250c32e5c", 398),
    ("clique", 8, 0, "de5bbad65a85a6aaf7bc1fe152b72b7771e7f7f928dc4002f63b9aa1304a4904", 398),
    ("clique", 8, 5, "ea8895cee16aad4fddf960e5aed92eb0f77b4b51edab2757fcea91705f8061e8", 398),
    ("rg196", 1, 0, "bd04d858f6794dbeff14dd4686c944bcd5b1e234dfcacf5a0c24d3a75f7229c4", 390),
    ("rg196", 1, 5, "41b54e1061afb462d702b49a2e2c0f7be3040f1612eae6ea30bc7c06923afe3f", 390),
    ("rg196", 8, 0, "bd04d858f6794dbeff14dd4686c944bcd5b1e234dfcacf5a0c24d3a75f7229c4", 390),
    ("rg196", 8, 5, "03aab62d051d23342e57bb7f07d89211881789b2d0a399357c71041313f8e8ea", 390),
    ("rg150", 1, 0, "2f59d967dfee5591ad93685adb8580657d3099545eb9e045f272b13253b07338", 297),
    ("rg150", 1, 5, "7b96a6418e4659c9a6ffcae35b71169148d3939b79d0b20aa9823b7f8860a0ad", 298),
    ("rg150", 8, 0, "ed21e9256b80ffb8979322c7f2ecc9333b1cd1a004e9cb49d78ec6bbc92bec57", 294),
    ("rg150", 8, 5, "138a29a310cf0425e402ff0fd5cda4e1b580a866b830623a6dff49e34e450ced", 297),
    ("rg100", 1, 0, "b3cdc19a8074d9f229f98dec7f5a787dc477f1f404fbd3b3c001c12f0b7e1e18", 198),
    ("rg100", 1, 5, "89d86a39fb5fcc81c569b7b9fe91b2775d1593a63de5452f5245db08cc605e14", 198),
    ("rg100", 8, 0, "b3cdc19a8074d9f229f98dec7f5a787dc477f1f404fbd3b3c001c12f0b7e1e18", 198),
    ("rg100", 8, 5, "28392bf5613f4e0d1824951647d9fc97f02d2446ac5966bafd79a17149187f84", 198),
]


@pytest.mark.parametrize("name, beam, tie_seed, digest, depth", ASTAR_PINNED)
def test_astar_output_is_pinned(name, beam, tie_seed, digest, depth):
    mapping, got = astar_initial_mapping(large_graph(name), beam, tie_seed)
    assert (hashlib.sha256(repr(mapping.pi).encode()).hexdigest(), got) == (digest, depth)


# iso_initial_mapping's (mapping, depth) on four random graphs, frozen so a
# change to the search order or mapping build it shares with astar shows;
# budget 3,000 keeps the two larger searches short
ISO_PINNED = [
    (9, 0.4, 3, 100_000, (8, 2, 6, 3, 0, 1, 5, 4, 7), 10),
    (12, 0.3, 1, 100_000, (5, 10, 7, 0, 8, 3, 9, 2, 4, 6, 11, 1), 10),
    (16, 0.5, 2, 3000, (2, 7, 0, 10, 12, 13, 14, 11, 9, 15, 5, 4, 1, 6, 8, 3), 29),
    (24, 0.2, 5, 3000,
     (17, 6, 10, 9, 15, 12, 8, 19, 14, 7, 18, 2, 5, 21, 11, 23, 16, 4, 20, 22, 13, 0, 3, 1),
     33),
]


@pytest.mark.parametrize("n, dens, seed, budget, pi, depth", ISO_PINNED)
def test_iso_output_is_pinned(n, dens, seed, budget, pi, depth):
    assert iso_initial_mapping(random_graph(n, dens, seed), budget) == (Mapping(pi), depth)
