"""Line-pattern generation, pruning, and the position/meet algebra."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctagsched.embedding import hilbert_embedding
from ctagsched.graphs import (
    Mapping,
    clique,
    grid,
    identity_mapping,
    linear,
    make_problem_graph,
    random_graph,
    random_initial_mapping,
)
from ctagsched.pattern import (
    CPHASE,
    SWAP,
    Gate,
    ScheduledCircuit,
    _layer_stream,
    _meet_table,
    _pattern_cycles,
    _walk,
    from_json_dict,
    generate_2xn_pattern,
    generate_clique_pattern,
    meet_cycle,
    prune_pattern,
    to_json_dict,
    to_text,
)
from ctagsched.verify import verify
from reference_models import (
    cyclic_rank_shift,
    interaction_ranks,
    position_at,
    ref_meet_table,
    ref_pattern_cycles,
    ref_prune_pattern,
)

# meet cycles for n=6, keyed by start-position pairs, frozen from a
# cycle-by-cycle scan of the generated pattern
MEET_6 = {
    0: {(0, 1), (2, 3), (4, 5)},
    1: {(1, 2), (3, 4)},
    4: {(0, 2), (1, 4), (3, 5)},
    5: {(0, 4), (1, 5)},
    8: {(2, 4), (0, 5), (1, 3)},
    9: {(2, 5), (0, 3)},
}


def simulate_positions(n: int, circuit: ScheduledCircuit) -> list[dict[int, int]]:
    """Occupancy after each cycle, by replaying the SWaps; site -> logical."""
    occ = {p: l for l, p in enumerate(circuit.init.pi)}
    out = []
    for cyc in circuit.cycles:
        for g in cyc:
            if g.kind == SWAP:
                occ[g.a], occ[g.b] = occ.get(g.b), occ.get(g.a)
        out.append(dict(occ))
    return out


class TestCliquePattern:
    def test_n2(self):
        c = generate_clique_pattern(2)
        assert c.depth == 1
        assert c.cycles == ((Gate(CPHASE, 0, 1, (0, 1)),),)

    def test_n6_counts(self):
        c = generate_clique_pattern(6)
        assert c.depth == 10  # 2n - 2
        assert c.cphase_count == 15

    def test_n7_counts(self):
        c = generate_clique_pattern(7)
        assert c.cphase_count == 21
        assert c.depth <= 12  # 2n - 2

    def test_depth_formula(self):
        assert generate_clique_pattern(2).depth == 1
        for n in range(3, 24):
            assert generate_clique_pattern(n).depth == 2 * n - 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 13, 16])
    def test_every_pair_exactly_once(self, n):
        seen = []
        for cyc in generate_clique_pattern(n).cycles:
            for g in cyc:
                if g.kind == CPHASE:
                    seen.append(g.logical)
        assert len(seen) == n * (n - 1) // 2
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("n", [2, 5, 6, 9, 12])
    def test_verifies_against_clique(self, n):
        c = generate_clique_pattern(n)
        assert verify(c, clique(n), linear(n)).ok

    def test_gates_are_nearest_neighbor(self):
        arch = linear(9)
        for cyc in generate_clique_pattern(9).cycles:
            for g in cyc:
                assert arch.coupled(g.a, g.b)

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            generate_clique_pattern(1)


class TestPrunePattern:
    def test_clique_is_untouched(self):
        full = generate_clique_pattern(6)
        pruned = prune_pattern(clique(6), identity_mapping(6), linear(6), range(6))
        assert pruned.cycles == full.cycles

    def test_empty_graph_is_zero_cycles(self):
        g = make_problem_graph(6, [])
        assert prune_pattern(g, identity_mapping(6), linear(6), range(6)).depth == 0

    def test_single_edge(self):
        g = make_problem_graph(6, [(0, 1)])
        c = prune_pattern(g, identity_mapping(6), linear(6), range(6))
        assert c.depth == 1
        assert c.cphase_count == 1 and c.swap_count == 0

    def test_prunes_only_cphases_not_needed(self):
        g = make_problem_graph(6, [(0, 5)])
        c = prune_pattern(g, identity_mapping(6), linear(6), range(6))
        # (0,5) meet at cycle 8, so swaps up to there must survive
        assert c.cphase_count == 1
        assert c.swap_count > 0
        assert verify(c, g, linear(6)).ok

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pruned_verifies_under_random_init(self, seed):
        g = make_problem_graph(8, [(0, 1), (2, 5), (3, 7), (4, 6), (1, 6)])
        init = random_initial_mapping(8, seed)
        c = prune_pattern(g, init, linear(8), range(8))
        assert verify(c, g, linear(8)).ok

    def test_depth_never_exceeds_full_pattern(self):
        g = make_problem_graph(7, [(0, 3), (1, 2), (5, 6)])
        assert prune_pattern(g, identity_mapping(7), linear(7), range(7)).depth <= 12

    def test_rejects_non_surjective_init(self):
        with pytest.raises(ValueError, match="init must place g's vertices onto positions 0..n-1"):
            prune_pattern(clique(2), Mapping((0, 2)), linear(2), range(2))

    @pytest.mark.parametrize(
        "chain",
        [(0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 0, 1), (0, 1, 3, 2), (2, 3, 4, 5)],
        ids=["short", "long", "repeats", "uncoupled", "off-device"],
    )
    def test_rejects_a_chain_that_is_not_one(self, chain):
        with pytest.raises(ValueError, match="chain must be 4 distinct coupled sites"):
            prune_pattern(clique(4), identity_mapping(4), linear(5), chain)

    def test_lays_the_pattern_on_the_chain(self):
        arch = grid(2, 3)
        chain = (0, 3, 4, 1, 2, 5)
        c = prune_pattern(clique(6), identity_mapping(6), arch, chain)
        assert c.arch is arch and c.init.pi == chain
        assert all(arch.coupled(x.a, x.b) and x.a < x.b for cyc in c.cycles for x in cyc)
        assert verify(c, clique(6), arch).ok


@st.composite
def pruning_inputs(draw):
    n = draw(st.integers(2, 24))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    init = Mapping(tuple(draw(st.permutations(range(n)))))
    return make_problem_graph(n, edges), init


class TestPruneMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(pruning_inputs())
    def test_one_walk_equals_generate_then_prune(self, drawn):
        g, init = drawn
        assert prune_pattern(g, init, linear(g.n), range(g.n)) == ref_prune_pattern(g, init, g.n)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 24])
    def test_dense_graphs(self, n):
        for seed in (1, 2):
            g = clique(n)
            init = random_initial_mapping(n, seed)
            assert prune_pattern(g, init, linear(n), range(n)) == ref_prune_pattern(g, init, n)


def _snake(n):
    # the two-row boustrophedon chain generate_2xn_pattern lays the line on
    cols = (n + 1) // 2
    return grid(2, cols), tuple(((p & 1) ^ (p // 2 & 1)) * cols + p // 2 for p in range(n))


@st.composite
def walk_inputs(draw):
    """A graph of n = 2-40 vertices at density 0.1-1.0 (no edge where that
    rounds to none), a random mapping, and a chain on a line, a grid (a
    stretch of its Hilbert path) or the 2xN snake, either way round."""
    n = draw(st.integers(2, 40))
    dens = draw(st.integers(1, 10)) / 10
    try:
        g = random_graph(n, dens, draw(st.integers(0, 2**31)))
    except ValueError:  # the density rounds to zero edges
        g = make_problem_graph(n, [])
    init = Mapping(tuple(draw(st.permutations(range(n)))))
    kind = draw(st.sampled_from(["linear", "grid", "snake"]))
    if kind == "linear":
        start = draw(st.integers(0, 3))
        arch, chain = linear(n + start), tuple(range(start, start + n))
    elif kind == "grid":
        rows = draw(st.integers(2, 6))
        cols = max(2, -(-n // rows)) + draw(st.integers(0, 1))
        arch = grid(rows, cols)
        start = draw(st.integers(0, rows * cols - n))
        chain = hilbert_embedding(rows, cols)[start : start + n]
    else:
        arch, chain = _snake(n)
    if draw(st.booleans()):
        chain = chain[::-1]
    return g, init, arch, chain


class TestPatternWalkMatchesReference:
    """_pattern_cycles moves by slices of its occupancy list; it yields the
    cycles of the walk that moves one pair at a time, gate for gate with
    the logical pairs, and still shares each repeated SWAP layer."""

    @staticmethod
    def check(g, init, arch, chain):
        got = list(_pattern_cycles(g, init, arch, chain))
        assert got == list(ref_pattern_cycles(g, init, arch, chain))
        assert all(type(x) is Gate for cyc in got for x in cyc)
        # every SWAP layer that starts at one position is one tuple
        shared = {}
        for cyc, (kind, a, _) in zip(got, _layer_stream(g.n)):
            if kind == SWAP:
                assert shared.setdefault(a, cyc) is cyc
        assert len(shared) == (0 if g.n == 2 else 1 if g.n == 3 else 2)

    @settings(max_examples=200, deadline=None)
    @given(walk_inputs())
    def test_same_cycles_as_the_pairwise_walk(self, drawn):
        self.check(*drawn)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 40])
    def test_cliques_on_every_chain_kind(self, n):
        # n = 2 has an empty E1 layer and no SWAP layer, n = 3 one SWAP layer
        init = random_initial_mapping(n, 7)
        for arch, chain in ((linear(n), tuple(range(n))), _snake(n)):
            self.check(clique(n), init, arch, chain)
            self.check(clique(n), init, arch, chain[::-1])


class TestPositionAlgebra:
    def test_position_at_examples(self):
        assert position_at(8, 2, 1) == 0
        assert position_at(8, 0, 1) == 1
        for n in (4, 7, 10):
            for p in range(n):
                assert position_at(n, p, 0) == p

    def test_position_at_period_n(self):
        for n in (5, 8):
            for p in range(n):
                assert position_at(n, p, n) == p

    def test_position_at_validation(self):
        with pytest.raises(ValueError):
            position_at(6, 6, 1)
        with pytest.raises(ValueError):
            position_at(6, 0, -1)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_cyclic_rank_shift_is_single_cycle(self, n):
        perm = cyclic_rank_shift(n)
        assert sorted(perm) == list(range(n))
        p, seen = 0, set()
        for _ in range(n):
            assert p not in seen
            seen.add(p)
            p = perm[p]
        assert len(seen) == n

    @pytest.mark.parametrize("n", [4, 6, 9, 12])
    def test_position_at_matches_simulation(self, n):
        """Closed form vs an explicit replay of the full pattern's swaps."""
        snaps = simulate_positions(n, generate_clique_pattern(n))
        # one outer loop = 4 layers; trailing layers are trimmed (even n) or
        # replaced by the short E0-tail (odd n), so only completed loops count
        full_loops = n // 2 - 1 if n % 2 == 0 else (n - 1) // 2 - 1
        for t in range(1, full_loops + 1):
            occ = snaps[4 * t - 1]
            for site, logical in occ.items():
                assert position_at(n, logical, t) == site


@pytest.mark.parametrize("n", range(2, 41))
def test_walk_moves_the_occupancy_as_the_position_model(n):
    # occ[p] = start position of the qubit on p; after the S0 layer that
    # closes loop t, each start position s sits on position_at(n, s, t)
    occ, loops, kinds = list(range(n)), 0, []
    before = list(occ)
    for kind, a, b in _walk(n, occ):
        assert 0 <= a <= b <= n and (b - a) % 2 == 0
        if kind == CPHASE:
            assert occ == before
        elif a == 0:
            loops += 1
            assert all(occ[position_at(n, s, loops)] == s for s in range(n))
        before = list(occ)
        kinds.append((kind, a))
    assert len(kinds) == 2 * n - 2 and loops == n // 2 - 1
    if n % 2:
        assert kinds[-1] == (CPHASE, 0)


class TestMeetCycle:
    def test_examples(self):
        assert meet_cycle(6, 0, 1) == 0
        assert meet_cycle(6, 1, 3) == 8

    def test_frozen_table_n6(self):
        for c, pairs in MEET_6.items():
            for a, b in pairs:
                assert meet_cycle(6, a, b) == c
                assert meet_cycle(6, b, a) == c

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 11])
    def test_table_properties(self, n):
        cycles = [meet_cycle(n, a, b) for a in range(n) for b in range(a + 1, n)]
        assert all(0 <= c < 2 * n - 2 or n == 2 for c in cycles)
        assert len(cycles) == n * (n - 1) // 2

    def test_matches_generated_pattern(self):
        """The table is exactly where CPHASEs land in the generated circuit."""
        n = 8
        for cyc_idx, cyc in enumerate(generate_clique_pattern(n).cycles):
            for g in cyc:
                if g.kind == CPHASE:
                    u, v = g.logical
                    assert meet_cycle(n, u, v) == cyc_idx

    @pytest.mark.parametrize("n", [*range(2, 61), 200])
    def test_table_equals_the_pairwise_builder(self, n):
        # the slice walk records and swaps the same pairs as the walk that
        # takes one pair at a time; n = 2 has an empty E1 layer
        assert _meet_table(n) == ref_meet_table(n)

    def test_validation(self):
        # each bad position is named, at either end of its range
        for pos_a, pos_b, message in [
            (2, 2, "positions must differ"),
            (7, 2, "pos_a must be below n=6, got 7"),
            (6, 2, "pos_a must be below n=6, got 6"),
            (-1, 2, "pos_a must be at least 0, got -1"),
            (0, 6, "pos_b must be below n=6, got 6"),
            (0, -1, "pos_b must be at least 0, got -1"),
        ]:
            with pytest.raises(ValueError) as ei:
                meet_cycle(6, pos_a, pos_b)
            assert str(ei.value) == message


class TestInteractionRanks:
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_matches_simulation(self, n):
        """Closed-form partner ranks vs the partners actually executed.

        Harvests, per full outer loop, which rank pairs interact, replaying
        the untrimmed stream through the trimmed circuit's CPHASE records.
        """
        from reference_models import _rank_of_start

        rank_of = _rank_of_start(n)
        by_loop: dict[int, dict[int, set[int]]] = {}
        c = generate_clique_pattern(n)
        for cyc_idx, cyc in enumerate(c.cycles):
            t = cyc_idx // 4
            for g in cyc:
                if g.kind != CPHASE:
                    continue
                u, v = g.logical
                ru, rv = rank_of[u], rank_of[v]
                by_loop.setdefault(t, {}).setdefault(ru, set()).add(rv)
                by_loop.setdefault(t, {}).setdefault(rv, set()).add(ru)
        for t, per_rank in by_loop.items():
            full = all(
                4 * t + k < len(c.cycles) for k in range(2)
            )  # both exec layers of loop t present
            if not full:
                continue
            for i, partners in per_rank.items():
                assert partners <= interaction_ranks(n, i, t)

    def test_validation(self):
        with pytest.raises(ValueError):
            interaction_ranks(6, 6, 0)


# sha256 of to_text, the init placement and the CPHASE logical labels of the
# 2xN pattern for n = 4..32, captured before it was rebuilt on _layer_stream
TWO_X_N_DIGESTS = {
    4: "11b82bce45694c273116cebf506869dd3417c9a86a8b9656faea1a8558e287ba",
    5: "63a81438f27c6c58ae32261300b52708cb1dcbd610c44a45d32d8e1a40a096e3",
    6: "9e22ce0a944e0eea1474f81e0961d38c4feb8f86475de75ec1896ba29e3e62f8",
    7: "c261d04796d71b149567640c1ebba3d4b636a05b35365ee9da75b7f1cf934fad",
    8: "225ea9ed88bfaba36104ef4566ba13c292b99488ec77ac02922d474247d06947",
    9: "607a886e6bf72e0ddec19e9c2b8e6c6b1b0daa2f13a169727af9a24e94d477ef",
    10: "91f864b062c65fe8ecf3ae13108dc26fcfb7e74cf7221c1b3209350b544af8dd",
    11: "28c3a0391642a07ac4a31a5186ca0befbbc48c9431bf840f273c3390dea7236a",
    12: "0a70bbfd62c91514ed71ce6dbe9278acc100be031a7bd24e4d3268eda253a83a",
    13: "a2254807decd50d9cd8dc7eacba7eefbb0618b1224961ffda7ddb19931997e65",
    14: "6e97445170b8f2b88d7c9edf9cc52042715aa1bdb48908a78f60f845a7192bae",
    15: "30ac41977b999437e0f2a2f6ce739d6902ef4f0a0c14539c05932f2c9b82151b",
    16: "9dfc945fd3bc052a43dc89e574b7d14e66d84f42132303886cdcd2b3b25d8547",
    17: "b9684bc7a69d049e4579f3afab9e5137e769b837c83d25d00f9e1506d1c6cda2",
    18: "89009daaeda067f987999a436a6358ddaff6c1df1654806397b4b41381a6f975",
    19: "c3c7f18ce30c2554f3f41fb2f828a77fdacd931645fec66819e9abf0d40724f2",
    20: "32a63783fae92e72e0f5f6177c30be95e104f8f1e74c09461a896be556e179c3",
    21: "7ed2e1ddf69191b84b9a0bc8f22273c155573d480862ad550ae061b046c244d8",
    22: "182328eae616ea7bdf216b2b058e687b6b3225d983875a068f67ad47531c50ff",
    23: "e93894255db48a170b9e78177f0a4beb46a5a3691a2d7f73a2ae998d3c5bc5a6",
    24: "4935f4bc7ccaa92d99f3b0cd5bd4ee6e33ccea3a2c1c8160ab593224c8e0e2fb",
    25: "7cddfd93c87234666e61d108fb6eab16d85da6cf3e6943af036ef8fa44a5bd71",
    26: "5e4311bd8c9802dd777dff32ebe2955691974fd70f41aa97eb7d2ede2cb58a7d",
    27: "9c28f6b6d6ecff5113f38070753836312625ae546150576c7adcfe71b9d58f3c",
    28: "dfd29db7d00e77b4e27cfcb1fd616f3643fe3b1f07637dbcefa599d9e5413c7d",
    29: "efc1a5f746624decd056b241931da8ce16a1efa4dfcac6320161e99971871e6a",
    30: "896dcd1460a1580e205f0ca69173c396470e73d42c1fcee36331b2cc0c922a20",
    31: "4b09853fc0936f5daba44cd562d766a231ffbfb9dab5ed1d26bb2752b7656319",
    32: "2aeb3ca5bbff30714f59e5468dfb3495a36091661adc17e858d8ed2a39a87593",
}


class Test2xN:
    @pytest.mark.parametrize("n", sorted(TWO_X_N_DIGESTS))
    def test_output_is_pinned(self, n):
        c = generate_2xn_pattern(n)
        logical = [g.logical for cyc in c.cycles for g in cyc if g.kind == CPHASE]
        blob = f"{to_text(c)}{c.init.pi}\n{logical}\n"
        assert hashlib.sha256(blob.encode()).hexdigest() == TWO_X_N_DIGESTS[n]

    def test_depth_examples(self):
        assert generate_2xn_pattern(4).depth == 5  # 3*4/2 - 1
        assert generate_2xn_pattern(6).depth == 8  # 3*6/2 - 1
        assert generate_2xn_pattern(7).depth == 10  # 3*(7-1)/2 + 1

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 12, 13, 33, 64, 101, 200])
    def test_verifies_on_grid(self, n):
        cols = (n + 1) // 2
        c = generate_2xn_pattern(n)
        assert verify(c, clique(n), grid(2, cols)).ok

    def test_pairs_meet_as_on_the_line_pattern_without_its_s0_cycles(self):
        # the ladder is the line pattern laid on the two rows' snake chain
        # with each S0 cycle, whose SWAPs all lie within a column, dropped:
        # cycle for cycle the same logical pairs meet
        for n in range(4, 81):
            cols = (n + 1) // 2
            snake = [((p & 1) ^ (p // 2 & 1)) * cols + p // 2 for p in range(n)]
            line = prune_pattern(clique(n), identity_mapping(n), grid(2, cols), snake)

            def s0(cyc):
                return all(g.kind == SWAP and g.a % cols == g.b % cols for g in cyc)

            def pairs(cycles):
                return [[g.logical for g in cyc if g.kind == CPHASE] for cyc in cycles]

            kept = [cyc for cyc in line.cycles if not s0(cyc)]
            assert pairs(generate_2xn_pattern(n).cycles) == pairs(kept), n

    def test_depth_formula(self):
        for n in range(4, 26, 2):
            assert generate_2xn_pattern(n).depth == 3 * n // 2 - 1
        for n in range(5, 25, 2):
            assert generate_2xn_pattern(n).depth == 3 * (n - 1) // 2 + 1

    def test_beats_line_pattern(self):
        for n in (6, 10, 14):
            assert generate_2xn_pattern(n).depth < generate_clique_pattern(n).depth

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            generate_2xn_pattern(3)


@st.composite
def any_circuits(draw):
    # any gate list on a line of q sites, labelled or not, and any placement
    q = draw(st.integers(1, 12))
    site = st.integers(0, q - 1)
    gate = st.builds(
        Gate, st.sampled_from([CPHASE, SWAP]), site, site, st.none() | st.tuples(site, site)
    )
    cycles = draw(st.lists(st.lists(gate, max_size=4).map(tuple), max_size=8))
    placed = draw(st.permutations(range(q)))[: draw(st.integers(1, q))]
    return ScheduledCircuit(tuple(cycles), Mapping(tuple(placed)), linear(q))


class TestJsonRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(any_circuits())
    def test_round_trip_preserves_cycles_and_init(self, c):
        doc = json.loads(json.dumps(to_json_dict(c)))
        back = from_json_dict(doc, c.arch)
        assert back.cycles == c.cycles
        assert back.init == c.init


class TestSerialization:
    def test_text_format(self):
        g = make_problem_graph(6, [(0, 1)])
        c = prune_pattern(g, identity_mapping(6), linear(6), range(6))
        assert to_text(c).strip() == "0: CPHASE(0,1)"

    def test_text_multi_gate_cycle(self):
        txt = to_text(generate_clique_pattern(4))
        first = txt.splitlines()[0]
        assert first.startswith("0:") and "CPHASE" in first

    def test_json_round_trip(self):
        c = generate_clique_pattern(6)
        doc = to_json_dict(c)
        c2 = from_json_dict(doc, linear(6))
        assert c2.cycles == c.cycles
        assert c2.init.pi == c.init.pi

    def test_json_round_trip_pruned(self):
        g = make_problem_graph(7, [(0, 3), (2, 6)])
        c = prune_pattern(g, random_initial_mapping(7, 2), linear(7), range(7))
        assert from_json_dict(to_json_dict(c), linear(7)).cycles == c.cycles

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            from_json_dict({"cycles": "nope"}, linear(4))

    def test_unknown_gate_kind_rejected(self):
        doc = to_json_dict(generate_clique_pattern(4))
        doc["cycles"][0][0]["kind"] = "iswap"
        with pytest.raises(ValueError):
            from_json_dict(doc, linear(4))
