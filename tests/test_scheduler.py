"""Heuristic scheduler: pattern prefix, matching, routing, and end-to-end runs."""

import hashlib
import importlib
import importlib.util
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctagsched.initial_mapping
import ctagsched.scheduler
from ctagsched.graphs import (
    Architecture,
    Mapping,
    clique,
    grid,
    identity_mapping,
    linear,
    make_architecture,
    make_problem_graph,
    random_graph,
    random_initial_mapping,
)
from ctagsched.initial_mapping import astar_initial_mapping
from ctagsched.pattern import (
    CPHASE,
    SWAP,
    Gate,
    ScheduledCircuit,
    _layer_stream,
    generate_clique_pattern,
    prune_pattern,
    to_text,
)
from ctagsched.scheduler import (
    CHAINS,
    MAX_PATHS,
    STRATEGIES,
    SchedulerConfig,
    SchedulerState,
    SwapStrategy,
    _apply_swaps,
    _bfs_placement,
    _bystander_delta,
    _first_hops,
    _first_by_text,
    _line_orders,
    _pick,
    _route,
    _shortest_paths,
    enumerate_swap_strategies,
    maximal_matching,
    partial_pattern_cycles,
    schedule,
    score_strategy,
)
from ctagsched.verify import verify
from reference_models import ref_prune_pattern, ref_relabel, ref_schedule, ref_shortest_paths

FIG_EDGES = [(0, 1), (2, 3), (4, 5), (1, 2), (3, 4)]


def fig_variant(*chords):
    return make_problem_graph(6, FIG_EDGES + list(chords))


def state_on_line(n, edges, q=None):
    arch = linear(q or n)
    g = make_problem_graph(n, edges)
    return SchedulerState(g, arch, identity_mapping(n), set(g.edges))


class TestPartialPatternCycles:
    def test_chorded_ladder_keeps_two_cycles(self):
        for chords in ([(1, 3)], [(2, 4)], [(1, 3), (2, 4)]):
            g = fig_variant(*chords)
            assert partial_pattern_cycles(g, identity_mapping(6), 0.5) == 2

    def test_clique_keeps_everything(self):
        assert partial_pattern_cycles(clique(6), identity_mapping(6), 0.5) == 10

    def test_empty_graph_keeps_nothing(self):
        g = make_problem_graph(6, [])
        assert partial_pattern_cycles(g, identity_mapping(6), 0.5) == 0

    def test_threshold_zero_keeps_the_full_stream(self):
        g = fig_variant((1, 3))
        assert partial_pattern_cycles(g, identity_mapping(6), 0.0) == 10

    def test_prefix_ends_after_an_execution_layer(self):
        # k counts layers, and the layer at index k-1 must be an execution
        # layer: swap-only tails never pay for themselves
        for g in (fig_variant((1, 3)), clique(6), random_graph(8, 0.4, 3)):
            n = g.n
            k = partial_pattern_cycles(g, identity_mapping(n), 0.5)
            if k:
                assert k % 4 in (1, 2) or k == 2 * n - 2

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            partial_pattern_cycles(clique(4), identity_mapping(4), 1.5)

    def test_mapping_validation(self):
        from ctagsched.graphs import Mapping

        with pytest.raises(ValueError):
            partial_pattern_cycles(clique(3), Mapping((0, 1, 5)), 0.5)


def ref_partial_pattern_cycles(g, mapping, threshold):
    """Prefix length as first written: replay the layer stream with an
    occupancy list and count the input pairs each execution layer fires."""
    n = g.n
    bar = threshold * (n // 2)
    occ = [0] * n
    for l, p in enumerate(mapping.pi):
        occ[p] = l
    k = 0
    for t, (kind, pairs) in enumerate(_layer_stream(n)):
        if kind == SWAP:
            for a, b in pairs:
                occ[a], occ[b] = occ[b], occ[a]
            continue
        fired = sum(1 for a, b in pairs if tuple(sorted((occ[a], occ[b]))) in g.edges)
        if fired < bar:
            break
        k = t + 1
    return k


@st.composite
def prefix_inputs(draw):
    n = draw(st.integers(2, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.floats(0.0, 1.0))
    bits = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    g = make_problem_graph(n, [e for e, b in zip(pairs, bits) if b < keep])
    mapping = Mapping(tuple(draw(st.permutations(range(n)))))
    return g, mapping, draw(st.floats(0.0, 1.0))


class TestPartialPatternCyclesMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(prefix_inputs())
    def test_meet_table_count_equals_the_replay(self, drawn):
        g, mapping, threshold = drawn
        assert partial_pattern_cycles(g, mapping, threshold) == ref_partial_pattern_cycles(
            g, mapping, threshold
        )

    @pytest.mark.parametrize("n", [2, 3, 9, 24, 40])
    def test_cliques_and_random_graphs(self, n):
        for g in (clique(n), random_graph(n, 0.6, n)):
            for seed in (1, 2):
                mapping = random_initial_mapping(n, seed)
                for threshold in (0.0, 0.3, 0.5, 1.0):
                    assert partial_pattern_cycles(
                        g, mapping, threshold
                    ) == ref_partial_pattern_cycles(g, mapping, threshold)


class TestMaximalMatching:
    def test_path_takes_both_ends(self):
        g = make_problem_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert maximal_matching(g.edges, identity_mapping(4)) == [(0, 1), (2, 3)]

    def test_physical_conflicts_respected(self):
        # logical edges disjoint, but both land on site 1 under this mapping
        from ctagsched.graphs import Mapping

        mapping = Mapping((0, 1, 3, 2))  # logical 2 at site 3, logical 3 at site 2
        edges = {(0, 1), (2, 3)}
        got = maximal_matching(edges, mapping)
        assert got == [(0, 1), (2, 3)]  # sites {0,1} and {3,2}: no conflict
        clash = Mapping((1, 0, 2, 3))
        got2 = maximal_matching({(0, 1), (1, 2)}, clash)
        assert len(got2) == 1

    def test_greedy_prefers_high_degree_endpoints(self):
        # star center first leaves the leaves unmatched; the heuristic keys
        # on max endpoint degree so the hub edge goes in first
        g = make_problem_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        got = maximal_matching(g.edges, identity_mapping(5))
        assert (0, 1) in got

    def test_empty(self):
        assert maximal_matching(set(), identity_mapping(4)) == []


class TestSwapStrategies:
    def test_adjacent_edge_rejected(self):
        st = state_on_line(4, [(0, 1)])
        with pytest.raises(ValueError):
            enumerate_swap_strategies((0, 1), st)

    def test_line_distance3_gives_three_splits(self):
        st = state_on_line(5, [(0, 3)])
        out = enumerate_swap_strategies((0, 3), st)
        assert len(out) == 3
        assert sorted((ss.d1, len(ss.path) - 2 - ss.d1) for ss in out) == [(0, 2), (1, 1), (2, 0)]
        for ss in out:
            a, b = ss.path[ss.d1 : ss.d1 + 2]
            assert st.arch.dist[a][b] == 1

    def test_grid_corner_pairs_use_multiple_paths(self):
        arch = grid(2, 3)
        g = make_problem_graph(6, [(0, 5)])
        st = SchedulerState(g, arch, identity_mapping(6), set(g.edges))
        out = enumerate_swap_strategies((0, 5), st)
        assert len(out) == 9  # 3 shortest paths x 3 splits
        assert len({ss.path for ss in out}) == 3
        assert len({(ss.path, ss.d1) for ss in out}) == 9

    def test_busy_sites_filter_strategies(self):
        st = state_on_line(5, [(0, 3)])
        st.blocked.add(1)  # first hop 0->1 now collides for d1 >= 1
        out = enumerate_swap_strategies((0, 3), st)
        assert all(ss.d1 == 0 for ss in out)

    def test_protected_sites_filter_strategies(self):
        from ctagsched.scheduler import _first_hops

        st = state_on_line(5, [(0, 3)])
        st.blocked.update({2, 3})
        out = enumerate_swap_strategies((0, 3), st)
        for ss in out:  # no first hop may touch a protected site
            for hop in _first_hops(ss):
                assert 2 not in hop and 3 not in hop

    def test_blocked_first_hops_skip_the_path_walk(self):
        # corners 0 and 8 of a 3x3 grid are free, but each one's two
        # neighbours toward the other are blocked: no strategy can start,
        # and the shortest paths are never walked
        arch = grid(3, 3)
        g = make_problem_graph(9, [(0, 8)])
        st = SchedulerState(g, arch, identity_mapping(9), set(g.edges))
        st.blocked.update({1, 5})
        st.blocked.update({3, 7})
        assert enumerate_swap_strategies((0, 8), st) == []
        assert st.paths == {}
        st.blocked.discard(7)
        assert enumerate_swap_strategies((0, 8), st) != []
        assert st.paths != {}


class TestScoreStrategy:
    def test_hand_computed_scores(self):
        st = state_on_line(6, [(0, 3), (3, 5)])
        out = enumerate_swap_strategies((0, 3), st)
        by_split = {(ss.d1, len(ss.path) - 2 - ss.d1): ss for ss in out}
        # (2,0): u ends at 2, v stays at 3; only (3,5) contributes: d(3,5)=2
        assert score_strategy(by_split[(2, 0)], st) == 2
        # (1,1): v ends at 2: d(2,5)=3
        assert score_strategy(by_split[(1, 1)], st) == 3
        # (0,2): v ends at 1: d(1,5)=4
        assert score_strategy(by_split[(0, 2)], st) == 4

    def test_routed_edge_never_counts(self):
        st = state_on_line(5, [(0, 4)])
        for ss in enumerate_swap_strategies((0, 4), st):
            assert score_strategy(ss, st) == 0

    def test_matches_direct_recount(self):
        st = state_on_line(7, [(0, 4), (4, 6), (0, 2), (1, 5)])
        dist = st.arch.dist
        for ss in enumerate_swap_strategies((0, 4), st):
            expect = 0
            for end, pos in zip(ss.edge, ss.path[ss.d1 : ss.d1 + 2]):
                for x, y in st.remaining:
                    if (x, y) == ss.edge or end not in (x, y):
                        continue
                    nb = y if x == end else x
                    expect += dist[pos][st.pi[nb]]
            assert score_strategy(ss, st) == expect


# Reference versions of the round engine's hot path as it was before it was
# made O(degree) per candidate: build every (path, split) strategy from the
# recursive path walk and then filter, and scan every remaining edge when
# scoring.  Each reads a strategy as it was first recorded: a split, the
# site sequence each endpoint traverses and the two sites they meet on.


def ref_split_paths(ss):
    """(split, paths, new_positions) of ss: the first endpoint walks
    path[:d1 + 1], the second path[d1 + 1:] backwards."""
    path, d1 = list(ss.path), ss.d1
    split = (d1, len(path) - 2 - d1)
    paths = (tuple(path[: d1 + 1]), tuple(reversed(path[d1 + 1 :])))
    return split, paths, (path[d1], path[d1 + 1])


def ref_first_hops(ss):
    # the first SWAP of each endpoint that moves
    hops = [tuple(sorted(p[:2])) for p in ref_split_paths(ss)[1] if len(p) > 1]
    return tuple(sorted(hops))


def ref_enumerate(edge, state):
    u, v = edge
    pu, pv = state.pi[u], state.pi[v]
    dist = state.arch.dist[pu][pv]
    blocked = state.blocked
    out = []
    for path in ref_shortest_paths(state.arch, pu, pv, MAX_PATHS):
        for d1 in range(dist):
            ss = SwapStrategy(edge, tuple(path), d1)
            sites = [s for h in ref_first_hops(ss) for s in h]
            if len(set(sites)) < len(sites):
                continue
            if any(s in blocked for s in sites):
                continue
            out.append(ss)
    return out


def ref_score(ss, state):
    dist = state.arch.dist
    score = 0
    for end, newpos in zip(ss.edge, ref_split_paths(ss)[2]):
        for x, y in state.remaining:
            if (x, y) == ss.edge:
                continue
            if x == end:
                nb = y
            elif y == end:
                nb = x
            else:
                continue
            score += dist[newpos][state.pi[nb]]
    return score


def ref_bystander_delta(ss, state):
    u, v = ss.edge
    inv = Mapping(tuple(state.pi)).inverse()
    moved = {}
    for path in ref_split_paths(ss)[1]:
        for k in range(1, len(path)):
            l = inv.get(path[k])
            if l is not None:
                moved[l] = path[k - 1]
    moved.pop(u, None)
    moved.pop(v, None)
    if not moved:
        return 0
    dist = state.arch.dist
    delta = 0
    for x, y in state.remaining:
        if (x, y) == ss.edge or x in (u, v) or y in (u, v):
            continue
        if x not in moved and y not in moved:
            continue
        px0, py0 = state.pi[x], state.pi[y]
        delta += dist[moved.get(x, px0)][moved.get(y, py0)] - dist[px0][py0]
    return delta


def ref_apply_swaps(mapping, hops):
    pos = list(mapping.pi)
    inv = {p: l for l, p in enumerate(pos)}
    for a, b in hops:
        la, lb = inv.get(a), inv.get(b)
        if la is not None:
            pos[la] = b
        if lb is not None:
            pos[lb] = a
        inv = {p: l for l, p in enumerate(pos)}
    return Mapping(tuple(pos))


@st.composite
def routing_states(draw):
    arch = make_architecture(
        draw(st.sampled_from(["linear:9", "grid:3x4", "grid:2x6", "grid:4x4", "ibm20"]))
    )
    n = draw(st.integers(2, arch.q))
    sites = draw(st.permutations(range(arch.q)))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=40))
    remaining = draw(st.sets(st.sampled_from(sorted(edges)), min_size=1))
    site_sets = st.sets(st.integers(0, arch.q - 1), max_size=arch.q // 2)
    state = SchedulerState(
        make_problem_graph(n, edges), arch, Mapping(tuple(sites[:n])), remaining
    )
    state.blocked = draw(site_sets) | draw(site_sets) | draw(site_sets)
    return state


class TestRoundEngineMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(routing_states())
    def test_strategies_scores_and_deltas(self, state):
        dist = state.arch.dist
        for e in sorted(state.remaining):
            if dist[state.pi[e[0]]][state.pi[e[1]]] < 2:
                continue
            ref = ref_enumerate(e, state)
            assert enumerate_swap_strategies(e, state) == ref
            for ss in ref:
                assert _first_hops(ss) == ref_first_hops(ss)
                assert score_strategy(ss, state) == ref_score(ss, state)
                assert _bystander_delta(ss, state) == ref_bystander_delta(ss, state)
            # cached paths give the same list on a second call
            assert enumerate_swap_strategies(e, state) == ref

    @settings(max_examples=100, deadline=None)
    @given(routing_states(), st.booleans())
    def test_one_endpoint_moves_the_whole_way(self, state, u_parked):
        # with one endpoint's site blocked, only the other one moves: every
        # strategy is d1 == 0 (the second endpoint walks the whole path) or
        # d1 == dist - 1 (the first does), and has one first hop
        dist = state.arch.dist
        for e in sorted(state.remaining):
            pu, pv = state.pi[e[0]], state.pi[e[1]]
            if dist[pu][pv] < 2:
                continue
            state.blocked = (state.blocked - {pu, pv}) | {pu if u_parked else pv}
            ref = ref_enumerate(e, state)
            got = enumerate_swap_strategies(e, state)
            assert got == ref
            for ss in got:
                assert ss.d1 == (0 if u_parked else dist[pu][pv] - 1)
                assert _first_hops(ss) == ref_first_hops(ss)
                assert len(_first_hops(ss)) == 1
                assert score_strategy(ss, state) == ref_score(ss, state)
                assert _bystander_delta(ss, state) == ref_bystander_delta(ss, state)

    @settings(max_examples=100, deadline=None)
    @given(routing_states())
    def test_apply_swaps_keeps_the_inverse(self, state):
        state.blocked = set()
        dist = state.arch.dist
        for e in sorted(state.remaining):
            if dist[state.pi[e[0]]][state.pi[e[1]]] < 2:
                continue
            hops = _first_hops(enumerate_swap_strategies(e, state)[-1])
            expect = ref_apply_swaps(Mapping(tuple(state.pi)), hops)
            _apply_swaps(state, hops)
            assert Mapping(tuple(state.pi)) == expect
            assert state.inv == expect.inverse()


def ref_run_rounds(state):
    """The round engine before dead edges, lone strategies and lone best
    scores were skipped, on the reference strategy, score and delta, with
    its three constraint sets; returns the cycles it builds."""
    dist = state.arch.dist
    circuit = []
    while state.remaining:
        pi = state.pi
        # each distance is read once per round: adjacent edges are
        # executable, the others are routed nearest first, ties by edge id
        ranked = sorted((dist[pi[u]][pi[v]], (u, v)) for u, v in state.remaining)
        re = [e for d, e in ranked if d == 1]
        far = [e for d, e in ranked if d > 1]
        matching = maximal_matching(re, Mapping(tuple(pi)))
        cycle = []
        busy = set()
        protected = set()
        re_sites = {pi[x] for e in re for x in e}
        for u, v in matching:
            a, b = pi[u], pi[v]
            cycle.append(Gate(CPHASE, min(a, b), max(a, b), (u, v)))
            busy |= {a, b}
            state.remaining.discard((u, v))
        for e in far:
            pi = state.pi
            if dist[pi[e[0]]][pi[e[1]]] < 2:
                continue  # earlier swaps this round already parked it adjacent
            state.blocked = busy | re_sites | protected
            strategies = ref_enumerate(e, state)
            if not strategies:
                continue  # deferred; constraints reset next cycle
            scores = [ref_score(ss, state) for ss in strategies]
            low = min(scores)
            # the bystander delta only breaks score ties, so only ties pay for it
            best = min(
                (ss for ss, sc in zip(strategies, scores) if sc == low),
                key=lambda ss: (
                    ref_bystander_delta(ss, state),
                    ref_first_hops(ss),
                    *ref_split_paths(ss)[:2],
                ),
            )
            hops = ref_first_hops(best)
            for a, b in hops:
                cycle.append(Gate(SWAP, a, b))
                busy |= {a, b}
            state.pi = list(ref_apply_swaps(Mapping(tuple(state.pi)), hops).pi)
            protected |= {state.pi[e[0]], state.pi[e[1]]}
        assert cycle, "scheduler round made no progress"
        circuit.append(cycle)
    return circuit


def ref_route(g, arch, init, prefix):
    state = SchedulerState(g, arch, init, set(g.edges))
    circuit = [list(cyc) for cyc in prefix]
    for cyc in prefix:
        state.remaining.difference_update(x.logical for x in cyc if x.kind == CPHASE)
        hops = [(x.a, x.b) for x in cyc if x.kind == SWAP]
        state.pi = list(ref_apply_swaps(Mapping(tuple(state.pi)), hops).pi)
    circuit += ref_run_rounds(state)
    return ScheduledCircuit(tuple(tuple(cyc) for cyc in circuit), init, arch)


@st.composite
def route_inputs(draw):
    # a device, a random graph on n <= q vertices and, where the device has a
    # chain of n sites, a prefix of random length of the pruned pattern under
    # a random mapping; without a chain, the breadth-first placement
    kind = draw(st.sampled_from(["linear", "grid", "grid2", "ibm20", "ibm27", "random"]))
    if kind == "linear":
        arch = linear(draw(st.integers(2, 16)))
    elif kind == "grid":
        arch = grid(draw(st.integers(3, 5)), draw(st.integers(3, 5)))
    elif kind == "grid2":
        arch = grid(2, draw(st.integers(2, 12)))
    elif kind == "random":
        _, arch = draw(connected_devices())
    else:
        arch = make_architecture(kind)
    n = draw(st.integers(2, arch.q))
    keep, rng = draw(st.floats(0.0, 1.0)), draw(st.randoms(use_true_random=False))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = make_problem_graph(n, [e for e in pairs if rng.random() < keep])
    orders = _line_orders(arch, n, 0)
    if not orders:
        return g, arch, _bfs_placement(arch, n), ()
    m0 = Mapping(tuple(draw(st.permutations(range(n)))))
    full = prune_pattern(g, m0, arch, draw(st.sampled_from(orders)))
    return g, arch, full.init, full.cycles[: draw(st.integers(0, full.depth))]


IBM27_NO_CHAIN = (
    random_graph(24, 0.4, 3),
    make_architecture("ibm27"),
    _bfs_placement(make_architecture("ibm27"), 24),
    (),
)


class TestRouteMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(route_inputs())
    @example(IBM27_NO_CHAIN)
    def test_route_equals_the_engine_without_shortcuts(self, drawn):
        g, arch, init, prefix = drawn
        got = _route(g, arch, init, prefix)
        ref = ref_route(g, arch, init, prefix)
        assert got.init == ref.init
        assert to_text(got) == to_text(ref)


def assert_partners_follow_remaining(state):
    adj = [set() for _ in range(state.g.n)]
    for u, v in state.remaining:
        adj[u].add(v)
        adj[v].add(u)
    assert state.partners == adj


class TestPartnerSets:
    @settings(max_examples=120, deadline=None)
    @given(route_inputs())
    @example(IBM27_NO_CHAIN)
    def test_partners_are_the_remaining_adjacency_after_every_round(self, drawn):
        # the state _route builds checks its partner sets once the prefix is
        # out and after each round's execute(), the one place they change
        g, arch, init, prefix = drawn
        ran = {x.logical for cyc in prefix for x in cyc if x.kind == CPHASE}
        states, rounds = [], []

        class Checked(SchedulerState):
            def __post_init__(self, init):
                super().__post_init__(init)
                assert self.remaining == set(g.edges) - ran
                assert_partners_follow_remaining(self)
                states.append(self)

            def execute(self, edges):
                super().execute(edges)
                assert_partners_follow_remaining(self)
                rounds.append(len(edges))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctagsched.scheduler, "SchedulerState", Checked)
            c = _route(g, arch, init, prefix)
        assert len(states) == 1 and not any(states[0].partners)
        assert len(rounds) == c.depth - len(prefix)
        assert sum(rounds) == len(g.edges) - len(ran)


class TestScheduleEndToEnd:
    def test_strategy_roster(self):
        assert STRATEGIES == (
            "pattern-only",
            "ctag-r",
            "ctag-i-astar",
            "ctag-i-iso",
            "ctag-h",
        )

    def test_pattern_only_clique_is_the_pattern(self):
        c = schedule(clique(6), linear(6), SchedulerConfig(strategy="pattern-only"))
        assert c.cycles == generate_clique_pattern(6).cycles

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_verify(self, strategy):
        g = random_graph(8, 0.4, 5)
        arch = linear(8)
        c = schedule(g, arch, SchedulerConfig(strategy=strategy))
        assert verify(c, g, arch).ok

    @pytest.mark.parametrize("chords", [[(1, 3)], [(2, 4)], [(1, 3), (2, 4)]])
    def test_chorded_ladder_depth_four(self, chords):
        g = fig_variant(*chords)
        arch = linear(6)
        c = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
        assert c.depth <= 4
        assert verify(c, g, arch).ok

    def test_sparse_grid_instance(self, monkeypatch):
        # 12 vertices, density .25 on a 3x4 grid: the mapped pattern needs 21
        # cycles, the heuristic with two chain candidates lands under 8
        g = random_graph(12, 0.25, 17)
        arch = make_architecture("grid:3x4")
        ci = schedule(g, arch, SchedulerConfig(strategy="ctag-i-astar"))
        assert ci.depth == 21
        h2 = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
        monkeypatch.setattr(ctagsched.scheduler, "CHAINS", 1)
        h1 = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
        assert h2.depth <= 8
        assert h2.depth <= h1.depth
        for c in (ci, h2, h1):
            assert verify(c, g, arch).ok

    def test_guard_keeps_heuristic_at_or_below_pattern(self):
        for seed in range(4):
            g = random_graph(9, 0.5, seed + 1)
            arch = linear(9)
            h = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
            p = schedule(g, arch, SchedulerConfig(strategy="ctag-i-astar"))
            assert h.depth <= p.depth
            assert verify(h, g, arch).ok

    def test_deterministic(self):
        g = random_graph(10, 0.3, 11)
        arch = make_architecture("grid:2x5")
        a = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
        b = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
        assert a.cycles == b.cycles and a.init.pi == b.init.pi

    def test_larger_device_than_graph(self):
        g = random_graph(5, 0.6, 2)
        arch = linear(9)
        c = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
        assert verify(c, g, arch).ok

    def test_star_device_has_no_chain_but_schedules(self):
        star = Architecture(
            5, frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}), "star5"
        )
        g = make_problem_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        c = schedule(g, star, SchedulerConfig(strategy="ctag-h"))
        assert verify(c, g, star).ok

    def test_pattern_strategies_need_a_chain(self):
        star = Architecture(
            5, frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}), "star5"
        )
        g = make_problem_graph(4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            schedule(g, star, SchedulerConfig(strategy="ctag-i-astar"))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("spec", ["linear:1", "grid:2x3", "ibm27"])
    def test_single_vertex_is_an_empty_circuit(self, strategy, spec):
        g = make_problem_graph(1, [])
        arch = make_architecture(spec)
        c = schedule(g, arch, SchedulerConfig(strategy=strategy))
        assert c.depth == 0
        assert verify(c, g, arch).ok

    def test_too_small_device(self):
        with pytest.raises(ValueError):
            schedule(clique(6), linear(5))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            schedule(clique(4), linear(4), SchedulerConfig(strategy="ctag"))

    def test_heavy_hex_device(self):
        g = random_graph(14, 0.2, 6)
        arch = make_architecture("ibm27")
        c = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
        assert verify(c, g, arch).ok

    def test_swap_only_cycles_never_idle(self):
        # every cycle carries at least one gate
        g = random_graph(10, 0.35, 4)
        arch = make_architecture("ibm20")
        c = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
        assert all(len(cyc) > 0 for cyc in c.cycles)
        assert verify(c, g, arch).ok


def heuristic_only(g, arch):
    # ctag-h's pool without the pattern candidates beside the routed ones, so
    # the round engine's output is what wins: a covering prefix still gives
    # its pattern, and with no chain the breadth-first placement is routed
    n = g.n
    orders = _line_orders(arch, n, 0)
    if not orders:
        return _route(g, arch, _bfs_placement(arch, n), ())
    inits = [astar_initial_mapping(g, 8, 0)[0]]
    if inits[0].pi != tuple(range(n)):
        inits.append(identity_mapping(n))
    pool = []
    for order in orders:
        for m0 in inits:
            full = prune_pattern(g, m0, arch, order)
            k = partial_pattern_cycles(g, m0, 0.5)
            pool.append(full if k >= full.depth else _route(g, arch, full.init, full.cycles[:k]))
    return min(pool, key=lambda c: (c.depth, c.cphase_count + c.swap_count, to_text(c)))


# sha256 of to_text for heuristic-only ctag-h runs, captured before the round
# engine was rewritten for speed; ibm27 at n=25 has no 25-site chain and takes
# the breadth-first placement path
ROUND_ENGINE_DIGESTS = [
    ("grid:4x4", 16, 0.3, 1, "a88761c8cb898f2b4d00e9d7384027c9e0b0e3db6d3a109ef8ae972e72206e03"),
    ("grid:5x5", 20, 0.3, 2, "e359f93fd32dc69de6ea0ace5b949ed19b257733a9abc8630da7a2b1c4511ffd"),
    ("grid:2x10", 20, 0.3, 3, "634546c7d1de5caf9d9926348892863600bca0eee59e03ba5c1f0e4fc4e0bb72"),
    ("ibm20", 18, 0.3, 4, "321a21553208d8349c709ac7c35baec3c4bbdbc3f0289d075a2be15e0083532c"),
    ("ibm27", 25, 0.2, 5, "94a6edff0ab555a550ca336040e429f51d191369e1b0bed4a4253715e7e98b31"),
    ("linear:24", 24, 0.15, 7, "f166f133c41d05cf8933b2e668446c98b1edcbad9d942561a2d1e112fb7cbadb"),
]


@pytest.mark.parametrize(
    "arch_spec,n,dens,seed,digest",
    ROUND_ENGINE_DIGESTS,
    ids=[case[0] for case in ROUND_ENGINE_DIGESTS],
)
def test_round_engine_output_is_pinned(arch_spec, n, dens, seed, digest):
    g = random_graph(n, dens, seed)
    arch = make_architecture(arch_spec)
    c = heuristic_only(g, arch)
    assert hashlib.sha256(to_text(c).encode()).hexdigest() == digest


# the same for denser inputs, where score ties send strategies to the
# bystander-delta tie-break; captured before the round engine skipped the
# choices already made
DENSE_ROUND_ENGINE_DIGESTS = [
    ("grid:6x6", 36, 0.5, 1, "6b1cfe990f3ed4c553c5301b103b32a969526d025e4250b3e9b00d7605ef6be5"),
    ("linear:40", 40, 0.4, 1, "e65eb739ec126eb7c7da394dea6a118882111c5e517cb2feb01be4b1b5f49324"),
    ("grid:2x15", 30, 0.5, 1, "b5959ae0c5ddf65c6e8e0b3fcdc6ff1f8d2521f87e8efc76a421db99e382a1bd"),
]


@pytest.mark.parametrize(
    "arch_spec,n,dens,seed,digest",
    DENSE_ROUND_ENGINE_DIGESTS,
    ids=[case[0] for case in DENSE_ROUND_ENGINE_DIGESTS],
)
def test_dense_round_engine_output_is_pinned(arch_spec, n, dens, seed, digest):
    g = random_graph(n, dens, seed)
    arch = make_architecture(arch_spec)
    c = heuristic_only(g, arch)
    assert hashlib.sha256(to_text(c).encode()).hexdigest() == digest


def test_round_engine_pays_only_for_open_choices(monkeypatch):
    # counts every call the round engine makes on one instance and checks
    # each against the choice it serves: no enumeration for an edge whose
    # endpoint sites are both blocked, no score for a lone strategy, no
    # bystander delta unless two or more strategies tie on the lowest score
    S = ctagsched.scheduler
    real_enumerate, real_score = S.enumerate_swap_strategies, S.score_strategy
    real_delta, real_paths = S._bystander_delta, S._shortest_paths
    found = {}  # edge -> the strategies its latest enumeration returned
    calls = Counter()

    def enumerate_(edge, state):
        calls["enumerate"] += 1
        pi = state.pi
        assert not (pi[edge[0]] in state.blocked and pi[edge[1]] in state.blocked)
        found[edge] = real_enumerate(edge, state)
        return found[edge]

    def score(ss, state):
        calls["score"] += 1
        assert len(found[ss.edge]) >= 2
        return real_score(ss, state)

    def delta(ss, state):
        calls["delta"] += 1
        scores = [real_score(x, state) for x in found[ss.edge]]
        assert scores.count(min(scores)) >= 2
        assert real_score(ss, state) == min(scores)
        return real_delta(ss, state)

    def paths(*args):
        calls["paths"] += 1
        return real_paths(*args)

    monkeypatch.setattr(S, "enumerate_swap_strategies", enumerate_)
    monkeypatch.setattr(S, "score_strategy", score)
    monkeypatch.setattr(S, "_bystander_delta", delta)
    monkeypatch.setattr(S, "_shortest_paths", paths)
    g = random_graph(20, 0.3, 5)
    arch = make_architecture("grid:4x5")
    c = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
    assert verify(c, g, arch).ok
    assert 0 < calls["enumerate"] < 1769  # the parent made 1769
    assert 0 < calls["score"] < 606  # the parent made 606
    assert 0 < calls["delta"] < 456  # the parent made 456
    assert 0 < calls["paths"] < 482  # the parent made 482


def test_ctag_h_prunes_once_per_chain_and_mapping(monkeypatch):
    # two chains and two initial mappings: the pattern is pruned onto each
    # chain under each mapping, and its prefix is measured once per mapping
    g = random_graph(12, 0.25, 17)
    arch = make_architecture("grid:3x4")
    S = ctagsched.scheduler
    real_prune, real_prefix = S.prune_pattern, S.partial_pattern_cycles
    pruned, measured = [], []

    def prune(g, init, arch, chain):
        pruned.append((chain, init.pi))
        return real_prune(g, init, arch, chain)

    def prefix(g, mapping, threshold):
        measured.append(mapping.pi)
        return real_prefix(g, mapping, threshold)

    monkeypatch.setattr(S, "prune_pattern", prune)
    monkeypatch.setattr(S, "partial_pattern_cycles", prefix)
    c = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
    assert verify(c, g, arch).ok
    inits = {pi for _, pi in pruned}
    assert len({chain for chain, _ in pruned}) == len(inits) == 2
    assert len(pruned) == len(set(pruned)) == 4
    assert sorted(measured) == sorted(inits)


@pytest.mark.parametrize("spec", ["linear:20", "grid:4x5", "ibm20"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_only_ctag_h_searches_past_a_builtin_chain(monkeypatch, spec, strategy):
    # a line strategy lays the device's own chain and searches for no other;
    # ctag-h searches for CHAINS chains to add to it
    real = ctagsched.scheduler.multi_embeddings
    calls = []

    def search(arch, k, **kwargs):
        calls.append(k)
        return real(arch, k, **kwargs)

    monkeypatch.setattr(ctagsched.scheduler, "multi_embeddings", search)
    g = random_graph(20, 0.3, 1)
    arch = make_architecture(spec)
    c = schedule(g, arch, SchedulerConfig(strategy=strategy))
    assert verify(c, g, arch).ok
    assert calls == ([CHAINS] if strategy == "ctag-h" else [])


@pytest.mark.parametrize("device", ["grid:4x5", "ibm20", "ibm27"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_line_strategy_searches_for_one_chain(monkeypatch, device, strategy):
    # a custom-named device has no built-in chain: a line strategy searches
    # for the one chain it lays, which is the first of ctag-h's CHAINS
    real = ctagsched.scheduler.multi_embeddings
    couplings = make_architecture(device).couplings
    arch = Architecture(1 + max(map(max, couplings)), couplings, "custom")
    calls = []

    def search(arch, k, **kwargs):
        calls.append(k)
        return real(arch, k, **kwargs)

    monkeypatch.setattr(ctagsched.scheduler, "multi_embeddings", search)
    g = random_graph(12, 0.3, 1)
    c = schedule(g, arch, SchedulerConfig(strategy=strategy))
    assert verify(c, g, arch).ok
    assert calls == [CHAINS if strategy == "ctag-h" else 1]
    assert _line_orders(arch, 12, 0, 1) == real(arch, CHAINS, seed=0, length=12)[:1]


def test_ctag_i_iso_searches_under_the_configured_beam_and_seed(monkeypatch):
    real = ctagsched.initial_mapping.astar_initial_mapping
    calls = []

    def astar(g, beam=8, tie_seed=0):
        calls.append((beam, tie_seed))
        return real(g, beam, tie_seed)

    monkeypatch.setattr(ctagsched.initial_mapping, "astar_initial_mapping", astar)
    g = random_graph(9, 0.4, 2)
    c = schedule(g, linear(9), SchedulerConfig("ctag-i-iso", beam=2, seed=3))
    assert verify(c, g, linear(9)).ok
    assert calls == [(2, 3)]


def test_text_form_is_never_rendered(monkeypatch):
    # depth and gate count decide the grid instance outright; on K6 the four
    # ctag-h candidates tie on both and their texts differ, so the winner is
    # picked cycle by cycle, and still without a whole to_text render
    real = ctagsched.scheduler.to_text
    rendered = []

    def counting(c):
        rendered.append(c)
        return real(c)

    real_pick = ctagsched.scheduler._pick
    pools = []

    def recording(candidates):
        pools.append(list(candidates))
        return real_pick(candidates)

    monkeypatch.setattr(ctagsched.scheduler, "to_text", counting)
    monkeypatch.setattr(ctagsched.scheduler, "_pick", recording)
    for name in ("sparse-grid3x4", "K6-grid2x3"):
        g, spec, digests = POOL_DIGESTS[name]
        arch = make_architecture(spec)
        c = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
        assert verify(c, g, arch).ok
        blob = to_text(c) + " ".join(map(str, c.init.pi))
        assert hashlib.sha256(blob.encode()).hexdigest() == digests[STRATEGIES.index("ctag-h")]
    assert rendered == []

    key = (c.depth, c.cphase_count + c.swap_count)
    tied = [r for r in pools[-1] if (r.depth, r.cphase_count + r.swap_count) == key]
    assert len(tied) == 4 and len({to_text(r) for r in tied}) == 2
    assert to_text(c) == min(map(to_text, tied))


# gates whose lines collide in the ways the tie-break must get right: one
# site pair under two logical pairs (same line), a line that is a prefix of
# another (SWAP(1,2) and SWAP(1,23)), and the empty cycle's bare "t:"
TIE_GATES = [
    Gate(SWAP, 1, 2),
    Gate(SWAP, 1, 23),
    Gate(SWAP, 12, 3),
    Gate(CPHASE, 1, 2, (0, 1)),
    Gate(CPHASE, 1, 2, (2, 3)),
    Gate(CPHASE, 2, 3, (0, 1)),
]
TIE_CYCLES = st.lists(st.sampled_from(TIE_GATES), max_size=3).map(tuple)


def _relogical(gate):
    # the same sites and kind under the other logical pair: the same line
    if gate.logical is None:
        return gate
    return gate._replace(logical=(2, 3) if gate.logical == (0, 1) else (0, 1))


@st.composite
def candidate_pools(draw, depths):
    """Candidates in pool order, each of a depth drawn from `depths`: fresh
    ones, some made of shared cycle objects, some copying another's first
    cycles (the same objects) and some another's every cycle under other
    logical pairs."""
    shared = draw(st.lists(TIE_CYCLES, min_size=1, max_size=4))
    cycle = st.one_of(st.sampled_from(shared), TIE_CYCLES)
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        how = draw(st.sampled_from(["fresh", "prefix", "relogical"] if pool else ["fresh"]))
        if how == "relogical":
            base = draw(st.sampled_from(pool))
            cycles = tuple(tuple(map(_relogical, cyc)) for cyc in base.cycles)
        else:
            depth = draw(st.sampled_from(depths))
            head = ()
            if how == "prefix":
                head = draw(st.sampled_from(pool)).cycles[: draw(st.integers(0, depth))]
            cycles = head + tuple(draw(cycle) for _ in range(depth - len(head)))
        pool.append(ScheduledCircuit(cycles, identity_mapping(2), linear(24)))
    return pool


def _on_sites(*cycles):
    return ScheduledCircuit(tuple(cycles), identity_mapping(2), linear(24))


SWAP_12, SWAP_1_23 = (Gate(SWAP, 1, 2),), (Gate(SWAP, 1, 23),)
CPHASE_12 = (Gate(CPHASE, 1, 2, (0, 1)),)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5).flatmap(lambda d: candidate_pools([d])))
@example([_on_sites(SWAP_12, SWAP_12), _on_sites(SWAP_12, CPHASE_12)])  # kind only
@example([_on_sites(SWAP_1_23), _on_sites(SWAP_12)])  # a line's prefix
@example([_on_sites(CPHASE_12), _on_sites(tuple(map(_relogical, CPHASE_12)))])
def test_lazy_tie_break_is_the_smallest_text(tied):
    # pairwise in pool order, so among equal texts the first stays
    assert reduce(_first_by_text, tied) is min(tied, key=to_text)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4).flatmap(lambda d: candidate_pools([d, d + 1])))
def test_pick_is_least_depth_gates_then_text(pool):
    key = lambda c: (c.depth, c.cphase_count + c.swap_count, to_text(c))  # noqa: E731
    assert _pick(pool) is min(pool, key=key)


@st.composite
def ctag_h_inputs(draw):
    spec = draw(
        st.one_of(
            st.integers(2, 16).map(lambda q: f"linear:{q}"),
            st.tuples(st.integers(2, 4), st.integers(2, 4)).map(lambda rc: "grid:%dx%d" % rc),
            st.integers(2, 8).map(lambda c: f"grid:2x{c}"),
            st.sampled_from(["ibm20", "ibm27"]),
        )
    )
    arch = make_architecture(spec)
    n = draw(st.integers(2, min(arch.q, 22)))
    density = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.0]))
    seed = draw(st.integers(0, 999))
    # a density that rounds to no edge gives the empty graph
    g = random_graph(n, density, seed) if density * n * (n - 1) >= 1 else make_problem_graph(n, [])
    threshold = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    return g, arch, threshold, draw(st.sampled_from([1, 8])), draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(ctag_h_inputs())
@example((random_graph(40, 0.1, 1120), linear(40), 0.5, 8, 0))
def test_capped_pool_picks_the_uncapped_winner(drawn):
    # every routed run goes to its end in the reference and ties are
    # rendered whole; capping runs and comparing cycles lazily must not
    # change the circuit, down to its logical pairs and pool position
    g, arch, threshold, beam, seed = drawn
    c = schedule(g, arch, SchedulerConfig("ctag-h", threshold, beam, seed))
    assert c == ref_schedule(g, arch, threshold, beam, seed)


def test_capped_routed_runs_stop_early(monkeypatch):
    # route-sparse's linear:40 d=0.1 instance at seed 1: the pattern ends at
    # 62 cycles and the uncapped routed runs at 92 and 101, so both capped
    # runs give up; maximal_matching runs once per heuristic round
    g, arch = random_graph(40, 0.1, 1120), linear(40)
    real = ctagsched.scheduler.maximal_matching
    rounds = []

    def counting(edges, mapping):
        rounds.append(1)
        return real(edges, mapping)

    monkeypatch.setattr(ctagsched.scheduler, "maximal_matching", counting)
    c = schedule(g, arch)
    capped = len(rounds)
    rounds.clear()
    assert c == ref_schedule(g, arch)
    assert c.depth == 62
    assert 0 < capped < len(rounds)


@pytest.mark.parametrize(
    "name, device",
    [
        ("ibm20", "linear:20"),
        ("ibm27", "linear:20"),
        ("grid:4x5", "linear:20"),
        ("grid:2x10", "linear:20"),
        ("linear:20", "grid:4x5"),
        ("ibm20", "grid:4x5"),
    ],
)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_chains_come_from_couplings_not_names(name, device, strategy):
    # a coupling file may carry a built-in device's name; the built-in chain
    # is not coupled on this device, so the chain search must supply one
    arch = Architecture(20, make_architecture(device).couplings, name)
    g = random_graph(20, 0.3, 1)
    c = schedule(g, arch, SchedulerConfig(strategy=strategy))
    assert verify(c, g, arch).ok


@pytest.mark.parametrize(
    "g, arch_spec, routed",
    [
        (clique(12), "linear:12", 0),
        (clique(12), "grid:2x6", 0),
        (random_graph(12, 0.25, 17), "grid:3x4", 4),
    ],
    ids=["K12-linear", "K12-grid2x6", "sparse-grid3x4"],
)
def test_covering_prefix_is_not_routed(monkeypatch, g, arch_spec, routed):
    # on a clique every execution layer is full, so the prefix covers the
    # pattern and the pattern itself is the candidate; the sparse instance
    # routes once per (chain, mapping) pair
    real = ctagsched.scheduler._route
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ctagsched.scheduler, "_route", counting)
    arch = make_architecture(arch_spec)
    c = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
    assert verify(c, g, arch).ok
    assert len(calls) == routed


# sha256 of to_text plus init under every strategy, in STRATEGIES order,
# captured before the line strategies and ctag-h shared one candidate pool;
# None marks a line strategy that finds no chain.  On K6 the four ctag-h
# candidates tie on depth and gates, so their text decides the winner
POOL_DIGESTS = {
    "K6-grid2x3": (clique(6), "grid:2x3", (
        "95534ee810d18315fbdbd99ba6f501629667d98bb83cc433afe6ffd9eade68b9",
        "2468261765093697c7183dc2a477cdc392ecef28cf8384eef48007422fb6c864",
        "f3dc8ee96b5623981af43c1fc9cd6d4aba2bd5f04ab6e332655df0abb1c44d93",
        "f3dc8ee96b5623981af43c1fc9cd6d4aba2bd5f04ab6e332655df0abb1c44d93",
        "f3dc8ee96b5623981af43c1fc9cd6d4aba2bd5f04ab6e332655df0abb1c44d93",
    )),
    "sparse-grid3x4": (random_graph(12, 0.25, 17), "grid:3x4", (
        "732d9d4db5ca2cd5481c5786da1c1661197d07d88270ffafd848018e590ab7a9",
        "cf46a87310ac76264cce18246aee47a1dfa47fad64eafcf4a773fa6e3e3bb358",
        "bcc87a6ca11ce50bd3a88a5b0c635afb9311c46238a43233524d7ce8c7daf597",
        "ed83f30c0dbe779c7d0afb9501f17e6a3ea4bffc183e0825e73f88b7601f070d",
        "3d78541e55d0718557f09fabcb9348ee392c18e6d4157b811721812e7de34d56",
    )),
    "linear10": (random_graph(10, 0.4, 1), "linear:10", (
        "262806dfe2a340ad9925ae346869988ef31b92e2cc2c3226e9216757a73db79b",
        "6ee767dc0f6e68c718484e91ca1b2d0f56bb211a883147f28d55cca31305e371",
        "2e0e679768f8b03700c0052f724ba7375e372eb7f42cde7535f25e803a2a6b3d",
        "059598b6ae18fbd59cc9ea2947799228192768f1950ee3bdc9ac400e1977c624",
        "2e0e679768f8b03700c0052f724ba7375e372eb7f42cde7535f25e803a2a6b3d",
    )),
    "ibm20-n16": (random_graph(16, 0.3, 2), "ibm20", (
        "c1964507967bf3229b600481da3c0b04f93381c70958f35f6aaa389c1d9f1ffb",
        "f5b8658166c7f2d474a2f321eb85b7e175a9b4b0eeaa0ae9d53cfad7a258477b",
        "371888128ec9a41bf855f08bde656aaf32a28220b4501ed6fae4f48e87f3afd1",
        "68ceef5229168961456892d8d85f9da4f5f85427d06c58a6a341bf2bb4c21ee7",
        "6224a6f2ad536700467810d47b909a0d95591783bb28d1056155d10425ebdb61",
    )),
    "ibm27-n20": (random_graph(20, 0.3, 1), "ibm27", (
        "2cf154e3a2b83d8027b64333748654cb60561fd876f8c34859d761ebcfc73538",
        "078e72d8854b44a13fa959e2f4f4df3c84e755a5eb0c820cf0e3fe8cb397ec3a",
        "0b1a2c3f055f9220b47fd7f213a20e98acbdea1a35ed15afbeafbf0479c41f7a",
        "0b1a2c3f055f9220b47fd7f213a20e98acbdea1a35ed15afbeafbf0479c41f7a",
        "0b1a2c3f055f9220b47fd7f213a20e98acbdea1a35ed15afbeafbf0479c41f7a",
    )),
    "ibm27-n24": (random_graph(24, 0.3, 1), "ibm27", (
        None,
        None,
        None,
        None,
        "b7aa771f64e2733984434bc6071b9b02f9136062883c7db49cd1d96d04b69fe1",
    )),
    # captured before the round engine kept per-qubit partner sets: a dense
    # input whose ctag-h winner is routed from a 6-cycle prefix (depth 45,
    # the best pattern 46), so score ties reach the bystander delta
    "dense-grid5x5": (random_graph(25, 0.6, 1), "grid:5x5", (
        "5584e0e7215aa3090eabbfd61a751d9fe53f51f9bf7bcff393fcc461ab437966",
        "ca2bb3506648167700d19c0eac6a6243d4a17c38c515307956bbe7936bf742a6",
        "9a0e587cda97a9f00fb3ba47a306c85ec025ad32526bd5cdeed82e4f07919ba6",
        "9a0e587cda97a9f00fb3ba47a306c85ec025ad32526bd5cdeed82e4f07919ba6",
        "7832903a1771364e3b189a2502bde034c60b6df429ad9e89c72ba93c9485c774",
    )),
}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", list(POOL_DIGESTS))
def test_every_strategy_output_is_pinned(name, strategy):
    g, spec, digests = POOL_DIGESTS[name]
    digest = digests[STRATEGIES.index(strategy)]
    arch = make_architecture(spec)
    cfg = SchedulerConfig(strategy=strategy)
    if digest is None:
        with pytest.raises(ValueError, match=f"no chain of {g.n} coupled sites"):
            schedule(g, arch, cfg)
        return
    c = schedule(g, arch, cfg)
    blob = to_text(c) + " ".join(map(str, c.init.pi))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


BAD_CONFIGS = [
    ({"threshold": 2.0}, "threshold"),
    ({"threshold": -0.1}, "threshold"),
    ({"threshold": float("nan")}, "threshold"),
    ({"beam": 0}, "beam must be at least 1"),
    ({"beam": 2.5}, "beam must be an integer"),
    ({"beam": True}, "beam must be an integer"),
    ({"beam": "8"}, "beam must be an integer"),
]


@pytest.mark.parametrize("bad, message", BAD_CONFIGS, ids=lambda v: str(v))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("arch_spec, n", [("linear:10", 10), ("ibm27", 25)])
def test_bad_config_is_rejected_by_every_strategy(bad, message, strategy, arch_spec, n):
    # ibm27 has no 25-site chain, so ctag-h never reads threshold there and
    # the line strategies would stop at the chain search
    g = random_graph(n, 0.3, 1)
    with pytest.raises(ValueError, match=message):
        schedule(g, make_architecture(arch_spec), SchedulerConfig(strategy=strategy, **bad))


@st.composite
def connected_devices(draw, max_q=14):
    # a random spanning tree plus random extra couplings; n <= q vertices,
    # any edge set, the empty one included
    q = draw(st.integers(2, max_q))
    couplings = set()
    for v in range(1, q):
        u = draw(st.integers(0, v - 1))
        couplings.add((u, v))
    extra = [(a, b) for a in range(q) for b in range(a + 1, q) if (a, b) not in couplings]
    if extra:
        couplings |= set(draw(st.lists(st.sampled_from(extra), unique=True, max_size=q)))
    n = draw(st.integers(1, q))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return make_problem_graph(n, edges), Architecture(q, frozenset(couplings))


@settings(max_examples=150, deadline=None)
@given(connected_devices())
@example((make_problem_graph(1, []), linear(3)))
@example((make_problem_graph(5, []), grid(2, 3)))
def test_schedule_verifies_or_finds_no_chain(drawn):
    g, arch = drawn
    assert_verifies_or_finds_no_chain(g, arch)


def assert_verifies_or_finds_no_chain(g, arch):
    for strategy in STRATEGIES:
        try:
            c = schedule(g, arch, SchedulerConfig(strategy=strategy))
        except ValueError as exc:
            # only a line strategy may stop, and only for want of a chain
            assert strategy != "ctag-h"
            assert str(exc).startswith(f"no chain of {g.n} coupled sites")
            continue
        assert verify(c, g, arch).ok


@settings(max_examples=60, deadline=None)
@given(connected_devices(max_q=11))
@example((make_problem_graph(1, []), linear(2)))
@example((make_problem_graph(4, []), grid(2, 2)))
def test_file_devices_verify_or_find_no_chain(tmp_path_factory, drawn):
    # the same contract on a device read back from a coupling file, as
    # `--arch file:PATH` loads it
    g, device = drawn
    path = tmp_path_factory.mktemp("device") / "coupling.txt"
    pairs = sorted(device.couplings)
    path.write_text(f"{device.q} {len(pairs)}\n" + "".join(f"{a} {b}\n" for a, b in pairs))
    arch = make_architecture(f"file:{path}")
    assert arch.couplings == device.couplings
    assert_verifies_or_finds_no_chain(g, arch)


@st.composite
def chain_inputs(draw):
    # a built-in or random connected device, one of the chains _line_orders
    # gives for n vertices (n shrinks until the device has one), a random
    # graph on n vertices and a random initial mapping
    kind = draw(st.sampled_from(["linear", "grid", "ibm20", "ibm27", "random"]))
    if kind == "linear":
        arch = linear(draw(st.integers(2, 16)))
    elif kind == "grid":
        arch = grid(draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    elif kind == "random":
        _, arch = draw(connected_devices())
    else:
        arch = make_architecture(kind)
    n = draw(st.integers(2, arch.q))
    while not (chains := _line_orders(arch, n, draw(st.integers(0, 3)))):
        n -= 1
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = make_problem_graph(n, draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))))
    init = Mapping(tuple(draw(st.permutations(range(n)))))
    return g, init, arch, draw(st.sampled_from(chains))


@settings(max_examples=200, deadline=None)
@given(chain_inputs())
def test_prune_onto_a_chain_equals_prune_then_relabel(drawn):
    g, init, arch, chain = drawn
    expect = ref_relabel(ref_prune_pattern(g, init, g.n), chain, arch)
    assert prune_pattern(g, init, arch, chain) == expect


@settings(max_examples=100, deadline=None)
@given(connected_devices(), st.integers(1, 6))
def test_shortest_paths_match_the_recursive_walk(drawn, limit):
    _, arch = drawn
    for s in range(arch.q):
        for t in range(arch.q):
            if s != t:
                assert _shortest_paths(arch, s, t, limit) == ref_shortest_paths(arch, s, t, limit)


@pytest.mark.parametrize("spec", ["grid:6x6", "ibm20", "ibm27", "linear:40"])
def test_shortest_paths_match_the_recursive_walk_on_devices(spec):
    arch = make_architecture(spec)
    for s in range(arch.q):
        for t in range(arch.q):
            if arch.dist[s][t] >= 2:
                expect = ref_shortest_paths(arch, s, t, MAX_PATHS)
                assert _shortest_paths(arch, s, t, MAX_PATHS) == expect


def test_shortest_path_longer_than_the_recursion_limit():
    # one stack frame per hop would overflow at about 1,000
    assert _shortest_paths(linear(1500), 0, 1499, MAX_PATHS) == [tuple(range(1500))]


def tracer_scheduler_calls():
    # the benchmark tracer's table of names it rebinds, read from its source;
    # that module imports nothing from ctagsched at load time
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SCHEDULER_CALLS


# a traced name the scheduler no longer calls: schedule() stopped rendering
# candidates whole, so the tracer's to_text counter reads 0 on every workload
KNOWN_DEAD_TRACED = {"to_text"}


def test_every_traced_scheduler_name_is_still_called(monkeypatch):
    # the tracer times a layer by rebinding its name where the scheduler
    # looks it up; a name still bound but no longer called there leaves a
    # per-layer metric that silently reads 0
    calls = Counter()
    names = set()
    for module_name, attr, _, _ in tracer_scheduler_calls():
        module = importlib.import_module(module_name)
        names.add(attr)

        def counting(*args, _real=getattr(module, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)
    # a sparse grid instance that routes, a device chain, and the iso search
    for g, spec, strategy in [
        (random_graph(12, 0.25, 17), "grid:3x4", "ctag-h"),
        (random_graph(16, 0.3, 2), "ibm20", "ctag-h"),
        (random_graph(8, 0.4, 5), "linear:8", "ctag-i-iso"),
    ]:
        arch = make_architecture(spec)
        assert verify(schedule(g, arch, SchedulerConfig(strategy=strategy)), g, arch).ok
    assert {name for name in names if calls[name] == 0} <= KNOWN_DEAD_TRACED
