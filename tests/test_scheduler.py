"""Heuristic scheduler: pattern prefix, matching, routing, and end-to-end runs."""

import gc
import hashlib
import importlib
import importlib.util
from collections import Counter, deque
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctagsched.embedding
import ctagsched.initial_mapping
import ctagsched.scheduler
from ctagsched.graphs import (
    Architecture,
    Mapping,
    _Toward,
    _nogc,
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
    _pattern_key,
    _routed_start,
    generate_2xn_pattern,
    generate_clique_pattern,
    prune_pattern,
    to_json_dict,
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
    _line_orders,
    _route,
    _shortest_paths,
    enumerate_swap_strategies,
    maximal_matching,
    partial_pattern_cycles,
    schedule,
    score_strategy,
)
from ctagsched.verify import verify
from reference_models import (
    ref_prune_pattern,
    ref_relabel,
    ref_routed,
    ref_schedule,
    ref_shortest_paths,
    replay_start,
)

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
        for bad in ("0.5", None, True):
            with pytest.raises(ValueError, match="threshold must be a number"):
                partial_pattern_cycles(clique(4), identity_mapping(4), bad)

    def test_mapping_validation(self):
        from ctagsched.graphs import Mapping

        with pytest.raises(ValueError, match="mapping must place g's vertices onto positions 0..n-1"):
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
    for t, (kind, start, end) in enumerate(_layer_stream(n)):
        pairs = [(p, p + 1) for p in range(start, end, 2)]
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
        # neighbours toward the other are blocked: no strategy can start.
        # The path walk is skipped by _route's first-hop test, not here
        # (test_round_engine_pays_only_for_open_choices holds _route to it)
        arch = grid(3, 3)
        g = make_problem_graph(9, [(0, 8)])
        st = SchedulerState(g, arch, identity_mapping(9), set(g.edges))
        st.blocked.update({1, 5})
        st.blocked.update({3, 7})
        assert enumerate_swap_strategies((0, 8), st) == []
        st.blocked.discard(7)
        assert enumerate_swap_strategies((0, 8), st) != []


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
            got = enumerate_swap_strategies(e, state)
            assert got == ref
            # == holds for any tuple of the same values: each must be the
            # record itself
            for ss in got:
                assert type(ss) is SwapStrategy
            for ss in ref:
                assert _first_hops(ss) == ref_first_hops(ss)
                assert score_strategy(ss, state) == ref_score(ss, state)
                assert _bystander_delta(ss, state) == ref_bystander_delta(ss, state)
            # a second call walks the paths again and gives the same list
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
            inverse = expect.inverse()
            assert state.inv == [inverse.get(s) for s in range(state.arch.q)]


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
        got = ref_routed(g, arch, init, prefix)
        ref = ref_route(g, arch, init, prefix)
        assert got.init == ref.init
        assert to_text(got) == to_text(ref)
        for cyc in got.cycles:
            for x in cyc:
                assert type(x) is Gate and len(x) == 4


def assert_partners_follow_remaining(state):
    adj = [set() for _ in range(state.g.n)]
    for u, v in state.remaining:
        adj[u].add(v)
        adj[v].add(u)
    assert state.partners == adj


def assert_inv_follows_pi(state):
    # inv[s] is the qubit on site s for every one of the device's sites,
    # None where no qubit is
    inv = [None] * state.arch.q
    for x, p in enumerate(state.pi):
        inv[p] = x
    assert state.inv == inv


class TestPartnerSets:
    @settings(max_examples=120, deadline=None)
    @given(route_inputs())
    @example(IBM27_NO_CHAIN)
    def test_partners_are_the_remaining_adjacency_after_every_round(self, drawn):
        # a state started after the prefix checks its partner sets once
        # built and after each round's execute(), the one place they change
        g, arch, init, prefix = drawn
        ran = {x.logical for cyc in prefix for x in cyc if x.kind == CPHASE}
        rounds = []

        class Checked(SchedulerState):
            def execute(self, edges):
                super().execute(edges)
                assert_partners_follow_remaining(self)
                assert_inv_follows_pi(self)
                rounds.append(len(edges))

        state = Checked(g, arch, *replay_start(g, init, prefix))
        assert state.remaining == set(g.edges) - ran
        assert_partners_follow_remaining(state)
        assert_inv_follows_pi(state)
        tail = _route(state)
        assert not any(state.partners)
        assert_inv_follows_pi(state)
        assert len(rounds) == len(tail)
        assert sum(rounds) == len(g.edges) - len(ran)


@pytest.mark.parametrize("pi", [(0, -1, 2), (0, 7, 2), (0, 1)])
def test_state_refuses_an_init_off_the_device(pi):
    # a negative site would fill the last site's slot of inv, a site past
    # the device or a qubit left unplaced would fail inside _route
    g = make_problem_graph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValueError, match=r"^init must place 3 qubits on sites 0\.\.4 of linear:5$"):
        SchedulerState(g, linear(5), Mapping(pi), set(g.edges))


@st.composite
def blocked_route_states(draw):
    # a route_inputs state after its prefix, with a drawn share of the
    # device's sites blocked
    g, arch, init, prefix = draw(route_inputs())
    state = SchedulerState(g, arch, *replay_start(g, init, prefix))
    share, rng = draw(st.floats(0.0, 1.0)), draw(st.randoms(use_true_random=False))
    state.blocked = {p for p in range(arch.q) if rng.random() < share}
    return state


def dead_corners():
    # corners 0 and 8 of a 3x3 grid, each one's neighbours toward the other
    # blocked
    g = make_problem_graph(9, [(0, 8)])
    state = SchedulerState(g, grid(3, 3), identity_mapping(9), set(g.edges))
    state.blocked = {1, 3, 5, 7}
    return state


class TestDeadEdges:
    @settings(max_examples=150, deadline=None)
    @given(blocked_route_states())
    @example(dead_corners())
    def test_an_edge_with_no_free_first_hop_has_no_strategy(self, state):
        # _route enumerates a far edge only if a free endpoint has a free
        # neighbour one hop closer to the other endpoint, and
        # enumerate_swap_strategies makes no such test of its own: on an
        # edge that fails it, every path's first hops are blocked
        dist, adj, blocked = state.arch.dist, state.arch.adj, state.blocked
        for u, v in sorted(state.remaining):
            pu, pv = state.pi[u], state.pi[v]
            if dist[pu][pv] < 2:
                continue
            if not any(
                a not in blocked
                and any(dist[b][x] == dist[b][a] - 1 and x not in blocked for x in adj[a])
                for a, b in ((pu, pv), (pv, pu))
            ):
                assert enumerate_swap_strategies((u, v), state) == []


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
        return ref_routed(g, arch, _bfs_placement(arch, n), ())
    inits = [astar_initial_mapping(g, 8, 0)[0]]
    if inits[0].pi != tuple(range(n)):
        inits.append(identity_mapping(n))
    pool = []
    for order in orders:
        for m0 in inits:
            full = prune_pattern(g, m0, arch, order)
            k = partial_pattern_cycles(g, m0, 0.5)
            routed = k < full.depth
            pool.append(ref_routed(g, arch, full.init, full.cycles[:k]) if routed else full)
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
    # each against the choice it serves: no enumeration for an edge unless
    # a free endpoint has an unblocked neighbour one hop closer to the other
    # endpoint, no score for a lone strategy, no bystander delta unless two
    # or more strategies tie on the lowest score, and no first hops but the
    # chosen strategy's and, where two or more of those ties also tie on
    # the least delta, theirs
    S = ctagsched.scheduler
    real_enumerate, real_score = S.enumerate_swap_strategies, S.score_strategy
    real_delta, real_paths = S._bystander_delta, S._shortest_paths
    real_hops = S._first_hops
    found = {}  # edge -> the strategies its latest enumeration returned
    keyed = {}  # edge -> those its decision may build hop keys for
    calls = Counter()

    def enumerate_(edge, state):
        calls["enumerate"] += 1
        pu, pv = state.pi[edge[0]], state.pi[edge[1]]
        dist, blocked = state.arch.dist, state.blocked
        assert any(
            a not in blocked
            and any(dist[b][x] == dist[b][a] - 1 and x not in blocked for x in state.arch.adj[a])
            for a, b in ((pu, pv), (pv, pu))
        )
        found[edge] = real_enumerate(edge, state)
        if found[edge]:
            # one decision follows: its chosen strategy's first hops, plus
            # a key per strategy tied on the least score and least delta
            scores = [real_score(x, state) for x in found[edge]]
            tied = [x for x, sc in zip(found[edge], scores) if sc == min(scores)]
            deltas = [real_delta(x, state) for x in tied]
            calm = [x for x, d in zip(tied, deltas) if d == min(deltas)]
            keyed[edge] = calm if len(calm) > 1 else calm[:1]
            calls["expected hops"] += 1 + len(calm) * (len(calm) > 1)
            if len(tied) > 1:  # the hop keys the least delta made needless
                calls["spared hops"] += len(tied) - len(calm) * (len(calm) > 1)
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

    def hops(ss):
        calls["hops"] += 1
        assert ss in keyed[ss.edge]
        return real_hops(ss)

    monkeypatch.setattr(S, "enumerate_swap_strategies", enumerate_)
    monkeypatch.setattr(S, "score_strategy", score)
    monkeypatch.setattr(S, "_bystander_delta", delta)
    monkeypatch.setattr(S, "_shortest_paths", paths)
    monkeypatch.setattr(S, "_first_hops", hops)
    g = random_graph(20, 0.3, 5)
    arch = make_architecture("grid:4x5")
    c = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
    assert verify(c, g, arch).ok
    assert 0 < calls["enumerate"] <= 337  # the parent made 337
    assert 0 < calls["score"] <= 436  # the parent made 436
    assert 0 < calls["delta"] <= 198  # the parent made 198
    # one path walk per enumeration, so none for a dead edge (the parent,
    # which kept a memo per run, made 275)
    assert calls["paths"] == calls["enumerate"]
    assert calls["hops"] == calls["expected hops"]
    assert calls["spared hops"] > 0  # the least delta narrows some ties


def test_round_without_progress_raises(monkeypatch):
    # ibm27 has no 24-site chain, so ctag-h routes breadth-first with no
    # cap; once the adjacent edges have run, a round whose far edges all
    # find no strategy adds nothing, and would add nothing forever
    monkeypatch.setattr(ctagsched.scheduler, "enumerate_swap_strategies", lambda e, st: [])
    g = random_graph(24, 0.2, 1)
    with pytest.raises(RuntimeError, match="round made no progress"):
        schedule(g, make_architecture("ibm27"), SchedulerConfig(strategy="ctag-h"))


@pytest.mark.parametrize(
    "g, spec",
    [
        (random_graph(12, 0.25, 17), "grid:3x4"),
        (random_graph(16, 0.8, 1), "grid:4x4"),
        (clique(10), "linear:10"),
        (clique(10), "grid:2x5"),
    ],
    ids=["sparse-grid3x4", "dense-grid4x4", "clique-linear10", "clique-grid2x5"],
)
def test_ctag_h_builds_only_the_circuit_it_returns(monkeypatch, g, spec):
    # two initial mappings: ctag-h prunes no pattern whole and measures the
    # prefix once per mapping; it starts one pattern generator, the
    # winner's, and reads it only for the cycles the winner keeps of it
    # (none on the sparse grid, where a run routed from cycle 0 wins)
    arch = make_architecture(spec)
    S = ctagsched.scheduler
    real_cycles, real_prefix = S._pattern_cycles, S.partial_pattern_cycles
    started, measured, drawn = [], [], Counter()

    def counted(pair, gen):
        for cyc in gen:
            drawn[pair] += 1
            yield cyc

    def cycles(g, init, arch, chain):
        pair = (tuple(chain), init.pi)
        started.append(pair)
        return counted(pair, real_cycles(g, init, arch, chain))

    def prune(*args):
        raise AssertionError("ctag-h pruned a pattern whole")

    def prefix(g, mapping, threshold):
        measured.append(mapping.pi)
        return real_prefix(g, mapping, threshold)

    monkeypatch.setattr(S, "_pattern_cycles", cycles)
    monkeypatch.setattr(S, "prune_pattern", prune)
    monkeypatch.setattr(S, "partial_pattern_cycles", prefix)
    c = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
    assert verify(c, g, arch).ok
    assert len(measured) == len(set(measured)) == 2
    [(chain, pi)] = started
    assert pi in measured and c.init.pi == tuple(chain[p] for p in pi)
    k = drawn[chain, pi]
    assert k <= c.depth
    assert c.cycles[:k] == tuple(real_cycles(g, Mapping(pi), arch, chain))[:k]


@pytest.mark.parametrize("spec", ["linear:20", "linear:24", "grid:4x5", "ibm20"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_only_ctag_h_searches_past_a_builtin_chain(monkeypatch, spec, strategy):
    # a line strategy lays the device's own chain and searches for no other;
    # ctag-h searches for CHAINS chains to add to it, unless the device is
    # one path of n sites, whose only other chain is its own reverse
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
    assert calls == ([CHAINS] if strategy == "ctag-h" and spec != "linear:20" else [])


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
    assert _line_orders(arch, 12, 0, 1) == tuple(real(arch, CHAINS, seed=0, length=12)[:1])


@pytest.mark.parametrize("name", ["grid:3by4", "grid:3x4x1"])
def test_a_grid_name_no_spec_parses_has_no_built_in_chain(monkeypatch, name):
    # a coupling file may carry any name: one that starts "grid:" but is no
    # grid spec lays no Hilbert chain, so the chain search runs
    real = ctagsched.scheduler.multi_embeddings
    arch = Architecture(12, grid(3, 4).couplings, name)
    calls = []

    def search(arch, k, **kwargs):
        calls.append(k)
        return real(arch, k, **kwargs)

    monkeypatch.setattr(ctagsched.scheduler, "multi_embeddings", search)
    chains = _line_orders(arch, 12, 0, 1)
    assert calls == [1]
    assert chains == tuple(real(arch, 1, seed=0, length=12)) and arch.is_chain(chains[0])


@pytest.mark.parametrize("name", ["grid:1500x1500", "grid:3x3", "grid:1x5"])
def test_a_grid_name_of_another_size_builds_no_curve(monkeypatch, name):
    # a name whose R x C is not the device's site count names no built-in
    # chain: no Hilbert curve is built for it, and the device schedules as
    # one with a name of no meaning does
    def curve(*shape):
        raise AssertionError(f"hilbert_embedding{shape} called")

    monkeypatch.setattr(ctagsched.scheduler, "hilbert_embedding", curve)
    couplings = grid(2, 3).couplings
    arch, custom = Architecture(6, couplings, name), Architecture(6, couplings, "custom")
    g = random_graph(6, 0.5, 1)
    assert _line_orders(arch, 6, 0) == _line_orders(custom, 6, 0)
    c, ref = schedule(g, arch), schedule(g, custom)
    assert (c.cycles, c.init) == (ref.cycles, ref.init)


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
    # depth and gate count decide the grid instance outright; on K6 the
    # ctag-h candidates tie on both and their texts differ, and the first in
    # the pool, astar's pattern on the first chain, wins without a render
    real = ctagsched.scheduler.to_text
    rendered = []

    def counting(c):
        rendered.append(c)
        return real(c)

    monkeypatch.setattr(ctagsched.scheduler, "to_text", counting)
    for name in ("sparse-grid3x4", "K6-grid2x3"):
        g, spec, digests = POOL_DIGESTS[name]
        arch = make_architecture(spec)
        c = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
        assert verify(c, g, arch).ok
        blob = to_text(c) + " ".join(map(str, c.init.pi))
        assert hashlib.sha256(blob.encode()).hexdigest() == digests[STRATEGIES.index("ctag-h")]
    assert rendered == []
    assert c == schedule(g, arch, SchedulerConfig(strategy="ctag-i-astar"))


def test_a_routed_run_wins_a_tie_with_its_own_pattern():
    # astar's pattern on this graph keeps 197 of its 198 cycles as ctag-h's
    # prefix, and its routed run ties with it, and with the natural
    # mapping's pattern, on (198, 9306); the run stands first in the pool,
    # so it wins, and its last cycle differs from its pattern's
    g, arch = random_graph(100, 0.9, 5090), linear(100)
    m0 = astar_initial_mapping(g)[0]
    own = prune_pattern(g, m0, arch, range(100))
    assert partial_pattern_cycles(g, m0, 0.5) == 197
    assert _pattern_key(g, m0) == _pattern_key(g, identity_mapping(100)) == (198, 9306)
    c = schedule(g, arch)
    assert c == ref_routed(g, arch, own.init, own.cycles[:197])
    assert (c.depth, c.cphase_count + c.swap_count) == (198, 9306)
    assert c.cycles[:197] == own.cycles[:197] and c.cycles != own.cycles
    assert verify(c, g, arch).ok


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
    density = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.8, 0.9, 1.0]))
    seed = draw(st.integers(0, 999))
    # a density that rounds to no edge gives the empty graph
    g = random_graph(n, density, seed) if density * n * (n - 1) >= 1 else make_problem_graph(n, [])
    threshold = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    return g, arch, threshold, draw(st.sampled_from([1, 8])), draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(ctag_h_inputs())
@example((random_graph(40, 0.1, 1120), linear(40), 0.5, 8, 0))
# dense ties: six candidates at (22, 108), two of them routed from k = 21,
# and the first, a routed run, wins; eight at one key on the 4x4 grid, four
# routed
@example((random_graph(12, 0.8, 2), make_architecture("grid:3x4"), 0.5, 8, 0))
@example((random_graph(16, 0.8, 1), make_architecture("grid:4x4"), 0.5, 8, 0))
# complete graphs: the natural mapping's pattern lays astar's text, and
# under threshold 1 the odd layers miss the bar, so both mappings route
@example((clique(10), linear(10), 0.5, 8, 0))
@example((clique(10), make_architecture("grid:2x5"), 0.5, 8, 0))
@example((clique(10), make_architecture("grid:2x5"), 1.0, 8, 0))
@example((clique(8), make_architecture("grid:3x3"), 1.0, 1, 2))
def test_capped_pool_picks_the_uncapped_winner(drawn):
    # the reference builds every candidate whole, replays each routed start
    # and runs it to its end; keys from the meet table and capped runs from
    # the pattern's state must not change the circuit, down to its logical
    # pairs and pool position
    g, arch, threshold, beam, seed = drawn
    c = schedule(g, arch, SchedulerConfig("ctag-h", threshold, beam, seed))
    assert c == ref_schedule(g, arch, threshold, beam, seed)


@settings(max_examples=500, deadline=None)
@given(ctag_h_inputs())
@example((random_graph(12, 0.8, 2), make_architecture("grid:3x4"), 0.5, 8, 0))
@example((random_graph(24, 0.2, 1), make_architecture("ibm27"), 0.5, 8, 0))  # no chain
def test_ctag_h_never_picks_worse_than_the_line_strategies_it_contains(drawn):
    # ctag-h's first chain is the one a line strategy lays its pattern on,
    # and its pool holds the astar and natural mappings' patterns on it, so
    # its pick is at most ctag-i-astar's and pattern-only's under the same
    # threshold, beam and seed wherever those find a chain
    g, arch, threshold, beam, seed = drawn
    key = lambda c: (c.depth, c.cphase_count + c.swap_count)  # noqa: E731
    chains = _line_orders(arch, g.n, seed, 1)
    if chains:
        assert chains[0] == _line_orders(arch, g.n, seed, CHAINS)[0]
    picked = key(schedule(g, arch, SchedulerConfig("ctag-h", threshold, beam, seed)))
    for strategy in ("ctag-i-astar", "pattern-only"):
        cfg = SchedulerConfig(strategy, threshold, beam, seed)
        if not chains:
            with pytest.raises(ValueError, match="^no chain of "):
                schedule(g, arch, cfg)
            continue
        assert picked <= key(schedule(g, arch, cfg)), strategy


@settings(max_examples=200, deadline=None)
@given(ctag_h_inputs())
@example((random_graph(12, 0.8, 2), make_architecture("grid:3x4"), 0.5, 8, 0))
@example((random_graph(40, 0.1, 1120), linear(40), 0.5, 8, 0))
def test_a_candidate_added_at_the_end_wins_only_when_strictly_better(drawn):
    # a third chain adds its candidates after the first two chains', which
    # the chain search finds in order; the first of least (depth, gates)
    # then moves only to a candidate strictly below the old winner
    g, arch, threshold, beam, seed = drawn
    cfg = SchedulerConfig("ctag-h", threshold, beam, seed)
    two = schedule(g, arch, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ctagsched.scheduler, "CHAINS", CHAINS + 1)
        assert _line_orders(arch, g.n, seed, CHAINS + 1)[:CHAINS] == _line_orders(
            arch, g.n, seed, CHAINS
        )
        three = schedule(g, arch, cfg)
    assert verify(three, g, arch).ok
    key = lambda c: (c.depth, c.cphase_count + c.swap_count)  # noqa: E731
    assert three == two or key(three) < key(two)


@pytest.mark.parametrize(
    "n, spec",
    [(100, "grid:2x50"), (20, "ibm20"), (10, "linear:10"), (12, "grid:3x4"), (16, "grid:4x4")],
)
def test_ctag_h_lays_ctag_i_astar_circuit_on_a_complete_graph(n, spec):
    # every relabelling of a complete graph lays the same pattern key and
    # every layer clears the prefix bar, so no candidate routes and all tie:
    # the first in the pool, astar's pattern on the first chain, wins
    g, arch = clique(n), make_architecture(spec)
    c = schedule(g, arch)
    astar = schedule(g, arch, SchedulerConfig(strategy="ctag-i-astar"))
    assert c == astar and to_text(c) == to_text(astar)


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
    ({"threshold": "0.5"}, "threshold must be a number"),
    ({"threshold": None}, "threshold must be a number"),
    ({"threshold": True}, "threshold must be a number"),
    ({"threshold": 1j}, "threshold must be a number"),
    ({"beam": 0}, "beam must be at least 1"),
    ({"beam": 2.5}, "beam must be an integer"),
    ({"beam": True}, "beam must be an integer"),
    ({"beam": "8"}, "beam must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": "1"}, "seed must be an integer"),
    ({"seed": None}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
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


def ref_all_pairs(arch):
    # Floyd-Warshall over the couplings: the hop distances that
    # Architecture.dist builds from one breadth-first walk per row read
    inf = arch.q
    d = [[0 if a == b else inf for b in range(arch.q)] for a in range(arch.q)]
    for a, b in arch.couplings:
        d[a][b] = d[b][a] = 1
    for k in range(arch.q):
        for a in range(arch.q):
            for b in range(arch.q):
                if d[a][k] + d[k][b] < d[a][b]:
                    d[a][b] = d[a][k] + d[k][b]
    return d


def ref_bfs_order(arch):
    # a queue breadth-first search from site 0 over sorted neighbours
    nbrs = {v: [] for v in range(arch.q)}
    for a, b in arch.couplings:
        nbrs[a].append(b)
        nbrs[b].append(a)
    order, seen, queue = [], {0}, deque([0])
    while queue:
        x = queue.popleft()
        order.append(x)
        for y in sorted(nbrs[x]):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return order


@settings(max_examples=100, deadline=None)
@given(connected_devices())
@example((None, linear(1)))
@example((None, make_architecture("linear:40")))
@example((None, make_architecture("grid:6x6")))
@example((None, make_architecture("grid:2x15")))
@example((None, make_architecture("ibm20")))
@example((None, make_architecture("ibm27")))
def test_one_walk_gives_connectivity_distances_and_placement(drawn):
    _, arch = drawn
    # each row is built when it is read: a read row is a tuple, and every
    # row equals Floyd-Warshall's
    assert type(arch.dist) is list and len(arch.dist) == arch.q
    for s, expect in enumerate(ref_all_pairs(arch)):
        assert arch.dist[s][s] == 0  # the first read builds row s
        assert type(arch.dist[s]) is tuple and list(arch.dist[s]) == expect
    assert _bfs_placement(arch, arch.q).pi == tuple(ref_bfs_order(arch))
    # cutting every coupling of one site leaves it unreachable from site 0,
    # or site 0 unable to reach the rest
    for v in range(arch.q if arch.q > 1 else 0):
        with pytest.raises(ValueError, match="is not connected"):
            Architecture(arch.q, frozenset(c for c in arch.couplings if v not in c))


def built_rows(arch):
    # the sites whose row of arch.dist has been read, so built
    return {s for s, row in enumerate(arch.dist) if type(row) is tuple}


def test_a_distance_read_builds_its_row_and_no_other():
    arch = make_architecture("grid:6x6")
    assert built_rows(arch) == set()
    kept = arch.dist[7]  # a stand-in, read after its row is built
    assert arch.dist[7][35] == 8 and built_rows(arch) == {7}
    assert [kept[t] for t in range(36)] == ref_all_pairs(arch)[7]
    assert arch.row(7) is arch.dist[7] and built_rows(arch) == {7}
    assert arch.row(20) == tuple(ref_all_pairs(arch)[20]) and built_rows(arch) == {7, 20}
    assert arch.row(20) is arch.dist[20]


@pytest.mark.parametrize("strategy", ["pattern-only", "ctag-i-astar"])
def test_line_strategies_build_no_distance_row(strategy):
    g, arch = random_graph(200, 0.3, 1), linear(200)
    c = schedule(g, arch, SchedulerConfig(strategy=strategy))
    assert verify(c, g, arch).ok and built_rows(arch) == set()


@settings(max_examples=100, deadline=None)
@given(connected_devices(), st.data())
def test_distance_rows_read_in_any_order_equal_floyd_warshall(drawn, data):
    _, arch = drawn
    ref = ref_all_pairs(arch)
    site = st.integers(0, arch.q - 1)
    reads = data.draw(st.lists(st.tuples(site, site), max_size=3 * arch.q))
    for s, t in reads:
        assert arch.dist[s][t] == ref[s][t]
    assert built_rows(arch) == {s for s, _ in reads}
    for s in range(arch.q):
        assert list(arch.row(s)) == ref[s]


# sha256 of to_text and depth of ctag-h on random_graph(12, 0.5, 1) over
# 4096-site devices, captured while Architecture.dist still built all q
# rows on its first read
LARGE_DEVICE_DIGESTS = [
    ("linear:4096", 18, "26fa388f917cc00ae40ac82931c8ce0a9afa46bcddfdf1a343fa55e5dce6d0be"),
    ("grid:64x64", 17, "5f434bf4de89ff87ad7c36287f34c9ad606def7d103b0c4f381ee7f4cbece08e"),
]


@pytest.mark.parametrize("spec,depth,digest", LARGE_DEVICE_DIGESTS, ids=["linear", "grid"])
def test_large_device_reads_few_distance_rows(spec, depth, digest):
    g, arch = random_graph(12, 0.5, 1), make_architecture(spec)
    c = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
    assert verify(c, g, arch).ok and c.depth == depth
    assert hashlib.sha256(to_text(c).encode()).hexdigest() == digest
    assert len(built_rows(arch)) < 100


def fresh_copy(arch):
    # an equal device that shares none of what arch has kept
    return Architecture(arch.q, arch.couplings, arch.name)


def schedule_or_error(g, arch, cfg):
    try:
        return to_json_dict(schedule(g, arch, cfg))
    except ValueError as exc:  # a line strategy on a device with no chain
        return str(exc)


@st.composite
def shared_device_sweeps(draw):
    # a device and a sweep of (graph, config) pairs over two sizes, all five
    # strategies and seeds 0 and 3: a random connected device, ibm27 at
    # n = 22-25 (it has no chain that long), or ibm20's couplings under a
    # name with no built-in chain
    kind = draw(st.sampled_from(["random", "ibm27", "ibm20-copy"]))
    if kind == "random":
        _, arch = draw(connected_devices())
        size = st.integers(2, arch.q)
    elif kind == "ibm27":
        arch, size = make_architecture("ibm27"), st.integers(22, 25)
    else:
        arch = Architecture(20, make_architecture("ibm20").couplings, "ibm20-copy")
        size = st.integers(2, 20)
    sizes = (draw(size), draw(size))
    runs = draw(st.lists(st.tuples(
        st.sampled_from(sizes), st.integers(0, 99), st.sampled_from(STRATEGIES),
        st.sampled_from([0, 3]),
    ), min_size=1, max_size=6))
    sweep = [
        (random_graph(n, 0.3 if n >= 4 else 1.0, gseed), SchedulerConfig(strategy, seed=seed))
        for n, gseed, strategy, seed in runs
    ]
    return arch, sweep


@settings(max_examples=40, deadline=None)
@given(shared_device_sweeps())
def test_reusing_a_device_never_changes_a_result(drawn):
    # what a device keeps (chains and closer-hop rows) is read back only
    # for the (n, seed, count) it was found for
    arch, sweep = drawn
    for g, cfg in sweep:
        assert schedule_or_error(g, arch, cfg) == schedule_or_error(g, fresh_copy(arch), cfg)


def count_chain_searches(monkeypatch):
    # calls per name to the three chain sources the scheduler reads through
    # its module globals
    calls = Counter()
    for name in ("multi_embeddings", "device_embedding", "hilbert_embedding"):
        real = getattr(ctagsched.scheduler, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(ctagsched.scheduler, name, counted)
    return calls


def test_a_device_searches_for_its_chains_once(monkeypatch):
    calls = count_chain_searches(monkeypatch)
    arch = make_architecture("ibm20")
    for gseed in (1, 2, 3):
        g = random_graph(20, 0.3, gseed)
        assert verify(schedule(g, arch), g, arch).ok
    assert calls == {"device_embedding": 1, "multi_embeddings": 1}
    # a new seed or a new n is a new key, so it searches again
    schedule(random_graph(20, 0.3, 4), arch, SchedulerConfig(seed=5))
    schedule(random_graph(16, 0.3, 4), arch)
    assert calls == {"device_embedding": 3, "multi_embeddings": 3}
    assert sorted(arch.chains) == [(16, 0, CHAINS), (20, 0, CHAINS), (20, 5, CHAINS)]
    # what a device keeps is the instance's: an equal device searches again
    other = make_architecture("ibm20")
    assert other == arch
    schedule(random_graph(20, 0.3, 1), other)
    assert calls == {"device_embedding": 4, "multi_embeddings": 4}


def test_a_device_with_no_chain_exhausts_its_search_once(monkeypatch):
    # ibm27 has no 25-site chain: the search that proves it runs on the
    # first compile only, and every compile routes from the breadth-first
    # placement
    calls = count_chain_searches(monkeypatch)
    arch = make_architecture("ibm27")
    for gseed in (1, 2, 3):
        g = random_graph(25, 0.3, gseed)
        c = schedule(g, arch)
        assert verify(c, g, arch).ok and c.init == _bfs_placement(arch, 25)
    assert calls == {"device_embedding": 1, "multi_embeddings": 1}
    assert arch.chains == {(25, 0, CHAINS): ()}


def test_a_device_builds_each_closer_hop_row_once(monkeypatch):
    built = []
    real = _Toward.__missing__

    def missing(self, t):
        built.append((id(self), t))
        return real(self, t)

    monkeypatch.setattr(_Toward, "__missing__", missing)
    arch = make_architecture("grid:5x5")
    for seed in (0, 1, 2):
        for gseed in (1, 2):
            g = random_graph(25, 0.3, gseed)
            assert verify(schedule(g, arch, SchedulerConfig(seed=seed)), g, arch).ok
    assert built and len(set(built)) == len(built)
    assert {table for table, _ in built} == {id(arch.toward)}
    assert len(arch.chains) == 3
    assert len(arch.toward) <= arch.q and len(built_rows(arch)) <= arch.q


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


@settings(max_examples=200, deadline=None)
@given(chain_inputs(), st.data())
def test_meet_table_key_and_routed_start_equal_the_built_pattern(drawn, data):
    # ctag-h keys a pattern and starts a routed run without building it; the
    # built pattern and a replay of its first k cycles must agree
    g, init, arch, chain = drawn
    full = prune_pattern(g, init, arch, chain)
    assert _pattern_key(g, init) == (full.depth, full.cphase_count + full.swap_count)
    k = data.draw(st.integers(0, full.depth))
    ran = sum(map(len, full.cycles[:k]))
    assert _routed_start(g, init, chain, k) == (*replay_start(g, full.init, full.cycles[:k]), ran)


def assert_closer_hop_table(arch, order):
    # rows read lazily in `order` equal rows built eagerly in site order,
    # each one arch.adj[s] filtered to the sites one hop closer to t, and
    # equal closer sets are one interned tuple
    lazy, eager = _Toward(arch), _Toward(arch)
    for t in range(arch.q):
        eager[t]
    dist = arch.dist
    for t in order:
        row = lazy[t]
        assert row == eager[t]
        assert row == tuple(
            tuple(x for x in arch.adj[s] if dist[t][x] == dist[t][s] - 1) for s in range(arch.q)
        )
    assert len(lazy) == len(set(order))
    interned = {}
    for row in lazy.values():
        for hops in row:
            assert interned.setdefault(hops, hops) is hops


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closer_hop_rows_equal_the_filtered_adjacency(data):
    _, arch = data.draw(connected_devices())
    order = data.draw(st.lists(st.integers(0, arch.q - 1), max_size=2 * arch.q))
    assert_closer_hop_table(arch, order)


@pytest.mark.parametrize("spec", ["grid:6x6", "ibm20", "ibm27", "linear:40"])
def test_closer_hop_rows_equal_the_filtered_adjacency_on_devices(spec):
    arch = make_architecture(spec)
    assert_closer_hop_table(arch, list(range(arch.q - 1, -1, -1)))


@settings(max_examples=100, deadline=None)
@given(connected_devices(), st.integers(1, 6))
# the corner-to-corner pair 0 -> 15 of grid(4, 4) has 20 shortest paths;
# its second to seventh leave the one before at sites 2, 6, 10, 1, 6 and
# 10, one to four hops from the start.  ibm27's two shortest paths from 10
# to 26 share their first hop and fork at site 12 (49 of its ordered pairs
# fork after the first hop)
@example((make_problem_graph(1, []), grid(4, 4)), 1)
@example((make_problem_graph(1, []), grid(4, 4)), 4)
@example((make_problem_graph(1, []), grid(4, 4)), 7)
@example((make_problem_graph(1, []), make_architecture("ibm27")), 2)
def test_shortest_paths_match_the_recursive_walk(drawn, limit):
    _, arch = drawn
    toward = _Toward(arch)
    for s in range(arch.q):
        for t in range(arch.q):
            if s != t:
                got = _shortest_paths(toward[t], s, t, limit)
                assert got == ref_shortest_paths(arch, s, t, limit)


@pytest.mark.parametrize("spec", ["grid:6x6", "ibm20", "ibm27", "linear:40"])
def test_shortest_paths_match_the_recursive_walk_on_devices(spec):
    arch = make_architecture(spec)
    toward = _Toward(arch)
    for s in range(arch.q):
        for t in range(arch.q):
            if arch.dist[s][t] >= 2:
                expect = ref_shortest_paths(arch, s, t, MAX_PATHS)
                assert _shortest_paths(toward[t], s, t, MAX_PATHS) == expect


def test_shortest_path_longer_than_the_recursion_limit():
    # one stack frame per hop would overflow at about 1,000
    row = _Toward(linear(1500))[1499]
    assert _shortest_paths(row, 0, 1499, MAX_PATHS) == [tuple(range(1500))]


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


def count_collections(call):
    # collections per generation, young to full, while call() runs
    counts = [0, 0, 0]

    def hook(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    gc.callbacks.append(hook)
    try:
        call()
    finally:
        gc.callbacks.remove(hook)
    return counts


@contextmanager
def collector_restored():
    # the body sets the collector as it likes; its state is put back after
    was = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture
def collector():
    with collector_restored():
        yield


def test_circuit_calls_run_no_collection(collector):
    # the three calls that return a whole circuit each build tens of
    # thousands of gates; unpaused, each ran more than 50 young and 5 middle
    # collections.  The graph and the device are built first, and the list
    # shows that the hook counts.
    gc.enable()
    g, arch = clique(200), linear(200)
    assert count_collections(lambda: [[] for _ in range(10_000)])[0] > 0
    calls = [
        lambda: schedule(g, arch, SchedulerConfig("ctag-i-astar")),
        lambda: generate_clique_pattern(200),
        lambda: generate_2xn_pattern(200),
    ]
    assert [count_collections(call) for call in calls] == [[0, 0, 0]] * 3


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_circuit_calls_restore_the_collector(collector, enabled):
    g, arch = random_graph(12, 0.5, 1), make_architecture("grid:3x4")
    for call in (
        lambda: schedule(g, arch),
        lambda: prune_pattern(g, identity_mapping(12), linear(12), range(12)),
        lambda: generate_clique_pattern(12),
        lambda: generate_2xn_pattern(12),
    ):
        (gc.enable if enabled else gc.disable)()
        call()
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize(
    "n, spec, cfg, match",
    [
        (12, "linear:12", SchedulerConfig("ctag-x"), "unknown strategy"),
        (12, "linear:12", SchedulerConfig(threshold=1.5), "threshold"),
        (12, "linear:8", SchedulerConfig(), "has 8 qubits"),
        (24, "ibm27", SchedulerConfig("pattern-only"), "no chain"),
    ],
    ids=["strategy", "threshold", "small-device", "no-chain"],
)
def test_a_raising_schedule_restores_the_collector(collector, enabled, n, spec, cfg, match):
    g, arch = random_graph(n, 0.3, 1), make_architecture(spec)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(ValueError, match=match):
        schedule(g, arch, cfg)
    assert gc.isenabled() is enabled


def test_a_nested_pause_leaves_the_collector_off_until_the_outer_call_ends(collector):
    gc.enable()
    inside = []

    @_nogc
    def outer():
        generate_2xn_pattern(8)
        inside.append(gc.isenabled())
        schedule(make_problem_graph(3, [(0, 1)]), linear(2))  # raises: 2 sites

    with pytest.raises(ValueError, match="has 2 qubits"):
        outer()
    assert inside == [False] and gc.isenabled()


@settings(max_examples=30, deadline=None)
@given(ctag_h_inputs(), st.sampled_from(STRATEGIES), st.none())
# ibm27 has no 24-site chain: ctag-h routes from the breadth-first
# placement, and a line strategy raises
@example((random_graph(24, 0.2, 1), make_architecture("ibm27"), 0.5, 8, 0), "ctag-h", None)
@example((random_graph(24, 0.2, 1), make_architecture("ibm27"), 0.5, 8, 0), "ctag-i-iso", None)
# a chain search of 22 sites on ibm27 that exhausts a budget of 20 node
# expansions, so no chain is found and ctag-h routes
@example((random_graph(22, 0.3, 1), make_architecture("ibm27"), 0.5, 8, 0), "ctag-h", 20)
def test_a_compile_leaves_no_cyclic_garbage(drawn, strategy, budget):
    # what keeps the collector's pause safe: a compile creates no reference
    # cycles, so nothing is left for the collector to free after it
    g, arch, threshold, beam, seed = drawn
    cfg = SchedulerConfig(strategy, threshold, beam, seed)
    arch = fresh_copy(arch)  # searches for its chains under this budget
    with collector_restored(), pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            search = partial(ctagsched.embedding.find_line_embedding, budget=budget)
            mp.setattr(ctagsched.embedding, "find_line_embedding", search)
        gc.collect()
        gc.disable()
        error = None
        try:
            schedule(g, arch, cfg)
        except ValueError as exc:
            error = str(exc)
        found = gc.collect()
    assert found == 0
    assert error is None or (strategy != "ctag-h" and error.startswith("no chain"))

