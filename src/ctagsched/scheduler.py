"""Pattern-adapting heuristic scheduler for arbitrary coupling graphs.

Every strategy lays the CTAG line pattern, pruned to the input graph, on a
chain of g.n coupled sites under its own initial mappings:

  pattern-only   the natural mapping
  ctag-r         a seeded random mapping
  ctag-i-astar   the beam-searched mapping
  ctag-i-iso     the beam-searched mapping refined by an exact
                 node-budgeted search over the meet table
  ctag-h         the beam-searched mapping, then the natural one if it differs

A chain is a tuple of sites.  A line strategy lays its one mapping on one
chain.  ctag-h takes up to CHAINS chains; each (chain, mapping) pair gives
the pattern and, ahead of it unless its first cycles run every edge, a
routed candidate that runs those cycles and schedules the rest in
matching/swap-routing rounds.  Candidates are compared by keys (a
pattern's depth and gates come from the meet table, and a routed run stops
once deeper than the best so far); the winner is the first of least (depth,
gates) in pool order, and only it is built.  With no chain, a line strategy
raises ValueError and ctag-h routes from a breadth-first placement.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from operator import itemgetter
from typing import NamedTuple

from ctagsched.embedding import (
    canonical,
    device_embedding,
    hilbert_embedding,
    multi_embeddings,
)
from ctagsched.graphs import (
    Architecture,
    Edge,
    Mapping,
    ProblemGraph,
    _bfs,
    _check_int,
    _nogc,
    _spec_ints,
    identity_mapping,
    random_initial_mapping,
)
from ctagsched.initial_mapping import astar_initial_mapping, iso_initial_mapping
from ctagsched.pattern import (
    CPHASE,
    SWAP,
    Gate,
    ScheduledCircuit,
    _check_positions,
    _layer_stream,
    _meet_counts,
    _pattern_cycles,
    _pattern_key,
    _routed_start,
    prune_pattern,
    to_text,  # not called here; the benchmark's tracer rebinds this name
)

__all__ = [
    "STRATEGIES",
    "SchedulerConfig",
    "SchedulerState",
    "SwapStrategy",
    "enumerate_swap_strategies",
    "maximal_matching",
    "partial_pattern_cycles",
    "schedule",
    "score_strategy",
]

STRATEGIES = ("pattern-only", "ctag-r", "ctag-i-astar", "ctag-i-iso", "ctag-h")

# shortest paths the round engine tries per distant edge
MAX_PATHS = 4

# chains the pattern is laid on: ctag-h tries each, a line strategy the first
CHAINS = 2


class SchedulerConfig(NamedTuple):
    """Knobs for schedule(): strategy names the initial mappings and whether
    to route, threshold sets ctag-h's pattern prefix, beam and seed the
    mapping search (seed also ctag-r's mapping and the chain search).

    The field defaults are the CLI's defaults too.
    """

    strategy: str = "ctag-h"
    threshold: float = 0.5
    beam: int = 8
    seed: int = 0


def _check_threshold(threshold) -> None:
    # a threshold is a plain int or float in [0, 1]: a str, None or a complex
    # would otherwise fail at the range check with a TypeError, and True
    # would pass for 1.0
    if type(threshold) not in (int, float):
        raise ValueError(f"threshold must be a number, got {threshold!r}")
    if not 0.0 <= threshold <= 1.0:  # NaN fails too
        raise ValueError(f"threshold {threshold} not in [0, 1]")


class SchedulerState:
    """Mutable context threaded through the heuristic rounds.

    Built from the starting Mapping `init`, which must place g's n qubits
    on sites of arch (else ValueError), and the edges still to run.
    pi[logical] is the site each qubit is on now, and inv is a list of
    arch.q slots: inv[s] is the qubit on site s, or None.  _apply_swaps
    moves both in place.  partners[x] holds the qubits x still shares a
    remaining edge with, built from `remaining` once, so it costs
    O(q + n + len(remaining)); execute() is the one place an edge runs
    and drops it from `remaining` and both partner sets, so a walk over
    partners[x] costs x's remaining degree, which shrinks over the run.
    blocked holds the sites the current cycle's SWAPs may not touch: those
    of the executable edges, of the SWAPs already chosen and of the
    endpoints parked this round; _route refills it every round.  The
    closer-hop table is the device's own, arch.toward, which every run on
    arch shares.
    """

    def __init__(self, g: ProblemGraph, arch: Architecture, init: Mapping, remaining: set[Edge]):
        self.g = g
        self.arch = arch
        self.remaining = remaining
        self.blocked: set[int] = set()
        if init.n != g.n or not all(0 <= p < arch.q for p in init.pi):
            raise ValueError(f"init must place {g.n} qubits on sites 0..{arch.q - 1} of {arch.name}")
        self.pi = pi = list(init.pi)
        self.inv = inv = [None] * arch.q
        for l, p in enumerate(pi):
            inv[p] = l
        self.partners = partners = [set() for _ in range(g.n)]
        for u, v in remaining:
            partners[u].add(v)
            partners[v].add(u)

    def execute(self, edges) -> None:
        """Run `edges`: each leaves `remaining` and its endpoints' partners."""
        partners = self.partners
        for u, v in edges:
            self.remaining.discard((u, v))
            partners[u].discard(v)
            partners[v].discard(u)


class SwapStrategy(NamedTuple):
    """One way to bring an edge's endpoints adjacent along a shortest path.

    path runs from the first endpoint's site to the second's; the first
    endpoint moves d1 hops along it and the second the other
    len(path) - 2 - d1 hops back, so they meet on path[d1:d1 + 2].
    """

    edge: Edge
    path: tuple[int, ...]
    d1: int


def partial_pattern_cycles(g: ProblemGraph, mapping: Mapping, threshold: float) -> int:
    """Length of the pattern prefix to keep before the heuristic takes over.

    Largest prefix ending right after an execution layer in which every
    execution layer fires at least threshold * floor(n/2) input CPHASEs.
    With threshold 0 the full pattern qualifies; an input too sparse for the
    first layer gives 0.
    """
    _check_threshold(threshold)
    _check_positions(g, mapping, "mapping")
    n = g.n
    bar = threshold * (n // 2)
    fired = _meet_counts(g, mapping)
    k = 0
    for t, (kind, _, _) in enumerate(_layer_stream(n)):
        if kind == SWAP:
            continue
        if fired[t] < bar:
            break
        k = t + 1
    return k


def maximal_matching(edges, mapping: Mapping | list[int]) -> list[Edge]:
    """Greedy site-disjoint subset of executable edges; mapping[u] is the
    site of logical u.

    Picks by descending max endpoint degree within `edges`, ties by lowest
    edge id, so a path a-b-c-d keeps its two outer edges.
    """
    es = sorted(edges)
    deg: dict[int, int] = {}
    for u, v in es:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    used: set[int] = set()
    out = []
    # es is in edge order and the sort is stable, so equal degrees keep it
    es.sort(key=lambda e: -max(deg[e[0]], deg[e[1]]))
    for u, v in es:
        if mapping[u] in used or mapping[v] in used:
            continue
        used.add(mapping[u])
        used.add(mapping[v])
        out.append((u, v))
    return sorted(out)


def _shortest_paths(
    row: tuple[tuple[int, ...], ...], s: int, t: int, limit: int
) -> list[tuple[int, ...]]:
    # first `limit` shortest paths from s to a distinct t, in lexicographic
    # order (row is toward[t]: row[q] holds the sites one hop closer to t
    # than q, in sorted arch.adj order).  Every hop is closer, so every walk
    # ends at t and no dead end is met.  The first path takes each site's
    # first hop, noting in forks the positions whose site has more; each
    # later path takes, at the deepest fork, the hop after the one the path
    # took there, then first hops again, rewriting the tail of the one list
    # `path`.  A fork leaves forks once its last hop is taken.  No iterator
    # per hop, and no path length limits the walk
    out: list[tuple[int, ...]] = []
    path: list[int] = []
    forks: list[int] = []  # positions in path with a hop left, deepest last
    q = s
    while True:
        while q != t:
            hops = row[q]
            if len(hops) > 1:
                forks.append(len(path))
            path.append(q)
            q = hops[0]
        path.append(t)
        out.append(tuple(path))
        if len(out) == limit or not forks:
            return out
        k = forks[-1]
        hops = row[path[k]]
        i = hops.index(path[k + 1]) + 1  # a site has a few closer hops at most
        if i + 1 == len(hops):
            forks.pop()
        del path[k + 1 :]
        q = hops[i]


def _first_hops(ss: SwapStrategy) -> tuple[tuple[int, int], ...]:
    # the SWAPs a strategy adds to the current cycle, each smaller site
    # first and in order: path[:2] when the first endpoint moves (d1 > 0),
    # path[-2:] when the second does (d1 < len(path) - 2)
    path, d1 = ss.path, ss.d1
    if d1:
        a, b = path[0], path[1]
        first = (a, b) if a < b else (b, a)
        if d1 == len(path) - 2:
            return (first,)
    a, b = path[-2], path[-1]
    second = (a, b) if a < b else (b, a)
    if not d1:
        return (second,)
    return (first, second) if first < second else (second, first)


def enumerate_swap_strategies(edge: Edge, state: SchedulerState) -> list[SwapStrategy]:
    """Feasible (path, d1) strategies that bring `edge` adjacent.

    Only each strategy's first-cycle SWAPs are checked against the current
    cycle: they may not touch sites of gates already scheduled, of currently
    executable edges, or of endpoints parked by earlier strategies this
    round.  Later hops land in later cycles where the rules are re-evaluated.

    So only four sites can block a strategy: the first endpoint's site pu and
    path[1] when it moves (d1 > 0), the second's pv and path[-2] when it moves
    (d1 < dist - 1).  The two first hops never share a site: at distance 2
    only one endpoint moves.  The call builds only the feasible strategies,
    in path order and then by d1, from the first MAX_PATHS shortest paths,
    which each call walks afresh, so it costs O(MAX_PATHS * dist).  An edge
    with no free first hop gets [] at that cost: _route tests for one before
    it calls, and a direct caller pays the walk.
    """
    u, v = edge
    pu, pv = state.pi[u], state.pi[v]
    dist = state.arch.dist[pu][pv]
    if dist < 2:
        raise ValueError("edge is already executable")
    blocked = state.blocked
    pu_free, pv_free = pu not in blocked, pv not in blocked
    closer = dist - 1
    new = tuple.__new__  # a record straight from its fields, as in _route
    out = []
    for path in _shortest_paths(state.arch.toward[pv], pu, pv, MAX_PATHS):
        lo = 0 if pv_free and path[-2] not in blocked else closer
        hi = dist if pu_free and path[1] not in blocked else 1
        for d1 in range(lo, hi):
            out.append(new(SwapStrategy, (edge, path, d1)))
    return out


def score_strategy(ss: SwapStrategy, state: SchedulerState) -> int:
    """Sum of distances from each endpoint's final site to its unscheduled
    neighbors; the routed edge itself does not count.  Lower is better.

    Walks the two endpoints' partner sets, so a call costs their remaining
    degrees, O(deg(u) + deg(v)) at most.
    """
    dist = state.arch.dist
    pi, partners = state.pi, state.partners
    u, v = ss.edge
    row = dist[ss.path[ss.d1]]
    score = 0
    for y in partners[u]:
        if y != v:
            score += row[pi[y]]
    row = dist[ss.path[ss.d1 + 1]]
    for y in partners[v]:
        if y != u:
            score += row[pi[y]]
    return score


def _bystander_delta(ss: SwapStrategy, state: SchedulerState) -> int:
    """Distance change over other remaining edges whose qubits the
    strategy's SWAPs carry along.

    Breaks score ties toward strategies that park bystanders closer to their
    own partners.  Edges touching the routed edge's endpoints do not count.
    Walks the partner sets of the moved qubits and reads the site list
    state.inv, so a call costs O(dist) plus the moved qubits' remaining
    degrees, O(dist * deg) at most.
    """
    u, v = ss.edge
    path, d1 = ss.path, ss.d1
    inv = state.inv
    # each SWAP carries the qubit it meets one hop against its endpoint's way
    moved: dict[int, int] = {}
    for k in range(1, len(path) - 1):
        l = inv[path[k]]
        if l is not None:
            moved[l] = path[k - 1] if k <= d1 else path[k + 1]
    if not moved:
        return 0
    dist = state.arch.dist
    pi, partners = state.pi, state.partners
    delta = 0
    for x, px in moved.items():
        row, row0 = dist[px], dist[pi[x]]
        for y in partners[x]:
            if y == u or y == v:
                continue
            py = moved.get(y)
            if py is None:
                py = pi[y]
                delta += row[py] - row0[py]
            elif y > x:  # an edge between two moved qubits counts once
                delta += row[py] - row0[pi[y]]
    return delta


def _hop_key(ss: SwapStrategy, state: SchedulerState) -> tuple:
    # the last tie-break: the first hops, d1, then each endpoint's own
    # path; state is unused, taken to share the signature of the other costs
    path, d1 = ss.path, ss.d1
    return (_first_hops(ss), d1, path[: d1 + 1], path[:d1:-1])


def _apply_swaps(state: SchedulerState, hops) -> None:
    # exchange the qubits on each hop's two sites, keeping state.pi in step
    pi, inv = state.pi, state.inv
    for a, b in hops:
        la, lb = inv[a], inv[b]
        inv[a], inv[b] = lb, la
        if la is not None:
            pi[la] = b
        if lb is not None:
            pi[lb] = a


def _route(state: SchedulerState, cap: int | None = None) -> tuple[tuple[Gate, ...], ...] | None:
    """Schedule state.remaining in heuristic rounds from state's sites: the
    cycles they add, or None as soon as they need more than `cap`.

    One cycle per round: a maximal matching of the executable edges plus
    the first SWAPs of the best-scored strategy for each distant edge.  A
    round starts state.blocked from the executable edges' sites and adds
    each chosen strategy's SWAP sites and its parked endpoints' sites.

    Only open choices are paid for.  A far edge is enumerated only if a free
    endpoint has a free neighbour one hop closer to the other endpoint: this
    is the one place that test is made, one C-level superset test on the
    closer-hop table per free endpoint, so a dead edge is still visited but
    builds nothing and walks no path.  The best strategy is the first of
    least (score, bystander delta, hop key), and each cost is computed only
    for the strategies tied on all before it: a lone strategy is not
    scored, a lone lowest score skips the delta, and a lone least delta
    skips the hop keys.  A round that adds no gate raises RuntimeError
    rather than loop.
    """
    n, dist = state.g.n, state.arch.dist
    nn = n * n
    pi, blocked, remaining, toward = state.pi, state.blocked, state.remaining, state.arch.toward
    add = blocked.add
    # a decision runs thousands of times per compile: records are built
    # straight from their fields, without NamedTuple's argument handling,
    # and plain loops make the calls in order without a frame of their own
    new = tuple.__new__
    cycles = []
    while remaining:
        if cap is not None and len(cycles) >= cap:
            return None
        # each distance is read once per round: edge (u, v) at distance d
        # ranks by the int d*n*n + u*n + v, the order of (d, (u, v)), so
        # the adjacent edges (d == 1, keys below 2*n*n) come first and are
        # executable, and the others are routed nearest first, ties by edge
        keys = sorted([dist[pi[u]][pi[v]] * nn + u * n + v for u, v in remaining])
        split = bisect_left(keys, 2 * nn)
        re = [divmod(k - nn, n) for k in keys[:split]]
        matching = maximal_matching(re, pi)
        cycle: list[Gate] = []
        blocked.clear()
        for u, v in re:
            add(pi[u])
            add(pi[v])
        for e in matching:
            a, b = pi[e[0]], pi[e[1]]
            cycle.append(new(Gate, (CPHASE, a, b, e) if a < b else (CPHASE, b, a, e)))
        state.execute(matching)
        for k in keys[split:]:
            u, v = divmod(k % nn, n)
            pu, pv = pi[u], pi[v]
            # no first hop is free until the constraints reset; that holds
            # too for an edge that earlier SWAPs this round parked adjacent:
            # a moved qubit sits on a blocked site, the other's one closer hop
            if (pu in blocked or blocked.issuperset(toward[pv][pu])) and (
                pv in blocked or blocked.issuperset(toward[pu][pv])
            ):
                continue
            strategies = enumerate_swap_strategies((u, v), state)
            if not strategies:
                continue  # deferred; constraints reset next cycle
            # the first of least (score, bystander delta, hop key): each cost
            # is paid only by the strategies tied on every cost before it,
            # and by none once one is left.  The tuple is built here, not
            # once, so a rebound module name is the one called
            for cost in (score_strategy, _bystander_delta, _hop_key):
                if len(strategies) == 1:
                    break
                tied = []
                for ss in strategies:
                    c = cost(ss, state)
                    if not tied or c < low:
                        low, tied = c, [ss]
                    elif c == low:
                        tied.append(ss)
                strategies = tied
            best = strategies[0]
            hops = _first_hops(best)
            for a, b in hops:
                cycle.append(new(Gate, (SWAP, a, b, None)))
                add(a)
                add(b)
            _apply_swaps(state, hops)
            add(pi[u])
            add(pi[v])
        if not cycle:
            # no gate and no SWAP: every later round would be the same
            raise RuntimeError("scheduler round made no progress")
        cycles.append(tuple(cycle))
    return tuple(cycles)


def _line_orders(
    arch: Architecture, n: int, seed: int, count: int = CHAINS
) -> tuple[tuple[int, ...], ...]:
    """Up to `count` chains of n coupled sites to lay the pattern on, best
    first: the built-in chain of the device's name where arch couples it (a
    coupling file may carry a built-in name such as ibm20 or grid:4x5; a
    grid:RxC name has one only when R * C is arch.q), then a search for
    `count` chains, which runs only if it is still needed.

    Found once per device: the result, () included, is kept in arch.chains
    under (n, seed, count), and a later call with the same key returns it."""
    key = (n, seed, count)
    if key in arch.chains:
        return arch.chains[key]
    chain = ()
    if arch.name.startswith("linear:"):
        chain = tuple(range(arch.q))
    elif arch.name.startswith("grid:"):
        try:
            shape = _spec_ints(arch.name, 2, "grid:RxC")
        except ValueError:
            pass  # a name no grid spec parses to has no built-in chain
        else:
            # only a grid of arch's own size has its chain built, so a name
            # of another size costs no curve; a 1xN grid is already a line
            if shape[0] * shape[1] == arch.q:
                chain = hilbert_embedding(*shape) if min(shape) >= 2 else tuple(range(arch.q))
    elif arch.name in ("ibm20", "ibm27"):
        chain = device_embedding(arch.name)
    out = [chain[:n]] if len(chain) >= n and arch.is_chain(chain[:n]) else []
    # a path of n sites has no chain but it and its reverse
    is_path = out and arch.q == n and len(arch.couplings) == n - 1
    if len(out) < count and not is_path:
        # the searched chains are distinct, but one may be the built-in one
        known = {canonical(c) for c in out}
        found = multi_embeddings(arch, count, seed=seed, length=n)
        out += [c for c in found if canonical(c) not in known]
    arch.chains[key] = out = tuple(out[:count])
    return out


def _bfs_placement(arch: Architecture, n: int) -> Mapping:
    """Logical i on the i-th site of the breadth-first walk from site 0,
    the placement ctag-h routes from where the device has no n-site chain."""
    return Mapping(tuple(_bfs(arch.adj, 0)[0][:n]))


@_nogc
def schedule(
    g: ProblemGraph, arch: Architecture, cfg: SchedulerConfig | None = None
) -> ScheduledCircuit:
    """Schedule g's CPHASE layer onto arch per cfg.strategy.

    Every strategy builds one candidate pool: the pattern pruned onto each
    of its chains under each of its initial mappings, and under ctag-h a
    routed candidate ahead of each pattern.  The returned circuit always
    passes verify(c, g, arch).  The winner is the first of least (depth,
    gates) in pool order: chain by chain, the astar mapping then the natural
    one, each routed run ahead of its own pattern.  ctag-h compares keys
    read without building its candidates and builds only the winner.  Runs
    with the cyclic garbage collector paused (see graphs._nogc).
    """
    if cfg is None:
        cfg = SchedulerConfig()
    if cfg.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {cfg.strategy!r}")
    # every knob is checked here, whether or not this strategy reads it
    _check_threshold(cfg.threshold)
    _check_int(cfg.beam, "beam", 1)
    _check_int(cfg.seed, "seed")
    if arch.q < g.n:
        raise ValueError(f"{arch.name} has {arch.q} qubits, input needs {g.n}")
    n = g.n
    if n == 1:
        # nothing to execute, and the line pattern needs two sites
        return ScheduledCircuit((), Mapping((0,)), arch)
    routed = cfg.strategy == "ctag-h"
    # the device keeps its chains and closer-hop rows across calls, so a
    # sweep on one device searches for its chains once
    chains = _line_orders(arch, n, cfg.seed, CHAINS if routed else 1)
    if not chains:
        if not routed:
            raise ValueError(f"no chain of {n} coupled sites in {arch.name}")
        init = _bfs_placement(arch, n)
        return ScheduledCircuit(_route(SchedulerState(g, arch, init, set(g.edges))), init, arch)

    if cfg.strategy == "pattern-only":
        m0 = identity_mapping(n)
    elif cfg.strategy == "ctag-r":
        m0 = random_initial_mapping(n, cfg.seed)
    elif cfg.strategy == "ctag-i-iso":
        m0 = iso_initial_mapping(g, beam=cfg.beam, tie_seed=cfg.seed)[0]
    else:  # ctag-i-astar and ctag-h
        m0 = astar_initial_mapping(g, cfg.beam, cfg.seed)[0]
    if not routed:
        # one chain and one mapping: the pattern is the only candidate
        return prune_pattern(g, m0, arch, chains[0])
    inits = [m0] if m0.pi == tuple(range(n)) else [m0, identity_mapping(n)]
    # each mapping's pattern key and prefix length hold on every chain
    keyed = [(m, _pattern_key(g, m), partial_pattern_cycles(g, m, cfg.threshold)) for m in inits]
    # every routed run is capped at the best depth so far, as a run past it
    # could not win; the pool keeps each routed run ahead of its pattern.
    # An entry is (key, mapping, chain, k, tail): cycles 0..k-1 of the
    # (chain, mapping) pattern, then tail
    cap = min(key for _, key, _ in keyed)[0]
    pool = []
    for chain in chains:
        for m0, key, k in keyed:
            # a prefix that ran every edge would only copy the pattern
            if k < key[0]:
                start, remaining, gates = _routed_start(g, m0, chain, k)
                tail = _route(SchedulerState(g, arch, start, remaining), cap - k)
                if tail is not None:
                    cap = k + len(tail)
                    pool.append(((cap, gates + sum(map(len, tail))), m0, chain, k, tail))
            pool.append((key, m0, chain, key[0], ()))
    # min keeps the first of equal keys; only the winner is built
    _, m0, chain, k, tail = min(pool, key=itemgetter(0))
    cycles = tuple(islice(_pattern_cycles(g, m0, arch, chain), k)) + tail
    return ScheduledCircuit(cycles, Mapping(tuple(chain[p] for p in m0.pi)), arch)
