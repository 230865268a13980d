"""Pattern-adapting heuristic scheduler for arbitrary coupling graphs.

Every strategy lays the CTAG line pattern, pruned to the input graph, on a
chain of g.n coupled sites under its own initial mappings:

  pattern-only   the natural mapping
  ctag-r         a seeded random mapping
  ctag-i-astar   the beam-searched mapping
  ctag-i-iso     the beam-searched mapping refined by an exact
                 node-budgeted search over the meet table
  ctag-h         the beam-searched mapping, then the natural one if it differs

A chain is a tuple of sites.  The line strategies take one chain, ctag-h up
to CHAINS of them, and each (chain, mapping) pair gives the pattern pruned
onto that chain as a candidate.  Only ctag-h routes: ahead of each pattern
it adds a candidate that runs the pattern's first cycles and schedules the
rest with matching/swap-routing rounds; the run gives up once it is deeper
than a pattern or an earlier routed candidate.  A prefix that covers the
whole pruned pattern has run every edge, so the pattern alone is that
candidate.  With no chain, a line strategy raises ValueError and ctag-h
routes from a breadth-first placement and no prefix.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import InitVar, dataclass, field
from functools import reduce
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
    _spec_ints,
    identity_mapping,
    random_initial_mapping,
)
from ctagsched.initial_mapping import _check_beam, astar_initial_mapping, iso_initial_mapping
from ctagsched.pattern import (
    CPHASE,
    SWAP,
    Gate,
    ScheduledCircuit,
    _layer_stream,
    _meet_table,
    cycle_line,
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


@dataclass
class SchedulerConfig:
    """Knobs for schedule(): strategy names the initial mappings and whether
    to route, threshold sets ctag-h's pattern prefix, beam and seed the
    mapping search (seed also ctag-r's mapping and the chain search)."""

    strategy: str = "ctag-h"
    threshold: float = 0.5
    beam: int | None = 8
    seed: int = 0


@dataclass
class SchedulerState:
    """Mutable context threaded through the heuristic rounds.

    Built from the starting Mapping `init`.  pi[logical] is the site each
    qubit is on now and inv its site -> logical inverse; _apply_swaps moves
    both in place.  blocked holds the sites the current cycle's SWAPs may not
    touch: those of the executable edges, of the SWAPs already chosen and of
    the endpoints parked this round; _route refills it every round.  paths
    memoises _shortest_paths by its two end sites for the life of one run.
    """

    g: ProblemGraph
    arch: Architecture
    init: InitVar[Mapping]
    remaining: set[Edge]
    blocked: set[int] = field(default_factory=set)
    pi: list[int] = field(init=False)
    inv: dict[int, int] = field(init=False)
    paths: dict[tuple[int, int], list[tuple[int, ...]]] = field(init=False, default_factory=dict)

    def __post_init__(self, init: Mapping):
        self.pi = list(init.pi)
        self.inv = init.inverse()


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
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} not in [0, 1]")
    n = g.n
    if mapping.n != n or any(not 0 <= p < n for p in mapping.pi):
        raise ValueError("mapping must place g's vertices onto positions 0..n-1")
    bar = threshold * (n // 2)
    # the pattern fires each edge at the meet cycle of its start positions
    table, pi = _meet_table(n), mapping.pi
    fired = Counter(table[pi[u]][pi[v]] for u, v in g.edges)
    k = 0
    for t, (kind, _) in enumerate(_layer_stream(n)):
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
    for u, v in sorted(es, key=lambda e: (-max(deg[e[0]], deg[e[1]]), e)):
        if mapping[u] in used or mapping[v] in used:
            continue
        used.add(mapping[u])
        used.add(mapping[v])
        out.append((u, v))
    return sorted(out)


def _shortest_paths(arch: Architecture, s: int, t: int, limit: int) -> list[tuple[int, ...]]:
    # first `limit` shortest paths from s to a distinct t, in lexicographic
    # order (arch.adj rows are sorted; row t of dist gives every d(., t)),
    # by a depth-first walk on an explicit stack that no path length limits
    dt = arch.dist[t]
    adj = arch.adj
    out: list[tuple[int, ...]] = []
    path = [s]
    stack = [iter(adj[s])]
    while stack and len(out) < limit:
        q = next(stack[-1], None)
        if q is None:
            stack.pop()
            path.pop()
        elif dt[q] == dt[path[-1]] - 1:
            if q == t:
                out.append((*path, t))
            else:
                path.append(q)
                stack.append(iter(adj[q]))
    return out


def _first_hops(ss: SwapStrategy) -> tuple[tuple[int, int], ...]:
    # the SWAPs a strategy adds to the current cycle: path[:2] when the
    # first endpoint moves (d1 > 0), path[-2:] when the second does
    path, d1 = ss.path, ss.d1
    hops = [path[:2]] if d1 else []
    if d1 < len(path) - 2:
        hops.append(path[-2:])
    return tuple(sorted((a, b) if a < b else (b, a) for a, b in hops))


def enumerate_swap_strategies(edge: Edge, state: SchedulerState) -> list[SwapStrategy]:
    """Feasible (path, d1) strategies that bring `edge` adjacent.

    Only each strategy's first-cycle SWAPs are checked against the current
    cycle: they may not touch sites of gates already scheduled, of currently
    executable edges, or of endpoints parked by earlier strategies this
    round.  Later hops land in later cycles where the rules are re-evaluated.

    So only four sites can block a strategy: the first endpoint's site pu and
    path[1] when it moves (d1 > 0), the second's pv and path[-2] when it moves
    (d1 < dist - 1).  The two first hops never share a site: at distance 2
    only one endpoint moves.  path[1] and path[-2] step one hop closer to the
    other endpoint, so before reading any path a call returns [] unless a
    free endpoint has such a neighbour unblocked.  Then it builds only the
    feasible strategies, in path order and then by d1, from the first
    MAX_PATHS shortest paths memoised in `state`.  A call costs O(1) when
    both endpoints are blocked, O(deg) when every first hop is, and
    O(MAX_PATHS * dist) otherwise.
    """
    u, v = edge
    pu, pv = state.pi[u], state.pi[v]
    arch = state.arch
    dist = arch.dist[pu][pv]
    if dist < 2:
        raise ValueError("edge is already executable")
    blocked = state.blocked
    pu_free, pv_free = pu not in blocked, pv not in blocked
    closer = dist - 1
    to_v, to_u = arch.dist[pv], arch.dist[pu]
    if not (
        (pu_free and any(to_v[q] == closer and q not in blocked for q in arch.adj[pu]))
        or (pv_free and any(to_u[q] == closer and q not in blocked for q in arch.adj[pv]))
    ):
        return []
    paths = state.paths.get((pu, pv))
    if paths is None:
        paths = state.paths[pu, pv] = _shortest_paths(arch, pu, pv, MAX_PATHS)
    out = []
    for path in paths:
        lo = 0 if pv_free and path[-2] not in blocked else closer
        hi = dist if pu_free and path[1] not in blocked else 1
        out += [SwapStrategy(edge, path, d1) for d1 in range(lo, hi)]
    return out


def score_strategy(ss: SwapStrategy, state: SchedulerState) -> int:
    """Sum of distances from each endpoint's final site to its unscheduled
    neighbors; the routed edge itself does not count.  Lower is better.

    Walks the problem-graph neighbours of the two endpoints, so a call costs
    O(deg(u) + deg(v)).
    """
    dist = state.arch.dist
    pi, remaining = state.pi, state.remaining
    score = 0
    for end, newpos in zip(ss.edge, ss.path[ss.d1 : ss.d1 + 2]):
        row = dist[newpos]
        for nb in state.g.adj[end]:
            e = (end, nb) if end < nb else (nb, end)
            if e != ss.edge and e in remaining:
                score += row[pi[nb]]
    return score


def _bystander_delta(ss: SwapStrategy, state: SchedulerState) -> int:
    """Distance change over other remaining edges whose qubits the
    strategy's SWAPs carry along.

    Breaks score ties toward strategies that park bystanders closer to their
    own partners.  Edges touching the routed edge's endpoints do not count.
    Walks the problem-graph neighbours of the moved qubits and reads the
    maintained inverse map, so a call costs O(dist * deg).
    """
    u, v = ss.edge
    path, d1 = ss.path, ss.d1
    inv = state.inv
    # each SWAP carries the qubit it meets one hop against its endpoint's way
    moved: dict[int, int] = {}
    for k in range(1, len(path) - 1):
        l = inv.get(path[k])
        if l is not None:
            moved[l] = path[k - 1] if k <= d1 else path[k + 1]
    if not moved:
        return 0
    dist = state.arch.dist
    pi, remaining = state.pi, state.remaining
    delta = 0
    for x, px in moved.items():
        px0 = pi[x]
        for y in state.g.adj[x]:
            if y == u or y == v or (y in moved and y < x):
                continue  # an edge between two moved qubits counts once
            if ((x, y) if x < y else (y, x)) in remaining:
                py0 = pi[y]
                delta += dist[px][moved.get(y, py0)] - dist[px0][py0]
    return delta


def _apply_swaps(state: SchedulerState, hops) -> None:
    # move the qubits on each hop's sites, keeping state.inv in step
    pi, inv = state.pi, state.inv
    for a, b in hops:
        la, lb = inv.pop(a, None), inv.pop(b, None)
        if la is not None:
            pi[la] = b
            inv[b] = la
        if lb is not None:
            pi[lb] = a
            inv[a] = lb


def _route(
    g: ProblemGraph, arch: Architecture, init: Mapping, prefix, cap: int | None = None
) -> ScheduledCircuit | None:
    """Run `prefix` (cycles on arch's sites) from `init`, then schedule the
    edges it leaves in heuristic rounds; None as soon as they need a cycle
    past `cap` cycles in all.

    One cycle per round: a maximal matching of the executable edges plus
    the first SWAPs of the best-scored strategy for each distant edge.  A
    round starts state.blocked from the executable edges' sites and adds
    each chosen strategy's SWAP sites and its parked endpoints' sites.

    Only open choices are paid for: an edge whose endpoint sites are both
    blocked is not enumerated, a lone strategy is not scored, and a lone
    lowest score skips the bystander-delta tie-break.
    """
    state = SchedulerState(g, arch, init, set(g.edges))
    for cyc in prefix:
        state.remaining.difference_update(x.logical for x in cyc if x.kind == CPHASE)
        _apply_swaps(state, [(x.a, x.b) for x in cyc if x.kind == SWAP])
    dist = arch.dist
    pi, blocked = state.pi, state.blocked
    cycles = list(prefix)
    while state.remaining:
        if cap is not None and len(cycles) >= cap:
            return None
        # each distance is read once per round: adjacent edges are
        # executable, the others are routed nearest first, ties by edge id
        ranked = sorted((dist[pi[u]][pi[v]], (u, v)) for u, v in state.remaining)
        re = [e for d, e in ranked if d == 1]
        far = [e for d, e in ranked if d > 1]
        matching = maximal_matching(re, pi)
        cycle: list[Gate] = []
        blocked.clear()
        blocked.update(pi[x] for e in re for x in e)
        for u, v in matching:
            a, b = pi[u], pi[v]
            cycle.append(Gate(CPHASE, min(a, b), max(a, b), (u, v)))
            state.remaining.discard((u, v))
        for e in far:
            pu, pv = pi[e[0]], pi[e[1]]
            if dist[pu][pv] < 2:
                continue  # earlier swaps this round already parked it adjacent
            if pu in blocked and pv in blocked:
                continue  # dead until the constraints reset next cycle
            strategies = enumerate_swap_strategies(e, state)
            if not strategies:
                continue  # deferred; constraints reset next cycle
            if len(strategies) == 1:
                best = strategies[0]
            else:
                scores = [score_strategy(ss, state) for ss in strategies]
                low = min(scores)
                tied = [ss for ss, sc in zip(strategies, scores) if sc == low]
                # the bystander delta only breaks score ties, so only ties
                # pay for it; then the hops, d1 and each endpoint's own path
                best = tied[0] if len(tied) == 1 else min(
                    tied,
                    key=lambda ss: (
                        _bystander_delta(ss, state),
                        _first_hops(ss),
                        ss.d1,
                        ss.path[: ss.d1 + 1],
                        ss.path[: ss.d1 : -1],
                    ),
                )
            hops = _first_hops(best)
            for a, b in hops:
                cycle.append(Gate(SWAP, a, b))
                blocked.update((a, b))
            _apply_swaps(state, hops)
            blocked.update((pi[e[0]], pi[e[1]]))
        assert cycle, "scheduler round made no progress"
        cycles.append(tuple(cycle))
    return ScheduledCircuit(tuple(cycles), init, arch)


def _line_orders(
    arch: Architecture, n: int, seed: int, count: int = CHAINS
) -> list[tuple[int, ...]]:
    """Up to `count` chains of n coupled sites to lay the pattern on, best
    first: the built-in chain of the device's name where arch couples it (a
    coupling file may carry a built-in name such as ibm20 or grid:4x5), then
    a search for `count` chains, which runs only if it is still needed."""
    chain = ()
    if arch.name.startswith("linear:"):
        chain = tuple(range(arch.q))
    elif arch.name.startswith("grid:"):
        try:
            shape = _spec_ints(arch.name, 2, "grid:RxC")
        except ValueError:
            pass  # a name no grid spec parses to has no built-in chain
        else:
            # a 1xN grid is already a line
            chain = hilbert_embedding(*shape) if min(shape) >= 2 else tuple(range(arch.q))
    elif arch.name in ("ibm20", "ibm27"):
        chain = device_embedding(arch.name)
    out = [chain[:n]] if len(chain) >= n and arch.is_chain(chain[:n]) else []
    if len(out) < count:
        # the searched chains are distinct, but one may be the built-in one
        known = {canonical(c) for c in out}
        found = multi_embeddings(arch, count, seed=seed, length=n)
        out += [c for c in found if canonical(c) not in known]
    return out[:count]


def _first_by_text(a: ScheduledCircuit, b: ScheduledCircuit) -> ScheduledCircuit:
    """b if its to_text is smaller than a's, else a; both have one depth.

    The texts agree up to the first cycle whose lines differ, and there the
    smaller line decides: equal depths give equal line counts, and the
    newline that ends a line sorts below every character in one.  Cycles
    with the same sites and kinds give the same line, so only a cycle that
    differs in them is rendered.
    """
    for t, (ca, cb) in enumerate(zip(a.cycles, b.cycles)):
        if ca is cb or ca == cb or [x[:3] for x in ca] == [x[:3] for x in cb]:
            continue
        la, lb = cycle_line(t, ca), cycle_line(t, cb)
        if la != lb:
            return b if lb < la else a
    return a


def _pick(candidates: list[ScheduledCircuit]) -> ScheduledCircuit:
    """The shallowest candidate; ties go to fewer gates, then to the smaller
    to_text, then to the first in the list."""
    # a lone candidate is not measured; every gate is a CPHASE or a SWAP,
    # so the gates are counted per cycle
    if len(candidates) == 1:
        return candidates[0]
    keys = [(c.depth, sum(map(len, c.cycles))) for c in candidates]
    low = min(keys)
    return reduce(_first_by_text, [c for c, key in zip(candidates, keys) if key == low])


def _bfs_placement(arch: Architecture, n: int) -> Mapping:
    # logical i on the i-th site of a breadth-first sweep from site 0
    order = []
    seen = [False] * arch.q
    seen[0] = True
    dq = deque([0])
    while dq:
        p = dq.popleft()
        order.append(p)
        for q in arch.adj[p]:
            if not seen[q]:
                seen[q] = True
                dq.append(q)
    return Mapping(tuple(order[:n]))


def schedule(
    g: ProblemGraph, arch: Architecture, cfg: SchedulerConfig | None = None
) -> ScheduledCircuit:
    """Schedule g's CPHASE layer onto arch per cfg.strategy.

    Every strategy builds one candidate pool: the pattern pruned onto each
    of its chains under each of its initial mappings, and under ctag-h a
    routed candidate ahead of each pattern.  The returned circuit
    always passes verify(c, g, arch).  The shallowest candidate wins; ties go
    to fewer gates, then to the lexicographically smallest text form, then
    to the first in the pool.  A routed run stops once it is deeper than
    the best candidate so far, and ties are compared cycle by cycle.
    """
    if cfg is None:
        cfg = SchedulerConfig()
    if cfg.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {cfg.strategy!r}")
    # every knob is checked here, whether or not this strategy reads it
    if not 0.0 <= cfg.threshold <= 1.0:  # NaN fails too
        raise ValueError(f"threshold {cfg.threshold} not in [0, 1]")
    _check_beam(cfg.beam)
    if arch.q < g.n:
        raise ValueError(f"{arch.name} has {arch.q} qubits, input needs {g.n}")
    n = g.n
    if n == 1:
        # nothing to execute, and the line pattern needs two sites
        return ScheduledCircuit((), Mapping((0,)), arch)
    routed = cfg.strategy == "ctag-h"
    chains = _line_orders(arch, n, cfg.seed, CHAINS if routed else 1)
    if not chains:
        if not routed:
            raise ValueError(f"no chain of {n} coupled sites in {arch.name}")
        return _route(g, arch, _bfs_placement(arch, n), ())

    if cfg.strategy == "pattern-only":
        inits = [identity_mapping(n)]
    elif cfg.strategy == "ctag-r":
        inits = [random_initial_mapping(n, cfg.seed)]
    elif cfg.strategy == "ctag-i-iso":
        inits = [iso_initial_mapping(g, beam=cfg.beam, tie_seed=cfg.seed)[0]]
    else:  # ctag-i-astar and ctag-h
        inits = [astar_initial_mapping(g, cfg.beam, cfg.seed)[0]]
        if routed and inits[0].pi != tuple(range(n)):
            inits.append(identity_mapping(n))
    # ctag-h's prefix length depends only on the mapping; a line strategy's
    # prefix is the whole pattern
    prefixes = [partial_pattern_cycles(g, m0, cfg.threshold) if routed else None for m0 in inits]
    patterns = [
        (prune_pattern(g, m0, arch, chain), k)
        for chain in chains
        for m0, k in zip(inits, prefixes)
    ]
    # the patterns cost little, so every routed run is capped at the best
    # depth so far; a run past it could not win, and selection keeps the
    # pool order: each routed run ahead of its pattern
    cap = min(full.depth for full, _ in patterns)
    candidates = []
    for full, k in patterns:
        if routed and k < full.depth:
            # a prefix that ran every edge would only copy the pattern
            c = _route(g, arch, full.init, full.cycles[:k], cap)
            if c is not None:
                cap = c.depth
                candidates.append(c)
        candidates.append(full)
    return _pick(candidates)
