"""Reference models the tests check the package against.

The closed-form position model of the clique pattern (where a qubit is after
t outer loops, and which cyclic ranks it meets in loop t), a brute-force
optimal-depth search for tiny instances, and earlier, plainer versions of
package functions: the pattern built in full and then pruned, the pattern
walk and the meet-table builder that move one pair at a time, the
pattern's relabelling onto a chain, the recursive chain search and
shortest-path walk, a routed start replayed gate by gate, ctag-h's uncapped
candidate pool, built whole, and the beam search that scores every level by
reading meet rows.  Nothing in the package calls them; the tests compare
them with the layer stream, the meet table and the package's outputs.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

from ctagsched.embedding import EmbeddingBudgetExceeded
from ctagsched.graphs import (
    Architecture,
    Mapping,
    ProblemGraph,
    SplitMix64,
    identity_mapping,
    linear,
)
from ctagsched.pattern import (
    CPHASE,
    SWAP,
    Gate,
    ScheduledCircuit,
    _layer_stream,
    _trim,
    prune_pattern,
)


def _loop_step(n: int, p: int) -> int:
    # one outer loop (S1 then S0): odd positions drift up 2, even drift down
    # 2, with direction flips at the chain ends
    if p == 0:
        return 1
    if n % 2 == 0 and p == n - 1:
        return n - 2
    if n % 2 == 1 and p == n - 2:
        return n - 1
    return p - 2 if p % 2 == 0 else p + 2


def position_at(n: int, start_pos: int, t: int) -> int:
    """Position of the qubit starting at start_pos after t outer loops."""
    if not 0 <= start_pos < n:
        raise ValueError(f"position {start_pos} out of range for n={n}")
    if t < 0:
        raise ValueError("t must be non-negative")
    p = start_pos
    for _ in range(t % n):  # the loop permutation is a single n-cycle
        p = _loop_step(n, p)
    return p


def cyclic_rank_shift(n: int) -> tuple[int, ...]:
    """Position permutation of one outer loop; asserted to be one n-cycle."""
    if n < 2:
        raise ValueError("need n >= 2")
    perm = tuple(_loop_step(n, p) for p in range(n))
    seen = set()
    p = 0
    for _ in range(n):
        if p in seen:
            raise AssertionError(f"loop permutation for n={n} is not a single cycle")
        seen.add(p)
        p = perm[p]
    return perm


@lru_cache(maxsize=None)
def _rank_start_positions(n: int) -> tuple[int, ...]:
    # start position of the rank-k qubit: C_0 starts at P1 and consecutive
    # ranks follow the loop permutation, so pos0(C_k) = step^k(1)
    perm = cyclic_rank_shift(n)
    out = []
    p = 1 % n
    for _ in range(n):
        out.append(p)
        p = perm[p]
    return tuple(out)


@lru_cache(maxsize=None)
def _rank_of_start(n: int) -> tuple[int, ...]:
    inv = [0] * n
    for k, p in enumerate(_rank_start_positions(n)):
        inv[p] = k
    return tuple(inv)


def interaction_ranks(n: int, i: int, t: int) -> frozenset[int]:
    """Cyclic ranks the rank-i qubit executes with during full loop t.

    Closed form over the two streams: a qubit whose rank-start position j is
    even meets ranks i+j-2t and i+j-2t+1 (mod n); odd j mirrors through the
    chain end and meets i+n-j-2t and i+n-j-2t-1.  A value equal to i itself
    marks the boundary cycle where that qubit idles for one layer.
    """
    if not 0 <= i < n:
        raise ValueError(f"rank {i} out of range for n={n}")
    j = _rank_start_positions(n)[i]
    if j % 2 == 0:
        cand = ((i + j - 2 * t) % n, (i + j - 2 * t + 1) % n)
    else:
        cand = ((i + n - j - 2 * t) % n, (i + n - j - 2 * t - 1) % n)
    return frozenset(c for c in cand if c != i)


def brute_force_optimal(
    g: ProblemGraph, arch: Architecture, depth_cap: int = 12
) -> int | None:
    """Minimum abstract depth over all initial mappings, or None at the cap.

    Breadth-first over (occupancy, remaining-edges) states, expanding every
    non-empty qubit-disjoint set of currently legal gates per cycle; level
    order makes the first hit the optimum.  Exponential, hence the hard size
    limits.
    """
    if arch.q > 5:
        raise ValueError("brute force limited to architectures with <= 5 qubits")
    if depth_cap > 12:
        raise ValueError("depth_cap limited to 12")
    if g.n > arch.q:
        raise ValueError("graph larger than architecture")
    if not g.edges:
        return 0

    sites = range(arch.q)
    edges = frozenset(g.edges)
    couplings = sorted(arch.couplings)
    start: set[tuple[tuple[int, ...], frozenset]] = set()
    for placement in itertools.permutations(sites, g.n):
        occ = [-1] * arch.q  # -1 marks an empty site
        for logical, site in enumerate(placement):
            occ[site] = logical
        start.add((tuple(occ), edges))

    def moves(state):
        occ, remaining = state
        cands = []
        for a, b in couplings:
            la, lb = occ[a], occ[b]
            if la >= 0 and lb >= 0:
                pair = (la, lb) if la < lb else (lb, la)
                if pair in remaining:
                    cands.append((CPHASE, a, b, pair))
            cands.append((SWAP, a, b, None))
        # all non-empty qubit-disjoint subsets of candidate gates
        subsets = []

        def grow(idx, used, chosen):
            for i in range(idx, len(cands)):
                kind, a, b, pair = cands[i]
                if a in used or b in used:
                    continue
                chosen.append(cands[i])
                subsets.append(tuple(chosen))
                grow(i + 1, used | {a, b}, chosen)
                chosen.pop()

        grow(0, set(), [])
        for subset in subsets:
            occ2 = list(occ)
            rem2 = remaining
            for kind, a, b, pair in subset:
                if kind == SWAP:
                    occ2[a], occ2[b] = occ2[b], occ2[a]
                else:
                    rem2 = rem2 - {pair}
            yield tuple(occ2), rem2

    frontier = start
    visited = set(start)
    for depth in range(1, depth_cap + 1):
        nxt = set()
        for state in frontier:
            for succ in moves(state):
                if not succ[1]:
                    return depth
                if succ not in visited:
                    visited.add(succ)
                    nxt.add(succ)
        frontier = nxt
        if not frontier:
            break
    return None


def ref_prune_pattern(g, init, n):
    """The clique pattern built in full on linear(n) under the natural
    mapping, then replayed from init and pruned to g, as prune_pattern did
    before it walked the layer stream itself."""
    occ = list(range(n))
    full = []
    for kind, start, end in _layer_stream(n):
        pairs = [(p, p + 1) for p in range(start, end, 2)]
        gates = []
        for a, b in pairs:
            if kind == CPHASE:
                la, lb = occ[a], occ[b]
                gates.append(Gate(CPHASE, a, b, (la, lb) if la < lb else (lb, la)))
            else:
                gates.append(Gate(SWAP, a, b))
        if kind == SWAP:
            for a, b in pairs:
                occ[a], occ[b] = occ[b], occ[a]
        full.append(tuple(gates))
    site = {p: l for l, p in enumerate(init.pi)}
    out = []
    for cyc in _trim(full):
        kept = []
        for gate in cyc:
            if gate.kind == SWAP:
                kept.append(gate)
                continue
            la, lb = site.get(gate.a), site.get(gate.b)
            if la is None or lb is None:
                continue
            pair = (la, lb) if la < lb else (lb, la)
            if pair in g.edges:
                kept.append(gate._replace(logical=pair))
        for gate in cyc:
            if gate.kind == SWAP:
                va, vb = site.pop(gate.a, None), site.pop(gate.b, None)
                if va is not None:
                    site[gate.b] = va
                if vb is not None:
                    site[gate.a] = vb
        out.append(tuple(kept))
    return ScheduledCircuit(_trim(out), init, linear(n))


def ref_pattern_cycles(g: ProblemGraph, init: Mapping, arch: Architecture, chain):
    """pattern._pattern_cycles as it was before it walked by slices: every
    layer read and every SWAP applied one pair at a time, each gate built
    through Gate(), and the two shared SWAP layers keyed by their first
    position."""
    n = g.n
    occ = sorted(range(n), key=init.pi.__getitem__)  # occ[position] = logical qubit
    edges = g.edges
    link = [(a, b) if a < b else (b, a) for a, b in zip(chain, chain[1:])]
    swap_layers: dict[int, tuple[Gate, ...]] = {}
    for kind, start, end in _layer_stream(n):
        pairs = [(p, p + 1) for p in range(start, end, 2)]
        if kind == SWAP:
            layer = swap_layers.get(start)
            if layer is None:
                layer = swap_layers[start] = tuple(Gate(SWAP, *link[a]) for a, _ in pairs)
            yield layer
            for a, b in pairs:
                occ[a], occ[b] = occ[b], occ[a]
            continue
        gates = []
        for a, b in pairs:
            la, lb = occ[a], occ[b]
            pair = (la, lb) if la < lb else (lb, la)
            if pair in edges:
                gates.append(Gate(CPHASE, *link[a], pair))
        yield tuple(gates)


def ref_meet_table(n: int) -> tuple[tuple[int, ...], ...]:
    """pattern._meet_table as it was before it read layers by slices: every
    pair of every layer swapped or recorded one at a time."""
    table = [[-1] * n for _ in range(n)]
    occ = list(range(n))  # occ[position] = start position of the qubit now there
    for c, (kind, start, end) in enumerate(_layer_stream(n)):
        for a, b in [(p, p + 1) for p in range(start, end, 2)]:
            if kind == SWAP:
                occ[a], occ[b] = occ[b], occ[a]
            else:
                u, v = occ[a], occ[b]
                table[u][v] = table[v][u] = c
    return tuple(tuple(row) for row in table)


def ref_relabel(circ: ScheduledCircuit, order, arch: Architecture) -> ScheduledCircuit:
    """Send a circuit on positions 0..n-1 onto the chain `order` inside
    `arch`, as the scheduler did before prune_pattern laid the pattern on
    the chain itself."""
    cycles = []
    for cyc in circ.cycles:
        gates = []
        for g in cyc:
            a, b = order[g.a], order[g.b]
            if a > b:
                a, b = b, a
            gates.append(Gate(g.kind, a, b, g.logical))
        cycles.append(tuple(gates))
    init = Mapping(tuple(order[p] for p in circ.init.pi))
    return ScheduledCircuit(tuple(cycles), init, arch)


def ref_shortest_paths(arch, s, t, limit):
    """First `limit` shortest s-t paths in lexicographic order, by a
    recursive walk (one frame per hop)."""
    d = arch.dist
    out = []

    def walk(p, prefix):
        if len(out) >= limit:
            return
        if p == t:
            out.append(tuple(prefix))
            return
        for q in sorted(arch.adj[p]):
            if d[q][t] == d[p][t] - 1:
                prefix.append(q)
                walk(q, prefix)
                prefix.pop()

    walk(s, [s])
    return out


def ref_find_line_embedding(arch, seed=0, length=None, budget=10**6):
    """find_line_embedding as a recursive search (one frame per chain site),
    with the same visit order and budget count."""
    q = arch.q
    target = q if length is None else length
    if not 1 <= target <= q:
        raise ValueError(f"length {target} out of range for {q} qubits")
    if target == 1:
        return (0,)
    if target == q and sum(1 for v in range(q) if len(arch.adj[v]) == 1) > 2:
        return None

    rng = SplitMix64(seed)
    salt = list(range(q))
    rng.shuffle(salt)
    starts = sorted(range(q), key=lambda v: (len(arch.adj[v]), salt[v]))

    expansions = 0
    path: list[int] = []
    on_path = [False] * q
    free_deg = [len(arch.adj[v]) for v in range(q)]

    def dfs(v: int) -> bool:
        nonlocal expansions
        expansions += 1
        if expansions > budget:
            raise EmbeddingBudgetExceeded(f"budget {budget} exhausted")
        path.append(v)
        on_path[v] = True
        for u in arch.adj[v]:
            free_deg[u] -= 1
        if len(path) == target:
            return True
        nbrs = sorted(
            (u for u in arch.adj[v] if not on_path[u]),
            key=lambda u: (free_deg[u], salt[u]),
        )
        for u in nbrs:
            if dfs(u):
                return True
        path.pop()
        on_path[v] = False
        for u in arch.adj[v]:
            free_deg[u] += 1
        return False

    for s in starts:
        if dfs(s):
            return tuple(path)
    return None


def replay_start(g: ProblemGraph, init: Mapping, prefix):
    """Each qubit's site and the edges left after running `prefix` (cycles
    on a device's sites) from `init`, one gate at a time, as the routed runs
    did before they started from the pattern's state."""
    site = dict(enumerate(init.pi))
    at = {p: l for l, p in site.items()}
    remaining = set(g.edges)
    for cyc in prefix:
        for x in cyc:
            if x.kind == CPHASE:
                remaining.discard(x.logical)
                continue
            la, lb = at.pop(x.a, None), at.pop(x.b, None)
            if la is not None:
                site[la] = x.b
                at[x.b] = la
            if lb is not None:
                site[lb] = x.a
                at[x.a] = lb
    return Mapping(tuple(site[l] for l in range(g.n))), remaining


def ref_routed(g: ProblemGraph, arch: Architecture, init: Mapping, prefix) -> ScheduledCircuit:
    """`prefix` from `init`, then the package's heuristic rounds from the
    state its replay reaches: a routed candidate built whole."""
    from ctagsched.scheduler import SchedulerState, _route

    start, remaining = replay_start(g, init, prefix)
    tail = _route(SchedulerState(g, arch, start, remaining))
    return ScheduledCircuit(tuple(prefix) + tail, init, arch)


def ref_schedule(g: ProblemGraph, arch: Architecture, threshold=0.5, beam=8, seed=0):
    """schedule() under ctag-h as it was before candidates were keyed from
    the meet table and routed runs capped: every candidate is built whole,
    each routed start is a replay of its pattern's first cycles, every
    routed run goes to its end, and the first candidate of least (depth,
    CPHASE + SWAP count) in pool order wins."""
    from ctagsched.initial_mapping import astar_initial_mapping
    from ctagsched.scheduler import (
        CHAINS,
        _bfs_placement,
        _line_orders,
        partial_pattern_cycles,
    )

    n = g.n
    if n == 1:
        return ScheduledCircuit((), Mapping((0,)), arch)
    chains = _line_orders(arch, n, seed, CHAINS)
    if not chains:
        return ref_routed(g, arch, _bfs_placement(arch, n), ())
    inits = [astar_initial_mapping(g, beam, seed)[0]]
    if inits[0].pi != tuple(range(n)):
        inits.append(identity_mapping(n))
    pool = []
    for chain in chains:
        for m0 in inits:
            full = prune_pattern(g, m0, arch, chain)
            k = partial_pattern_cycles(g, m0, threshold)
            if k < full.depth:
                pool.append(ref_routed(g, arch, full.init, full.cycles[:k]))
            pool.append(full)
    return min(pool, key=lambda c: (c.depth, c.cphase_count + c.swap_count))


def rows_astar_initial_mapping(g: ProblemGraph, beam=8, tie_seed=0):
    """astar_initial_mapping as it was before wide levels took bit masks:
    every level reads its placed neighbours' meet rows for each free
    position, stopping a scan once the running cost passes the bar."""
    from heapq import heappush, heapreplace

    from ctagsched.graphs import _check_int, random_initial_mapping
    from ctagsched.initial_mapping import _as_mapping, _search_order
    from ctagsched.pattern import _meet_table

    n = g.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    _check_int(beam, "beam", 1)
    table = _meet_table(n)
    order, nbrs = _search_order(g)
    salt = random_initial_mapping(n, tie_seed).pi if tie_seed else range(n)

    # this level's kept children, negated: (-cost, -parent rank, -salt[p], -p)
    heap: list[tuple[int, int, int, int]] = []

    def bar(rank: int) -> int:
        # highest cost a child of parent `rank` may have and be kept
        w_cost, w_rank = -heap[0][0], -heap[0][1]
        return w_cost if w_rank == rank else w_cost - 1

    # (positions of the order prefix, max meet so far or -1), by salted prefix
    parents: list[tuple[tuple[int, ...], int]] = [((), -1)]
    for k in range(n):
        heap = []
        lim = 2 * n  # above every meet cycle until the heap is full
        for rank, (prefix, cost) in enumerate(parents):
            if len(heap) == beam:
                lim = bar(rank)
                if cost > lim:
                    continue
            used = set(prefix)
            rows = [table[prefix[j]] for j in nbrs[k]]
            for p in range(n):
                if p in used:
                    continue
                c = cost
                for row in rows:
                    if row[p] > c:
                        c = row[p]
                        if c > lim:
                            break
                else:
                    key = (-c, -rank, -salt[p], -p)
                    if len(heap) < beam:
                        heappush(heap, key)
                        if len(heap) == beam:
                            lim = bar(rank)
                    elif key > heap[0]:
                        heapreplace(heap, key)
                        lim = bar(rank)
        # back to salted order: by parent rank, then by the new position's
        # salt (the entries are negated, hence the reverse sort)
        heap.sort(key=lambda ch: (ch[1], ch[2]), reverse=True)
        parents = [(parents[-r][0] + (-p,), -c) for c, r, _, p in heap]

    # parents are in salted order, so the first of lowest cost wins ties
    prefix, cost = min(parents, key=lambda node: node[1])
    return _as_mapping(order, prefix), cost + 1
