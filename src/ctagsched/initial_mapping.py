"""Initial logical-to-position assignments for the line pattern.

The pruned pattern fires each edge at the meet-table cycle of its endpoints'
start positions, so the mapping alone sets the depth.  Both searches place
vertices in one order (_search_order), score a placement by its meets with
the neighbours placed before it, and build their result with _as_mapping.
"""
from __future__ import annotations

from heapq import heappush, heapreplace

from ctagsched.graphs import Mapping, ProblemGraph, random_initial_mapping
from ctagsched.pattern import _meet_table

__all__ = [
    "ISO_NODE_BUDGET",
    "astar_initial_mapping",
    "iso_initial_mapping",
    "random_initial_mapping",
]

# Placements iso_initial_mapping may try before it keeps its best mapping.
# On one x86-64 core that is 0.5-1 s of search at n=40 and about 2 s at
# n=100; random graphs with n <= 10 reach their result within 2,000.
ISO_NODE_BUDGET = 100_000


def _check_beam(beam) -> None:
    # a beam is a plain int of at least 1, or None for no beam; a float beam
    # never fills the heap, so its bar would never apply, and True would
    # pass for 1
    if beam is None:
        return
    if type(beam) is not int:
        raise ValueError(f"beam must be an integer or None, got {beam!r}")
    if beam < 1:
        raise ValueError(f"beam must be at least 1, got {beam}")


def _search_order(g: ProblemGraph) -> tuple[list[int], list[list[int]]]:
    # highest degree first, so the most constrained vertices are placed
    # early; nbrs[k] holds the levels of order[k]'s earlier neighbours
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    level = {v: k for k, v in enumerate(order)}
    nbrs = [[level[u] for u in g.adj[v] if level[u] < k] for k, v in enumerate(order)]
    return order, nbrs


def _as_mapping(order: list[int], positions) -> Mapping:
    # positions[k] is the position of order[k]
    pi = [0] * len(order)
    for v, p in zip(order, positions):
        pi[v] = p
    return Mapping(tuple(pi))


def astar_initial_mapping(
    g: ProblemGraph, beam: int | None = 8, tie_seed: int = 0
) -> tuple[Mapping, int]:
    """Assign vertices (highest degree first) to positions, keeping the best
    `beam` partial assignments per level by max meeting cycle.

    beam=1 is the greedy search, beam=None expands every branch and is exact;
    a beam that is neither None nor an int of at least 1 is a ValueError.
    Returns the mapping and its finishing cycle count, which equals the
    depth of the pruned pattern under that mapping.

    Ties on cost go to the lexicographically smallest positions read through
    `salt`, a seeded permutation when tie_seed is nonzero.  A child is its
    parent plus one position, so that is the parent's rank by salted
    positions, then the new position's salt; only beam survivors get a tuple.

    The kept children sit in a bounded max-heap on that key, so its top is
    the worst kept child W.  A new child is kept only if its key is below
    W's: its cost may not exceed W's, nor equal it unless it shares W's
    parent (a later parent loses the tie on rank).  That limit is the bar.
    A child's cost only rises while its neighbour rows are read and its tie
    key is fixed, so a scan stops as soon as the running cost passes the
    bar, and a parent already past it is skipped; W only improves, so no
    child cut this way could have been kept.  The cut is exact.  beam=None
    leaves the heap unbounded, so the bar never applies.
    """
    n = g.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    _check_beam(beam)
    table = _meet_table(n)
    order, nbrs = _search_order(g)
    salt = random_initial_mapping(n, tie_seed).pi if tie_seed else range(n)
    cap = float("inf") if beam is None else beam

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
            if len(heap) == cap:
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
                    if len(heap) < cap:
                        heappush(heap, key)
                        if len(heap) == cap:
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


def iso_initial_mapping(
    g: ProblemGraph,
    budget: int = ISO_NODE_BUDGET,
    beam: int | None = 8,
    tie_seed: int = 0,
) -> tuple[Mapping, int]:
    """astar_initial_mapping refined by an exact, node-budgeted search.

    Depth-first branch and bound over the meet table in astar's vertex
    order, starting from astar's mapping under `beam` and `tie_seed` as
    the incumbent and looking only for strictly fewer finishing cycles.
    beam and tie_seed take astar's defaults.  A vertex of degree d
    placed at position p cannot finish before the d-th smallest meet in row
    p of the table (it meets one partner per cycle), which bounds every
    placement from below.  The search ends when it proves the incumbent
    optimal, meets the bound over all positions, or has tried `budget`
    placements; it returns the best mapping found and its finishing cycle
    count, as astar_initial_mapping does.
    """
    mapping, depth = astar_initial_mapping(g, beam, tie_seed)
    n = g.n
    table = _meet_table(n)
    order, placed_nbrs = _search_order(g)
    # floor[k][p]: earliest cycle by which position p has met all of
    # order[k]'s partners, one per cycle
    rows = [sorted(m for q, m in enumerate(row) if q != p) for p, row in enumerate(table)]
    floor = [[row[g.degree(v) - 1] if g.adj[v] else -1 for row in rows] for v in order]
    lower = max(min(f) for f in floor)

    best = depth - 1  # max meet of the incumbent; a new mapping must beat it
    best_pos = [mapping[v] for v in order]
    pos = [-1] * n  # pos[k]: position of order[k], -1 while unplaced
    used = [False] * n

    def children(k: int, cost: int):
        # (bound, position) for each free position that may still beat the
        # incumbent, lowest bound first
        low, nbrs = floor[k], placed_nbrs[k]
        out = []
        for p in range(n):
            if used[p]:
                continue
            row = table[p]
            c = low[p] if low[p] > cost else cost
            for j in nbrs:
                m = row[pos[j]]
                if m > c:
                    c = m
            if c < best:
                out.append((c, p))
        out.sort()
        return iter(out)

    # one candidate iterator per level on an explicit stack, so deep
    # searches stay clear of the interpreter's recursion limit
    stack = [children(0, -1)] if best > lower else []
    nodes = 0
    while stack and nodes < budget:
        k = len(stack) - 1
        if pos[k] >= 0:  # retract this level's previous candidate
            used[pos[k]] = False
            pos[k] = -1
        c, p = next(stack[-1], (best, -1))
        if c >= best:  # exhausted, or a deeper branch lowered the incumbent
            stack.pop()
            continue
        nodes += 1
        pos[k], used[p] = p, True
        if k + 1 < n:
            stack.append(children(k + 1, c))
        else:
            best, best_pos = c, pos[:]
            if best <= lower:
                break
    return _as_mapping(order, best_pos), best + 1
