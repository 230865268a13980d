"""Initial logical-to-position assignments for the line pattern.

The finishing cycle of a pruned pattern is fixed entirely by where each edge's
endpoints start, via the meeting table, so choosing the initial mapping is a
search over permutations scored by max edge meeting cycle.
"""
from __future__ import annotations

from dataclasses import dataclass

from ctagsched.graphs import Mapping, ProblemGraph, random_initial_mapping
from ctagsched.pattern import _meet_table

__all__ = [
    "ISO_NODE_BUDGET",
    "MappingSearchNode",
    "astar_initial_mapping",
    "iso_initial_mapping",
    "random_initial_mapping",
]

# Placements iso_initial_mapping may try before it keeps its best mapping.
# On one x86-64 core that is 0.5-1 s of search at n=40 and about 2 s at
# n=100; random graphs with n <= 10 reach their result within 2,000.
ISO_NODE_BUDGET = 100_000


@dataclass(frozen=True)
class MappingSearchNode:
    """Partial assignment in the mapping search; cost bounds the finish cycle."""

    partial_pi: tuple[int, ...]  # positions of the first k search vertices
    cost: int  # max meet index over edges mapped so far, -1 when none


def _search_order(g: ProblemGraph) -> list[int]:
    # highest degree first, so the most constrained vertices are placed early
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def astar_initial_mapping(
    g: ProblemGraph, beam: int | None = 8, tie_seed: int = 0
) -> tuple[Mapping, int]:
    """Assign vertices (highest degree first) to positions, keeping the best
    `beam` partial assignments per level by max meeting cycle.

    beam=1 is the greedy search, beam=None expands every branch and is exact;
    a beam below 1 is a ValueError.  Returns the mapping and its finishing
    cycle count, which equals the depth of the pruned pattern under that
    mapping.
    """
    n = g.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if beam is not None and beam < 1:
        raise ValueError(f"beam must be at least 1, got {beam}")
    table = _meet_table(n)
    order = _search_order(g)
    vertex_level = {v: k for k, v in enumerate(order)}

    # partial_pi holds positions aligned with the `order` prefix
    frontier = [MappingSearchNode((), -1)]
    salt = None
    if tie_seed:
        salt = random_initial_mapping(n, tie_seed).pi
    for level, v in enumerate(order):
        nbrs = [u for u in g.adj[v] if vertex_level[u] < level]
        children = []
        for node in frontier:
            used = set(node.partial_pi)
            for p in range(n):
                if p in used:
                    continue
                c = node.cost
                for u in nbrs:
                    m = table[p][node.partial_pi[vertex_level[u]]]
                    if m > c:
                        c = m
                children.append(MappingSearchNode(node.partial_pi + (p,), c))
        if salt is not None:
            children.sort(key=lambda ch: (ch.cost, [salt[p] for p in ch.partial_pi]))
        else:
            children.sort(key=lambda ch: (ch.cost, ch.partial_pi))
        frontier = children if beam is None else children[:beam]

    best = frontier[0]
    pi = [0] * n
    for k, v in enumerate(order):
        pi[v] = best.partial_pi[k]
    return Mapping(tuple(pi)), best.cost + 1 if g.edges else 0


def iso_initial_mapping(
    g: ProblemGraph, budget: int = ISO_NODE_BUDGET
) -> tuple[Mapping, int]:
    """astar_initial_mapping refined by an exact, node-budgeted search.

    Depth-first branch and bound over the meet table in astar's vertex
    order, starting from the beam-8 astar mapping as the incumbent and
    looking only for strictly fewer finishing cycles.  A vertex of degree d
    placed at position p cannot finish before the d-th smallest meet in row
    p of the table (it meets one partner per cycle), which bounds every
    placement from below.  The search ends when it proves the incumbent
    optimal, meets the bound over all positions, or has tried `budget`
    placements; it returns the best mapping found and its finishing cycle
    count, as astar_initial_mapping does.
    """
    mapping, depth = astar_initial_mapping(g)
    n = g.n
    table = _meet_table(n)
    order = _search_order(g)
    level = {v: k for k, v in enumerate(order)}
    # floor[k][p]: earliest cycle by which position p has met all of
    # order[k]'s partners, one per cycle
    rows = [sorted(m for q, m in enumerate(row) if q != p) for p, row in enumerate(table)]
    floor = [[row[g.degree(v) - 1] if g.adj[v] else -1 for row in rows] for v in order]
    placed_nbrs = [[level[u] for u in g.adj[v] if level[u] < k] for k, v in enumerate(order)]
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
    pi = [0] * n
    for k, v in enumerate(order):
        pi[v] = best_pos[k]
    return Mapping(tuple(pi)), best + 1
