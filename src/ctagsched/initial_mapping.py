"""Initial logical-to-position assignments for the line pattern.

The pruned pattern fires each edge at the meet-table cycle of its endpoints'
start positions, so the mapping alone sets the depth.  Both searches place
vertices in one order (_search_order), score a placement by its meets with
the neighbours placed before it, and build their result with _as_mapping.

astar_initial_mapping scores each level of its beam search one of two ways,
with the same children kept either way.  A narrow level, whose vertex has
fewer than WIDE_LEVEL placed neighbours, reads those neighbours' meet rows
for every free position.  A wide level rejects positions with bit
operations instead: _MeetMasks holds, for a working cycle T, the
positions that each position meets after T, so one OR
over the neighbours' masks drops every position that would cost more than
T, and only the rest are scored exactly, by a walk down a partner row.
The masks follow one search's T and are its only per-search cost; the
pair arrays that move T and the partner rows are facts of n alone, built
whole once per n (_mask_tables) at the first wide level that needs them
and shared by every later search.  Once every parent of a level costs the
pattern's last cycle, the search is settled and stops scoring (see
astar_initial_mapping); a complete graph is settled before the first
level, so neither search builds one there.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from heapq import heappush, heapreplace
from operator import itemgetter, or_
from typing import NamedTuple

from ctagsched.graphs import Mapping, ProblemGraph, _check_int, random_initial_mapping
from ctagsched.pattern import _meet_table, _meets

__all__ = [
    "ISO_NODE_BUDGET",
    "WIDE_LEVEL",
    "astar_initial_mapping",
    "iso_initial_mapping",
    "random_initial_mapping",
]

# Placements iso_initial_mapping may try before it keeps its best mapping.
# On one x86-64 core that is 0.5-1 s of search at n=40 and about 2 s at
# n=100; random graphs with n <= 10 reach their result within 2,000.
ISO_NODE_BUDGET = 100_000

# Placed neighbours from which a level of astar_initial_mapping takes the
# mask path.  A wide level pays a flip per pair of each cycle that T
# crosses and a partner walk per survivor, where a narrow one reads a meet
# row per neighbour for every free position, so the masks gain as the
# neighbours grow.  On one x86-64 core (Python 3.11), summing the min of 7
# calls over the astar calls schedule() makes on the line-dense benchmark's
# graphs (seeds 1-2, n = 100-200), a cutoff of 8 ran 15-17% faster than 24,
# and 4 and 1 only 4-6% and 6-7% faster than 8; on the route-sparse
# graphs (n <= 49, at most 13 placed neighbours per level) 8 ran within
# 1.5% of 24, where 6, 4 and 1 ran 3-4%, 9% and 15-16% slower than 8.
WIDE_LEVEL = 8


def _search_order(g: ProblemGraph) -> tuple[list[int], list[list[int]]]:
    # highest degree first, so the most constrained vertices are placed
    # early; nbrs[k] holds the levels of order[k]'s earlier neighbours
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    level = {v: k for k, v in enumerate(order)}
    nbrs = [[level[u] for u in g.adj[v] if level[u] < k] for k, v in enumerate(order)]
    return order, nbrs


def _complete(g: ProblemGraph) -> bool:
    # every mapping of a complete graph on n >= 3 vertices runs the whole
    # pattern; K2's one pair meets at cycle 0, before the last cycle
    n = g.n
    return n > 2 and g.m == n * (n - 1) // 2


def _as_mapping(order: list[int], positions) -> Mapping:
    # positions[k] is the position of order[k]
    pi = [0] * len(order)
    for v, p in zip(order, positions):
        pi[v] = p
    return Mapping(tuple(pi))


# A partial assignment: the positions of an order prefix, its max meet so
# far (-1 before any edge) and its positions as a bit mask
_Node = tuple[tuple[int, ...], int, int]
# A level's kept children, negated so that the heap's top is the worst:
# (-cost, -parent rank, -salt[p], -p)
_Heap = list[tuple[int, int, int, int]]


def astar_initial_mapping(
    g: ProblemGraph, beam: int = 8, tie_seed: int = 0
) -> tuple[Mapping, int]:
    """Assign vertices (highest degree first) to positions, keeping the best
    `beam` partial assignments per level by max meeting cycle.

    beam=1 is the greedy search.  A beam that is not an int of at least 1
    is a ValueError, and so is a tie_seed that is not an int.
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
    W only improves, so no child the bar cuts could have been kept.  The
    heap holds the `beam` smallest keys whatever order the children come
    in, so the two ways of scoring a level keep the same children:

    - A narrow level (fewer than WIDE_LEVEL placed neighbours) reads the
      neighbours' meet rows per free position.  A child's cost only rises
      while its rows are read, so a scan stops as soon as the running cost
      passes the bar, and a parent already past it is skipped.
    - A wide level guesses a cycle T: the lowest parent cost plus the last
      level's slack, from that level's lowest parent cost to its worst kept
      child.  Masks drop every child that would cost more than T; the rest
      are scored exactly by a walk down their partner rows.  If the heap ends
      short of `beam` while T dropped a child, T rises and the level adds
      the children it now admits.

    Saturation: once a level's lowest parent cost is the pattern's last
    cycle, 2n-3, every parent costs it and so does every child, as no cost
    rises past the last cycle nor falls from parent to child.  The keys
    then differ in rank and salt alone, so each later level's first child
    is the first parent plus its free position of least salt, and the first
    parent wins the final tie.  The search returns that mapping at once,
    the first parent's prefix followed by its free positions in salt order.
    A complete graph on n >= 3 vertices is saturated before the first
    level: the pattern meets every pair, so every mapping runs to its last
    cycle, and the search returns the positions in salt order (the natural
    mapping at tie_seed 0) without building a level.
    """
    n = g.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    # a float beam would never fill the heap, so its bar would never apply
    _check_int(beam, "beam", 1)
    _check_int(tie_seed, "tie_seed")
    salt = random_initial_mapping(n, tie_seed).pi if tie_seed else range(n)
    if _complete(g):
        # saturated before the first level: every degree ties, so the order
        # is 0..n-1 and vertex k takes the position of k-th least salt
        return Mapping(tuple(sorted(range(n), key=salt.__getitem__))), 2 * n - 2
    table = _meet_table(n)
    order, nbrs = _search_order(g)
    bits = [1 << p for p in range(n)]  # bit p stands for position p
    masks = None  # built at the first wide level
    top = 2 * n - 3  # the last cycle of the pattern

    parents: list[_Node] = [((), -1, 0)]  # by salted prefix
    last_low = -1  # the previous level's lowest parent cost
    for k in range(n):
        low = min(node[1] for node in parents)
        if low == top:
            # saturated: every child now costs top, so only rank and salt
            # order the children, and the first parent's children by salt
            # lead every later level
            prefix, _, taken = parents[0]
            rest = sorted((p for p in range(n) if not taken & bits[p]), key=salt.__getitem__)
            return _as_mapping(order, prefix + tuple(rest)), top + 1
        if len(nbrs[k]) >= WIDE_LEVEL:
            # the lowest parent cost plus the last level's slack; no cost
            # falls from parent to child, so low >= last_low and the guess
            # is at least every parent's cost
            guess = low + max(node[1] for node in parents) - last_low
            if masks is None:
                tables = _mask_tables(n)
                masks = _MeetMasks(tables.pairs, bits, guess)
            heap = _masked_children(parents, nbrs[k], tables, masks, bits, salt, beam, guess)
        else:
            heap = _scanned_children(parents, nbrs[k], table, salt, beam)
        last_low = low
        # back to salted order: by parent rank, then by the new position's
        # salt (the entries are negated, hence the reverse sort)
        heap.sort(key=lambda ch: (ch[1], ch[2]), reverse=True)
        parents = [
            (parents[-r][0] + (-p,), -c, parents[-r][2] | bits[-p]) for c, r, _, p in heap
        ]

    # parents are in salted order, so the first of lowest cost wins ties
    prefix, cost, _ = min(parents, key=lambda node: node[1])
    return _as_mapping(order, prefix), cost + 1


def _bar(heap: _Heap, rank: int) -> int:
    # highest cost a child of parent `rank` may have and be kept, once the
    # heap is full
    w_cost, w_rank = -heap[0][0], -heap[0][1]
    return w_cost if w_rank == rank else w_cost - 1


def _scanned_children(parents: list[_Node], nbrs: list[int], table, salt, cap) -> _Heap:
    # one narrow level: each free position's cost read from the rows of its
    # placed neighbours, row after row until it passes the bar
    n = len(table)
    heap: _Heap = []
    lim = 2 * n  # above every meet cycle until the heap is full
    for rank, (prefix, cost, _) in enumerate(parents):
        if len(heap) == cap:
            lim = _bar(heap, rank)
            if cost > lim:
                continue
        used = set(prefix)
        rows = [table[prefix[j]] for j in nbrs]
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
                        lim = _bar(heap, rank)
                elif key > heap[0]:
                    heapreplace(heap, key)
                    lim = _bar(heap, rank)
    return heap


def _frozen(values, n: int):
    # entries are positions 0..n: bytes while they fit, else a read-only
    # view of 16-bit entries, so a shared table cannot be written
    if n < 256:
        return bytes(values)
    from array import array  # only a search at n >= 256 needs it

    return memoryview(array("H", values)).toreadonly()


class _MaskTables(NamedTuple):
    """The facts of n that the mask path reads, built whole by _mask_tables
    at the first wide level of a search on n and shared, never written, by
    every later search and thread.

    table is _meet_table(n).  pairs[c] holds the start positions on the
    pairs of cycle c in chain order, so consecutive entries meet at c
    (empty at a SWAP cycle), from the one walk of the pattern's layers that
    fills the meet table.  who[p] is p's partner at each cycle, n where it
    meets no one; its last entry, past the top, is p itself.
    """

    table: tuple[tuple[int, ...], ...]
    pairs: tuple
    who: tuple


@lru_cache(maxsize=None)
def _mask_tables(n: int) -> _MaskTables:
    table = _meet_table(n)
    pairs = tuple(_frozen(met, n) for met in _meets(n))
    who = []
    for p, row in enumerate(table):
        w = [n] * (2 * n - 1)
        for q, c in enumerate(row):
            w[c] = q  # c = -1 on the diagonal, which lands in the last slot
        who.append(_frozen(w, n))
    return _MaskTables(table, pairs, tuple(who))


class _MeetMasks:
    """One search's meet table as bit masks over start positions, at a
    working cycle T.

    above[q] holds the positions that meet q after cycle T.  A qubit meets
    one partner per cycle, so each row of the table has distinct values,
    and moving T by one cycle flips only the pairs that meet at that cycle,
    read from the shared _MaskTables.pairs.  The masks follow one search's
    T, so only they are built per search.
    """

    __slots__ = ("above", "T")

    def __init__(self, pairs, bits: list[int], T: int):
        # start from whichever end of the cycles lies closer to T: past the
        # top no pair meets, and before cycle 0 every pair does
        top = len(pairs) - 1
        if T > top // 2:
            self.T, self.above = top, [0] * len(bits)
        else:
            full = (1 << len(bits)) - 1
            self.T, self.above = -1, [full ^ bit for bit in bits]
        self.move(T, pairs, bits)

    def move(self, T: int, pairs, bits: list[int]) -> int:
        """Set the working cycle to T, at most the top, and return it."""
        T = min(T, len(pairs) - 1)
        above = self.above
        lo, hi = sorted((self.T, T))
        for chain in pairs[lo + 1 : hi + 1]:
            it = iter(chain)
            for a, b in zip(it, it):
                above[a] ^= bits[b]
                above[b] ^= bits[a]
        self.T = T
        return T


def _masked_children(
    parents: list[_Node],
    nbrs: list[int],
    tables: _MaskTables,
    masks: _MeetMasks,
    bits: list[int],
    salt,
    cap: int,
    T: int,
) -> _Heap:
    # one wide level: the heap _scanned_children would build.  A pass at
    # cycle T takes the children of cost at most T: a free position
    # survives when no placed neighbour meets it after T, and its exact cost
    # is the first neighbour met on a walk down its partners from T.  A heap
    # left short of cap while T dropped a child takes further passes at
    # rising T, each adding only the positions it newly admits.  T starts
    # at or above every parent's cost (see astar_initial_mapping), so no
    # parent is dropped whole.
    table, pairs, who = tables
    n = len(table)
    full = (1 << n) - 1
    # the positions of a parent's placed neighbours, always as a tuple
    placed = itemgetter(*nbrs) if len(nbrs) > 1 else lambda prefix: (prefix[nbrs[0]],)
    heap: _Heap = []
    seen: dict[int, tuple] = {}  # rank: (neighbours, membership test, positions scored)
    step = 1
    while True:
        T = masks.move(T, pairs, bits)
        above = masks.above
        lim = 2 * n
        cut = False
        for rank, (prefix, cost, taken) in enumerate(parents):
            if len(heap) == cap:
                lim = _bar(heap, rank)
                if cost > lim:
                    continue
            if rank in seen:
                near, is_near, done = seen[rank]
            else:
                near = placed(prefix)
                is_near, done = set(near).__contains__, 0
            # free positions that some placed neighbour meets after T
            free = full ^ taken
            late = free & reduce(or_, map(above.__getitem__, near))
            if late:
                cut = True
            fresh = free ^ late
            seen[rank] = (near, is_near, fresh)
            fresh ^= done  # only the positions this T newly admits
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                p = low.bit_length() - 1
                c = table[p][next(filter(is_near, reversed(who[p][: T + 1])))]
                if c < cost:
                    c = cost
                elif c > lim:
                    continue
                key = (-c, -rank, -salt[p], -p)
                if len(heap) < cap:
                    heappush(heap, key)
                    if len(heap) == cap:
                        lim = _bar(heap, rank)
                elif key > heap[0]:
                    heapreplace(heap, key)
                    lim = _bar(heap, rank)
        if len(heap) == cap or not cut:  # at the top no neighbour meets later
            return heap
        T += step
        step *= 2


def iso_initial_mapping(g: ProblemGraph, beam: int = 8, tie_seed: int = 0) -> tuple[Mapping, int]:
    """astar_initial_mapping refined by an exact, node-budgeted search.

    Depth-first branch and bound over the meet table in astar's vertex
    order, starting from astar's mapping under `beam` and `tie_seed` as
    the incumbent and looking only for strictly fewer finishing cycles.
    beam and tie_seed take astar's defaults.  A vertex of degree d
    placed at position p cannot finish before the d-th smallest meet in row
    p of the table (it meets one partner per cycle), which bounds every
    placement from below.  The search ends when it proves the incumbent
    optimal, meets the bound over all positions, or has tried
    ISO_NODE_BUDGET placements, read at each call; it returns the best
    mapping found and its finishing cycle count, as astar_initial_mapping
    does.  A bad beam or tie_seed is a ValueError.  On a complete graph
    every mapping ties with the incumbent, so astar's mapping is returned
    without a search.
    """
    budget = ISO_NODE_BUDGET
    mapping, depth = astar_initial_mapping(g, beam, tie_seed)
    if _complete(g):
        return mapping, depth
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
