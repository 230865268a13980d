"""CTAG schedule patterns on a linear chain.

The clique pattern alternates two CPHASE layers with two SWAP layers so that
every qubit pair becomes adjacent, and executes, exactly once within 2n-2
cycles.  _layer_stream yields those layers over chain positions 0..n-1 as
(kind, a, b): the pairs (a, a + 1), (a + 2, a + 3), ... below b.  _walk is
the one walk of the layers: it moves a caller's occupancy list across each
SWAP layer.  _pattern_cycles walks it with logical qubits, lays the pattern
on a chain of a device's sites and keeps only the CPHASEs of an input graph
under an initial mapping, and prune_pattern trims what it yields to a
circuit.  The full pattern is the pruning of the clique onto linear(n)
under the natural mapping.  _meets walks it with start positions; the meet
table (the cycle at which any two start positions execute) and
initial_mapping's bit masks are read from it, and the table gives a pruned
pattern's depth, gates and state after k cycles without building it.  The
2xN grid variant folds the full pattern laid on a two-row snake chain: each
S0 cycle, which only swaps the two sites of every column, becomes a
relabelling of the rows.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from ctagsched.graphs import (
    Architecture,
    Edge,
    Mapping,
    ProblemGraph,
    _check_int,
    _nogc,
    clique,
    grid,
    identity_mapping,
    linear,
)

CPHASE = "cphase"
SWAP = "swap"


class Gate(NamedTuple):
    kind: str
    a: int
    b: int
    # logical pair executed by a CPHASE, carried for provenance only; the
    # verifier recomputes it independently
    logical: tuple[int, int] | None = None


class ScheduledCircuit(NamedTuple):
    """Cycle-by-cycle schedule; each cycle holds qubit-disjoint gates."""

    cycles: tuple[tuple[Gate, ...], ...]
    init: Mapping
    arch: Architecture

    @property
    def depth(self) -> int:
        return len(self.cycles)

    @property
    def cphase_count(self) -> int:
        return sum(1 for cyc in self.cycles for g in cyc if g.kind == CPHASE)

    @property
    def swap_count(self) -> int:
        return sum(1 for cyc in self.cycles for g in cyc if g.kind == SWAP)


def _layer_stream(n: int):
    """Untrimmed (kind, a, b) stream of the clique pattern.

    A layer pairs each chain position from a to b - 1 with the next, that
    is the pairs (a, a + 1), (a + 2, a + 3), ..., (b - 2, b - 1); a is 0 for
    E0 and S0 and 1 for E1 and S1, and b - a is even.  2n-2 layers that
    cycle E0 E1 S1 S0.  For odd n the last layer, an S0, is E0 instead: a
    trailing S0 would only permute within the pairs that E0 executes, so the
    same pairs meet without it and the 2n-2 bound still holds.
    """
    e0, e1 = (0, n - n % 2), (1, n - (n - 1) % 2)
    loop = ((CPHASE, *e0), (CPHASE, *e1), (SWAP, *e1), (SWAP, *e0))
    for t in range(2 * n - 2):
        yield (CPHASE, *e0) if n % 2 and t == 2 * n - 3 else loop[t % 4]


def _walk(n: int, occ: list):
    """_layer_stream(n), moving the caller's occupancy list along.

    occ[p] is whatever sits on chain position p.  A SWAP layer exchanges
    the even and the odd positions of its span, occ[a:b:2] and
    occ[a + 1:b:2], before it is yielded, so a reader sees occ as it stands
    during each CPHASE layer and after each SWAP layer.
    """
    for kind, a, b in _layer_stream(n):
        if kind == SWAP:
            occ[a:b:2], occ[a + 1 : b : 2] = occ[a + 1 : b : 2], occ[a:b:2]
        yield kind, a, b


def _meets(n: int):
    # each cycle's start positions in chain order, so consecutive entries
    # (the 2i-th and the 2i+1-th) meet at that cycle; empty at a SWAP cycle
    occ = list(range(n))  # occ[position] = start position of the qubit now there
    for kind, a, b in _walk(n, occ):
        yield occ[a:b] if kind == CPHASE else []


@_nogc
def generate_clique_pattern(n: int) -> ScheduledCircuit:
    """Clique schedule on linear(n) with the natural-order initial mapping.

    n is a plain int of at least 2, which clique(n) checks.  Abstract depth
    is 2n-2 for n >= 3 and 1 for n=2; every unordered pair executes exactly
    once.  Runs with the cyclic garbage collector paused, clique(n) too (see
    graphs._nogc).
    """
    return prune_pattern(clique(n), identity_mapping(n), linear(n), range(n))


def _trim(cycles) -> tuple[tuple[Gate, ...], ...]:
    # drop everything after the last cycle that still executes a CPHASE,
    # found from the end; the cycles are tuples already
    last = len(cycles) - 1
    while last >= 0 and not any(g.kind == CPHASE for g in cycles[last]):
        last -= 1
    return tuple(cycles[: last + 1])


def _check_positions(g: ProblemGraph, m: Mapping, name: str) -> None:
    # a pattern's mapping places each of g's vertices on a chain position
    n = g.n
    if m.n != n or any(not 0 <= p < n for p in m.pi):
        raise ValueError(f"{name} must place g's vertices onto positions 0..n-1")


def _pattern_cycles(g: ProblemGraph, init: Mapping, arch: Architecture, chain):
    """Each cycle of the clique pattern laid on `chain` in arch and
    restricted to g's edges under init, one per layer of the stream and
    none trimmed, built only as far as the reader takes it.

    init places each logical qubit on a chain position 0..n-1, and position
    p is site chain[p].  _walk moves the logical qubits of occ across the
    SWAP layers, and a CPHASE layer's qubits are two slices of occ (the even
    and the odd positions from a).  SWAP layers are kept whole (the two
    distinct ones, keyed by a, are built once and shared), and a CPHASE is
    kept only when the logical pair on its two positions is an edge of g.
    """
    n = g.n
    if len(chain) != n or not arch.is_chain(chain):
        raise ValueError(f"chain must be {n} distinct coupled sites of {arch.name}")
    _check_positions(g, init, "init")
    occ = sorted(range(n), key=init.pi.__getitem__)  # occ[position] = logical qubit
    edges = g.edges
    # link[p]: the sites of chain positions p and p + 1, smaller first
    link = [(a, b) if a < b else (b, a) for a, b in zip(chain, chain[1:])]
    # a Gate straight from its four fields, without NamedTuple's argument
    # handling
    new = tuple.__new__
    swap_layers: dict[int, tuple[Gate, ...]] = {}
    for kind, a, b in _walk(n, occ):
        if kind == SWAP:
            layer = swap_layers.get(a)
            if layer is None:
                layer = swap_layers[a] = tuple(
                    new(Gate, (SWAP, x, y, None)) for x, y in link[a:b:2]
                )
            yield layer
            continue
        gates = []
        for la, lb, (x, y) in zip(occ[a:b:2], occ[a + 1 : b : 2], link[a:b:2]):
            pair = (la, lb) if la < lb else (lb, la)
            if pair in edges:
                gates.append(new(Gate, (CPHASE, x, y, pair)))
        yield tuple(gates)


@_nogc
def prune_pattern(
    g: ProblemGraph, init: Mapping, arch: Architecture, chain
) -> ScheduledCircuit:
    """Clique pattern laid on `chain` in arch, restricted to g's edges under init.

    One walk of the layer stream, through _pattern_cycles.  Execution cycles
    emptied by pruning stay as empty cycles (the SWAP cadence around them is
    unchanged), but everything after the last surviving CPHASE is removed.
    Runs with the cyclic garbage collector paused (see graphs._nogc).
    """
    cycles = _trim(tuple(_pattern_cycles(g, init, arch, chain)))
    return ScheduledCircuit(cycles, Mapping(tuple(chain[p] for p in init.pi)), arch)


@lru_cache(maxsize=None)
def _meet_table(n: int) -> tuple[tuple[int, ...], ...]:
    # table[u][v]: the cycle at which start positions u and v meet, read
    # off the one walk of the pattern's layers through _meets
    table = [[-1] * n for _ in range(n)]
    for c, met in enumerate(_meets(n)):
        it = iter(met)
        for u, v in zip(it, it):
            table[u][v] = table[v][u] = c
    return tuple(tuple(row) for row in table)


def meet_cycle(n: int, pos_a: int, pos_b: int) -> int:
    """0-based cycle at which the qubits starting at pos_a and pos_b execute.

    n is a plain int of at least 2 and the positions two distinct plain
    ints below n; anything else raises ValueError."""
    _check_int(n, "n", 2)
    for pos, name in ((pos_a, "pos_a"), (pos_b, "pos_b")):
        if _check_int(pos, name, 0) >= n:
            raise ValueError(f"{name} must be below n={n}, got {pos}")
    if pos_a == pos_b:
        raise ValueError("positions must differ")
    return _meet_table(n)[pos_a][pos_b]


def _swaps_before(n: int, t: int) -> int:
    # SWAPs in the pattern's first t cycles: pruning keeps every SWAP layer
    return sum((b - a) // 2 for kind, a, b in islice(_layer_stream(n), t) if kind == SWAP)


@lru_cache(maxsize=1)
def _meet_counts(g: ProblemGraph, m0: Mapping) -> Counter:
    # how many of g's edges fire at each cycle of the pattern under m0 (an
    # edge fires at the meet cycle of its endpoints' start positions); the
    # pattern key and the prefix length of one mapping both read it, so the
    # last mapping's counts are kept.  Callers must not change them.
    pi, table = m0.pi, _meet_table(g.n)
    return Counter(table[pi[u]][pi[v]] for u, v in g.edges)


def _pattern_key(g: ProblemGraph, m0: Mapping) -> tuple[int, int]:
    # (depth, gates) of the pattern pruned to g under m0 on any chain: the
    # pattern ends after the latest cycle that fires an edge (depth 0
    # without edges), and its gates are g's edges and the SWAPs of its cycles
    depth = 1 + max(_meet_counts(g, m0), default=-1)
    return depth, len(g.edges) + _swaps_before(g.n, depth)


def _routed_start(g: ProblemGraph, m0: Mapping, chain, k: int) -> tuple[Mapping, set[Edge], int]:
    # the pattern on `chain` under m0 after its first k cycles: each qubit's
    # site, from a walk of its first k layers, the edges it has not run
    # (those whose meet cycle is k or later) and the gates it has run
    n, pi, table = g.n, m0.pi, _meet_table(g.n)
    occ = sorted(range(n), key=pi.__getitem__)  # occ[position] = logical qubit
    swaps = sum((b - a) // 2 for kind, a, b in islice(_walk(n, occ), k) if kind == SWAP)
    sites = Mapping(tuple(chain[p] for p in sorted(range(n), key=occ.__getitem__)))
    remaining = {(u, v) for u, v in g.edges if table[pi[u]][pi[v]] >= k}
    return sites, remaining, len(g.edges) - len(remaining) + swaps


@_nogc
def generate_2xn_pattern(n: int) -> ScheduledCircuit:
    """Clique schedule on grid(2, ceil(n/2)) in 3n/2-1 cycles (even n).

    The line pattern laid on the boustrophedon chain of the two rows, folded:
    each of its S0 cycles only swaps the two sites of every column, so the
    fold drops it and lays every later gate on the other row instead, which
    removes one cycle per loop.  Gates keep their sites in chain-position
    order.  Odd n keeps one grid site empty (the last column's second) and
    pays one real SWAP per dropped cycle to carry the lone last-column qubit
    across; that SWAP shares a cycle with the next CPHASE layer, which never
    touches the last column, so the depth is 3(n-1)/2+1.  n is a plain int
    of at least 4.  Runs with the cyclic garbage collector paused (see
    graphs._nogc).
    """
    _check_int(n, "n", 4)
    cols = (n + 1) // 2
    arch = grid(2, cols)
    # snake[p]: row (p & 1) ^ (p // 2 & 1) of column p // 2
    snake = tuple(((p & 1) ^ (p // 2 & 1)) * cols + p // 2 for p in range(n))
    line = prune_pattern(clique(n), identity_mapping(n), arch, snake)
    pos = {s: p for p, s in enumerate(snake)}
    # rows[o][p]: the site of chain position p after o row swaps (mod 2)
    rows = (snake, tuple((s + cols) % (2 * cols) for s in snake))
    o, pending, cycles = 0, [], []
    for cyc, (kind, start, _) in zip(line.cycles, _layer_stream(n)):
        if kind == SWAP and start == 0:  # an S0 cycle: swap the rows
            if n % 2:
                pending = [Gate(SWAP, rows[o][n - 1], rows[o ^ 1][n - 1])]
            o ^= 1
            continue
        gates, pending = pending, []
        for g in cyc:
            a, b = sorted((pos[g.a], pos[g.b]))
            gates.append(Gate(g.kind, rows[o][a], rows[o][b], g.logical))
        cycles.append(tuple(gates))
    return ScheduledCircuit(tuple(cycles), line.init, arch)


def cycle_line(t: int, cyc) -> str:
    """Text line of cycle t: "t: CPHASE(a,b) SWAP(c,d) ..."."""
    ops = " ".join(f"{g.kind.upper()}({g.a},{g.b})" for g in cyc)
    return f"{t}: {ops}".rstrip()


def to_text(circ: ScheduledCircuit) -> str:
    """The cycle_line of each cycle, joined by newlines, plus a final one."""
    return "\n".join(cycle_line(t, cyc) for t, cyc in enumerate(circ.cycles)) + "\n"


def to_json_dict(circ: ScheduledCircuit) -> dict:
    return {
        "arch": circ.arch.name,
        "q": circ.arch.q,
        "init": list(circ.init.pi),
        "cycles": [
            [
                {"kind": g.kind, "a": g.a, "b": g.b}
                | ({"logical": list(g.logical)} if g.logical else {})
                for g in cyc
            ]
            for cyc in circ.cycles
        ],
    }


def from_json_dict(doc: dict, arch: Architecture) -> ScheduledCircuit:
    # a site is a JSON integer: json reads 1e400 as inf and true as a bool,
    # and Mapping checks the sites of init
    try:
        init = Mapping(tuple(doc["init"]))
        cycles = tuple(
            tuple(
                Gate(
                    str(g["kind"]),
                    _check_int(g["a"], "site"),
                    _check_int(g["b"], "site"),
                    tuple(g["logical"]) if g.get("logical") else None,
                )
                for g in cyc
            )
            for cyc in doc["cycles"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed schedule document: {exc}") from None
    for cyc in cycles:
        for g in cyc:
            if g.kind not in (CPHASE, SWAP):
                raise ValueError(f"unknown gate kind {g.kind!r}")
    return ScheduledCircuit(cycles, init, arch)
