"""Schedule verification oracle, depth/gate metrics, and a brute-force
optimal-depth search for tiny instances.

The verifier replays a circuit from its initial mapping and derives every
CPHASE's logical pair itself, so it never trusts the provenance annotations
the generators attach.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from ctagsched.graphs import Architecture, Mapping, ProblemGraph
from ctagsched.pattern import CPHASE, SWAP, ScheduledCircuit

# Baseline compile time (seconds) and decomposed depth reported for QAIM_IC
# on clique inputs; external reference data, not reproduced here.
QAIM_IC_REFERENCE = {
    10: (0.6, 79),
    30: (6.6, 530),
    50: (27.3, 1408),
    100: (265.4, 5053),
    200: (3671.1, 21189),
}


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    executed_pairs: tuple[tuple[int, int], ...]
    missing: frozenset[tuple[int, int]]
    duplicated: frozenset[tuple[int, int]]
    illegal_gates: tuple[tuple[int, str, int, int, str], ...]
    final_mapping: Mapping | None

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "executed_pairs": [list(p) for p in self.executed_pairs],
            "missing": sorted(list(p) for p in self.missing),
            "duplicated": sorted(list(p) for p in self.duplicated),
            "illegal_gates": [
                {"cycle": c, "kind": k, "a": a, "b": b, "reason": r}
                for c, k, a, b, r in self.illegal_gates
            ],
            "final_mapping": list(self.final_mapping.pi) if self.final_mapping else None,
        }


def verify(c: ScheduledCircuit, g: ProblemGraph, arch: Architecture) -> VerificationReport:
    """Replay c and check it executes exactly the edges of g on arch.

    Structural violations (an init that does not place exactly g.n qubits,
    non-coupled gates, qubit conflicts within a cycle, gates on sites holding
    no logical qubit) are collected in illegal_gates; an illegal gate is
    skipped rather than applied.  ok holds iff the executed multiset equals
    g.edges exactly once each and nothing illegal occurred.
    """
    illegal = []
    if c.init.n != g.n:
        reason = f"init places {c.init.n} qubits, graph has {g.n}"
        illegal.append((-1, "init", c.init.n, g.n, reason))
    occ: dict[int, int] = {}
    for logical, site in enumerate(c.init.pi):
        if not 0 <= site < arch.q:
            illegal.append((-1, "init", logical, site, "mapped to missing qubit"))
        else:
            occ[site] = logical
    executed: Counter = Counter()
    order = []
    for t, cyc in enumerate(c.cycles):
        used: set[int] = set()
        for gate in cyc:
            a, b = gate.a, gate.b
            if not (0 <= a < arch.q and 0 <= b < arch.q) or a == b:
                illegal.append((t, gate.kind, a, b, "invalid qubit pair"))
                continue
            if not arch.coupled(a, b):
                illegal.append((t, gate.kind, a, b, "qubits not coupled"))
                continue
            if a in used or b in used:
                illegal.append((t, gate.kind, a, b, "qubit used twice in cycle"))
                continue
            used.update((a, b))
            if gate.kind == SWAP:
                va, vb = occ.pop(a, None), occ.pop(b, None)
                if va is not None:
                    occ[b] = va
                if vb is not None:
                    occ[a] = vb
            elif gate.kind == CPHASE:
                la, lb = occ.get(a), occ.get(b)
                if la is None or lb is None:
                    illegal.append((t, gate.kind, a, b, "no logical qubit on site"))
                    continue
                pair = (la, lb) if la < lb else (lb, la)
                executed[pair] += 1
                order.append(pair)
            else:
                illegal.append((t, gate.kind, a, b, f"unknown kind {gate.kind!r}"))
    missing = frozenset(e for e in g.edges if executed[e] == 0)
    duplicated = frozenset(
        p for p, k in executed.items() if k > (1 if p in g.edges else 0)
    )
    final = None
    if not illegal:
        back = {l: s for s, l in occ.items()}
        final = Mapping(tuple(back[l] for l in range(g.n)))
    return VerificationReport(
        ok=not missing and not duplicated and not illegal,
        executed_pairs=tuple(order),
        missing=missing,
        duplicated=duplicated,
        illegal_gates=tuple(illegal),
        final_mapping=final,
    )


@dataclass(frozen=True)
class Metrics:
    abstract_depth: int
    decomposed_depth: int
    cphase_count: int
    swap_count: int
    decomposed_gate_count: int

    def to_json_dict(self) -> dict:
        return {
            "abstract_depth": self.abstract_depth,
            "decomposed_depth": self.decomposed_depth,
            "cphase_count": self.cphase_count,
            "swap_count": self.swap_count,
            "decomposed_gate_count": self.decomposed_gate_count,
        }


def metrics(c: ScheduledCircuit, n: int) -> Metrics:
    """Cycle and gate counts under the 3-cycle decomposition convention.

    CPHASE and SWAP each decompose to 3 cycles / 3 elementary gates; the +2
    covers the Hadamard layer and the RX rotation layer, the +2n their gates.
    """
    cp = c.cphase_count
    sw = c.swap_count
    d = len(c.cycles)
    return Metrics(
        abstract_depth=d,
        decomposed_depth=3 * d + 2,
        cphase_count=cp,
        swap_count=sw,
        decomposed_gate_count=3 * cp + 3 * sw + 2 * n,
    )


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
