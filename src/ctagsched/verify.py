"""Schedule verification oracle and depth/gate metrics.

The verifier replays a circuit from its initial mapping and derives every
CPHASE's logical pair itself, so it never trusts the provenance annotations
the generators attach.
"""
from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from ctagsched.graphs import Architecture, Mapping, ProblemGraph, _check_int
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


class VerificationReport(NamedTuple):
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
    a gate whose sites are not two distinct plain ints below arch.q,
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
            if not (type(a) is type(b) is int and 0 <= a < arch.q and 0 <= b < arch.q) or a == b:
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


class Metrics(NamedTuple):
    abstract_depth: int
    decomposed_depth: int
    cphase_count: int
    swap_count: int
    decomposed_gate_count: int

    def to_json_dict(self) -> dict:
        return self._asdict()


def metrics(c: ScheduledCircuit, n: int) -> Metrics:
    """Cycle and gate counts under the 3-cycle decomposition convention.

    CPHASE and SWAP each decompose to 3 cycles / 3 elementary gates; the +2
    covers the Hadamard layer and the RX rotation layer, the +2n their gates.
    n is the qubit count, a plain int of at least 1.
    """
    _check_int(n, "n", 1)
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
