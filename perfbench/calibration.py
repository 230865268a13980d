"""Interpreter-speed calibration for wall-clock times on a shared host.

On a shared virtual machine the same compile can run 1.5x slower for tens of
seconds at a time while other tenants load the host; CPU time slows just as
much, so it does not help.  The benchmark therefore runs a fixed
pure-Python kernel right before and right after every timed compile, and
reports each compile at a reference speed:

    reported seconds = measured seconds * NOMINAL_S / kernel seconds

where kernel seconds is the median, over the compile and its WINDOW
neighbours on either side, of the mean kernel time around each of them.
The kernel uses no ctagsched code, so a change to the package moves the
reported times exactly as it moves the measured ones.  Raw wall times are
kept beside the reported ones in the run's output file.
"""
from __future__ import annotations

import statistics
from time import perf_counter

# one kernel run on a 2.0 GHz x86-64 VM with the host lightly loaded
NOMINAL_S = 0.004
SAMPLES = 3
WINDOW = 3


def kernel() -> int:
    """All-pairs BFS on an 8x8 grid plus tuple/dict/sort work: the kind of
    small-object Python the scheduler spends its time in."""
    n = 8
    q = n * n
    adj: list[list[int]] = [[] for _ in range(q)]
    for r in range(n):
        for c in range(n):
            i = r * n + c
            if c + 1 < n:
                adj[i].append(i + 1)
                adj[i + 1].append(i)
            if r + 1 < n:
                adj[i].append(i + n)
                adj[i + n].append(i)
    total = 0
    for s in range(q):
        d = [-1] * q
        d[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if d[y] < 0:
                        d[y] = d[x] + 1
                        nxt.append(y)
            frontier = nxt
        pairs = {(min(s, t), max(s, t)): d[t] for t in range(q)}
        total += sum(sorted(pairs.values()))
    return total


def sample() -> float:
    """Mean seconds of one kernel run over SAMPLES runs."""
    t0 = perf_counter()
    for _ in range(SAMPLES):
        kernel()
    return (perf_counter() - t0) / SAMPLES


def factors(kernel_means: list[float]) -> list[float]:
    """Scale factor for each timed item, from the kernel means around the
    items in time order (see the module docstring)."""
    out = []
    for i in range(len(kernel_means)):
        near = kernel_means[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(NOMINAL_S / statistics.median(near))
    return out
