"""Acceptance gate: the headline guarantees, one test per criterion.

Each test prints a single ``ACCEPTANCE k: PASS/FAIL`` line (visible under
``pytest -s``; under plain ``pytest -v`` the per-test verdicts carry the same
information) and then asserts, so a regression fails loudly.
"""

import statistics
import time
from itertools import permutations

from ctagsched.graphs import (
    clique,
    grid,
    identity_mapping,
    linear,
    make_architecture,
    make_problem_graph,
    random_graph,
)
from ctagsched.initial_mapping import astar_initial_mapping
from ctagsched.pattern import (
    CPHASE,
    _layer_stream,
    generate_2xn_pattern,
    generate_clique_pattern,
    meet_cycle,
    prune_pattern,
)
from ctagsched.scheduler import SchedulerConfig, schedule
from ctagsched.verify import metrics, verify
from reference_models import (
    _rank_of_start,
    brute_force_optimal,
    interaction_ranks,
    position_at,
)

# brute-force optima for cliques on matching-size chains, computed once by
# brute_force_optimal and frozen
BRUTE_CLIQUE_OPT = {3: 4, 4: 6, 5: 8}

# six-vertex path plus each admissible chord set; identity mapping finishes
# these at cycle 8 (depth 9), an optimized mapping at depth 5 / 4
PATH6 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
CHORD_SETS = ([(1, 3)], [(2, 4)], [(1, 3), (2, 4)])
LADDER6 = [(0, 1), (2, 3), (4, 5), (1, 2), (3, 4)]


def report(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_acceptance_01_clique_pattern_coverage_and_bound():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 65):
        c = generate_clique_pattern(n)
        bound = 2 * n - 2 if n > 2 else 1
        if not verify(c, clique(n), linear(n)).ok:
            ok = False
        if c.depth > max(bound, 1):
            ok = False
        if n >= 4 and n % 2 == 0 and c.depth != 2 * n - 2:
            ok = False
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 5.0,
           f"n=2..64 all verified, depth <= 2n-2 (equality for even n>=4), {elapsed:.2f}s")


def test_acceptance_02_decomposed_depth_table():
    expect = {10: 56, 30: 176, 50: 296, 100: 596, 200: 1196}
    got = {n: metrics(generate_clique_pattern(n), n).decomposed_depth for n in expect}
    report(2, got == expect, f"decomposed clique depths {got}")


def test_acceptance_03_n200_compile_under_a_second():
    t0 = time.perf_counter()
    c = generate_clique_pattern(200)
    ok = verify(c, clique(200), linear(200)).ok
    elapsed = time.perf_counter() - t0
    report(3, ok and elapsed < 1.0, f"n=200 generate+verify {elapsed:.3f}s")


def test_acceptance_04_2xn_depth_formulas():
    ok = True
    for n in range(4, 33, 2):
        c = generate_2xn_pattern(n)
        if c.depth != 3 * n // 2 - 1 or not verify(c, clique(n), grid(2, n // 2)).ok:
            ok = False
    for n in range(5, 32, 2):
        c = generate_2xn_pattern(n)
        if c.depth != 3 * (n - 1) // 2 + 1:
            ok = False
        if not verify(c, clique(n), grid(2, (n + 1) // 2)).ok:
            ok = False
    report(4, ok, "2xN depths 3n/2-1 (even) and 3(n-1)/2+1 (odd), n=4..32, verified")


def test_acceptance_05_factor_two_at_desk_scale():
    ok = True
    detail = []
    for n in (3, 4, 5):
        opt = brute_force_optimal(clique(n), linear(n))
        if opt != BRUTE_CLIQUE_OPT[n]:
            ok = False
        depth = generate_clique_pattern(n).depth
        detail.append(f"n={n}: {depth} <= 2*{opt}")
        if depth > 2 * opt:
            ok = False
    report(5, ok, "; ".join(detail))


def test_acceptance_06_density_bound():
    n = 50
    ok = True
    worst = 0.0
    for dens in (0.1, 0.3, 0.5):
        for seed in range(1, 101):
            g = random_graph(n, dens, seed)
            p = g.m / (n * (n - 1) // 2)
            bound = (2 / p) * -(-g.m // (n // 2))  # ceil division
            depth = prune_pattern(g, identity_mapping(n), linear(n), range(n)).depth
            worst = max(worst, depth / bound)
            if depth > bound:
                ok = False
    report(6, ok, f"300 pruned instances under (2/p)*ceil(m/25), worst ratio {worst:.3f}")


def test_acceptance_07_optimized_mapping_on_hard_six_vertex_class():
    ok = True
    details = []
    for chords in CHORD_SETS[:2] + ([(0, 5)],):
        g = make_problem_graph(6, PATH6 + chords)
        identity_finish = max(meet_cycle(6, u, v) for u, v in g.edges)
        if identity_finish != 8:  # class membership: naive mapping ends at cycle 8
            ok = False
        mapping, depth = astar_initial_mapping(g, beam=8)
        if depth > 5:
            ok = False
        best = 2 * 6 - 2
        for perm in permutations(range(6)):
            worst = max(meet_cycle(6, perm[u], perm[v]) for u, v in g.edges)
            best = min(best, worst + 1)
        if depth != best:  # the 720-mapping scan certifies optimality
            ok = False
        details.append(f"{chords}: {depth} (opt {best})")
    report(7, ok, "; ".join(details))


def test_acceptance_08_heuristic_beats_pattern_on_divergent_class():
    ok = True
    details = []
    arch = linear(6)
    for chords in CHORD_SETS:
        g = make_problem_graph(6, LADDER6 + chords)
        pattern_depth = prune_pattern(g, identity_mapping(6), linear(6), range(6)).depth
        if pattern_depth != 9:  # class membership: pure pattern needs 9 cycles
            ok = False
        c = schedule(g, arch)  # default strategy and threshold
        if c.depth > 4 or not verify(c, g, arch).ok:
            ok = False
        details.append(f"{chords}: 9 -> {c.depth}")
    report(8, ok, "; ".join(details))


def test_acceptance_09_optimized_beats_random_median():
    n, arch = 50, linear(50)
    d_opt, d_rand = [], []
    for seed in range(1, 51):
        g = random_graph(n, 0.1, seed)
        ci = schedule(g, arch, SchedulerConfig(strategy="ctag-i-astar"))
        cr = schedule(g, arch, SchedulerConfig(strategy="ctag-r", seed=seed))
        d_opt.append(metrics(ci, n).decomposed_depth)
        d_rand.append(metrics(cr, n).decomposed_depth)
    mo, mr = statistics.median(d_opt), statistics.median(d_rand)
    report(9, mo < mr, f"median decomposed depth ctag-i {mo} < ctag-r {mr} (50 seeds)")


def test_acceptance_10_heuristic_validity_sweep():
    specs = ("linear", "grid:4x5", "ibm20", "ibm27")
    failures = 0
    for i in range(200):
        n = 5 + i % 16
        dens = (0.1, 0.3, 0.5)[i % 3]
        spec = specs[i % 4]
        arch = make_architecture(f"linear:{n}" if spec == "linear" else spec)
        g = random_graph(n, dens, i + 1)
        c = schedule(g, arch, SchedulerConfig(strategy="ctag-h"))
        if not verify(c, g, arch).ok:
            failures += 1
    report(10, failures == 0, f"200-instance sweep, {failures} verification failures")


def test_acceptance_11_stream_model_equivalence():
    ok = True
    # closed-form positions vs direct replay of the two SWAP layers per loop
    for n in range(2, 33):
        s1 = [(p, p + 1) for p in range(1, n - 1, 2)]
        s0 = [(p, p + 1) for p in range(0, n - 1, 2)]
        pos = list(range(n))
        occ = list(range(n))  # occ[site] = start position
        for t in range(0, n + 1):
            for p_start in range(n):
                if position_at(n, p_start, t) != pos[p_start]:
                    ok = False
            for a, b in s1:
                occ[a], occ[b] = occ[b], occ[a]
            for a, b in s0:
                occ[a], occ[b] = occ[b], occ[a]
            pos = [0] * n
            for site, p_start in enumerate(occ):
                pos[p_start] = site
    # closed-form interaction ranks vs the partners each full loop executes
    for n in range(2, 17):
        rank_of = _rank_of_start(n)
        c = generate_clique_pattern(n)
        stream = [kind for kind, _, _ in _layer_stream(n)]
        harvested: dict[tuple[int, int], set[int]] = {}
        full_loops = set()
        for idx, cyc in enumerate(c.cycles):
            if stream[idx] != CPHASE:
                continue
            t = idx // 4
            if idx % 4 == 1:
                full_loops.add(t)  # E1 present means loop t ran both layers
            if n % 2 == 1 and idx == 2 * n - 3:
                continue  # the odd-n tail layer is not part of a full loop
            for g in cyc:
                u, v = g.logical
                ru, rv = rank_of[u], rank_of[v]
                harvested.setdefault((t, ru), set()).add(rv)
                harvested.setdefault((t, rv), set()).add(ru)
        for t in full_loops:
            for i in range(n):
                if harvested.get((t, i), set()) != set(interaction_ranks(n, i, t)):
                    ok = False
    report(11, ok, "position_at exact to n=32, interaction ranks exact to n=16")
