"""ctagsched benchmark: compile time and circuit quality per workload.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is route-sparse, line-dense or cli-cold (see DESIGN.md).  One run sets
up its instances from the seed, then compiles them round-robin, pass after
pass, until S seconds of measuring are used; the first pass always
completes.  Every compile is checked by the independent verifier, and every
instance must give the same circuit in every pass and in every run of the
same source tree.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The exit code
is 0 only when every compile verified and repeated.

The traced run alternates an untraced and a traced compile of each instance,
so its tracing overhead is measured on the same inputs.  Outputs, spans and
determinism records go under ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

SETUP_REPS = 5

# the count-type layer metrics, which must repeat exactly in every pass and
# every run of the same source tree
COUNT_KEYS = (
    "scheduler.rounds", "scheduler.strategies_built", "scheduler.candidates",
    "scheduler.prefix_calls", "scheduler.enumerate_calls", "scheduler.enumerate_hit_frac",
    "scheduler.score_calls", "initial_mapping.astar_calls", "initial_mapping.iso_calls",
    "initial_mapping.iso_found_frac", "pattern.prune_calls", "embedding.chain_calls",
)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(t: dict) -> dict:
    """Per-layer metric names from summed span totals (see tracing.totals)."""
    g = lambda k: t.get(k, 0)  # noqa: E731
    return {
        "scheduler.schedule_s": g("scheduler.schedule_s"),
        "scheduler.self_s": g("scheduler.schedule_self_s"),
        "scheduler.rounds": g("scheduler.matching_calls"),
        "scheduler.strategies_built": g("scheduler.enumerate_out"),
        "scheduler.candidates": g("pattern.to_text_calls"),
        "scheduler.matching_s": g("scheduler.matching_s"),
        "scheduler.prefix_s": g("scheduler.prefix_s"),
        "scheduler.prefix_calls": g("scheduler.prefix_calls"),
        "scheduler.enumerate_s": g("scheduler.enumerate_s"),
        "scheduler.enumerate_calls": g("scheduler.enumerate_calls"),
        "scheduler.enumerate_hit_frac": _ratio(g("scheduler.enumerate_hits"), g("scheduler.enumerate_calls")),
        "scheduler.score_s": g("scheduler.score_s"),
        "scheduler.score_calls": g("scheduler.score_calls"),
        "initial_mapping.astar_s": g("initial_mapping.astar_s"),
        "initial_mapping.astar_calls": g("initial_mapping.astar_calls"),
        "initial_mapping.iso_s": g("initial_mapping.iso_s"),
        "initial_mapping.iso_calls": g("initial_mapping.iso_calls"),
        "initial_mapping.iso_found_frac": _ratio(g("initial_mapping.iso_out"), g("initial_mapping.iso_calls")),
        "pattern.prune_s": g("pattern.prune_s"),
        "pattern.prune_calls": g("pattern.prune_calls"),
        "pattern.to_text_s": g("pattern.to_text_s"),
        "embedding.chain_s": g("embedding.chain_s"),
        "embedding.chain_calls": g("embedding.chain_calls"),
        "verify.verify_s": g("verify.verify_s"),
        "verify.metrics_s": g("verify.metrics_s"),
        "graphs.random_graph_s": g("graphs.random_graph_s"),
        "graphs.make_architecture_s": g("graphs.make_architecture_s"),
        "graphs.load_problem_graph_s": g("graphs.load_problem_graph_s"),
        "cli.startup_s": g("cli.startup_s"),
        "cli.import_s": g("cli.import_s"),
        "cli.schedule_proc_s": g("cli.schedule_proc_s"),
        "cli.verify_proc_s": g("cli.verify_proc_s"),
        "cli.write_s": g("cli.to_text_s") + g("cli.to_json_dict_s") + g("cli.dump_s"),
        "cli.from_json_s": g("cli.from_json_s"),
    }


E2E_UNITS = {
    "setup_s": "s", "compile_s_total": "s", "compile_ms_geomean": "ms",
    "depth_sum": "count",
    "swap_sum": "count", "verified_frac": "fraction", "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "fraction" if name.endswith("_frac") else "count"


def source_fingerprint() -> str:
    """sha256 over the package and the benchmark code, which together fix
    every circuit and every count a run produces."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "ctagsched", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts and p.suffix in (".py", ".txt"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def setup(wl, seed: int, trace: bool):
    """Set up SETUP_REPS times; each rep spawns a process that imports the
    package (interpreter start plus import, as a user pays it) and then
    generates the instances, builds architectures and warms caches (library
    workloads) or writes graph and coupling files (cli-cold).  Returns the
    last rep's instances, the median calibrated rep time and the set-up
    tracer."""
    import calibration
    import ctagsched.pattern
    import tracing
    import workloads

    env = workloads.child_env()
    module = "ctagsched.cli" if wl.cli else "ctagsched"
    times, insts, tracer = [], None, None
    for rep in range(SETUP_REPS):
        # drop the last rep's instances first, so they are not alive while
        # the next set is built and the process peak comes from compiles
        insts = None
        ctagsched.pattern._meet_table.cache_clear()
        tracer = tracing.Tracer() if trace and rep == SETUP_REPS - 1 else None
        k0 = calibration.sample()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, cwd=ROOT, check=True)
        insts = workloads.build(wl, seed, STATE / "work" / f"{wl.name}-seed{seed}", tracer)
        secs = perf_counter() - t0
        times.append(secs * calibration.NOMINAL_S * 2 / (k0 + calibration.sample()))
    return insts, statistics.median(times), tracer


def measure(wl, insts, seconds: float, trace: bool):
    """Compile round-robin until `seconds` are used (first pass complete),
    sampling the calibration kernel around every compile; then scale every
    time to the reference speed.  Returns (untraced ops, traced ops, spans
    tracer)."""
    import calibration
    import tracing
    import workloads

    env = workloads.child_env()
    plain, traced, timeline, kernel_means = [], [], [], []
    tracer = tracing.Tracer() if trace else None
    t_end = perf_counter() + seconds
    passes = 0
    while passes == 0 or perf_counter() < t_end:
        for inst in insts:
            if passes and perf_counter() >= t_end:
                break
            # the traced compile goes first on odd passes, so warm-up
            # effects do not all land on one side of the overhead
            order = ((False, True) if passes % 2 == 0 else (True, False)) if trace else (False,)
            for is_traced in order:
                k0 = calibration.sample()
                if is_traced and wl.cli:
                    traced.append(workloads.compile_cli(inst, env, traced=True))
                elif is_traced:
                    tracer.op = len(traced)
                    with tracer:
                        traced.append(workloads.compile_library(inst, tracer))
                elif wl.cli:
                    plain.append(workloads.compile_cli(inst, env))
                else:
                    plain.append(workloads.compile_library(inst))
                timeline.append((traced if is_traced else plain)[-1])
                kernel_means.append((k0 + calibration.sample()) / 2)
        passes += 1
    if trace and not wl.cli:
        by_op = tracing.totals(tracer.spans)
        for k, op in enumerate(traced):
            op.layers = by_op.get(k, {})
    for op, k, f in zip(timeline, kernel_means, calibration.factors(kernel_means)):
        op.kernel_s = k
        op.raw_seconds = op.seconds
        op.seconds *= f
        op.layers = {k: v * f if k.endswith("_s") else v for k, v in op.layers.items()}
    return plain, traced, tracer


def _merge(into: dict, key: str, row: dict, where: str) -> list[str]:
    """Add an instance's row to a record; one problem per field that
    differs from the row already there."""
    old = into.setdefault(key, row)
    if old is row:
        return []
    problems = [f"instance {key}: {k} differs {where}"
                for k in ("digest", "depth", "swaps") if old[k] != row[k]]
    if "counts" in row:
        if old.setdefault("counts", row["counts"]) != row["counts"]:
            problems.append(f"instance {key}: layer counts differ {where}")
    return problems


def determinism(ops) -> tuple[dict, list[str]]:
    """Per instance: digest, depth, SWAPs and (traced) the count-type layer
    metrics, which must be the same in every pass."""
    problems, record = [], {}
    for op in ops:
        if op.error:
            continue
        row = {"digest": op.digest, "depth": op.depth, "swaps": op.swaps}
        if op.layers:
            lm = layer_metrics(op.layers)
            row["counts"] = {k: lm[k] for k in COUNT_KEYS}
        problems += _merge(record, str(op.instance), row, "between passes")
    return record, problems


def check_against_earlier_runs(wl, seed: int, record: dict) -> list[str]:
    """Compare with every earlier run of this workload, seed and source tree
    in this checkout, then merge this run's record in."""
    rec_dir = STATE / "records"
    rec_dir.mkdir(parents=True, exist_ok=True)
    path = rec_dir / f"{wl.name}-seed{seed}-{source_fingerprint()}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    for key, row in record.items():
        problems += _merge(stored, key, row, "from an earlier run")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


def per_instance_median(ops, n: int, value) -> list[float | None]:
    vals: list[list[float]] = [[] for _ in range(n)]
    for op in ops:
        if not op.error:
            vals[op.instance].append(value(op))
    return [statistics.median(v) if v else None for v in vals]


def end_to_end(wl, insts, ops, record, setup_s: float) -> tuple[dict, dict]:
    """Each instance counts once, at the median of its compiles, so an
    instance compiled in more passes weighs no more than the others.  The
    geometric mean and the percentiles are over cells, each cell at the
    geometric mean of its copies, so every cell weighs the same."""
    secs = per_instance_median(ops, len(insts), lambda op: op.seconds)
    raw = [s for s in per_instance_median(ops, len(insts), lambda op: op.raw_seconds) if s is not None]
    by_cell: dict = {}
    for inst, sec in zip(insts, secs):
        if sec is not None:
            by_cell.setdefault(inst.cell, []).append(math.log(sec * 1000))
    ms = [math.exp(statistics.fmean(logs)) for logs in by_cell.values()]
    secs = [s for s in secs if s is not None]
    failed = sum(1 for op in ops if op.error)
    if wl.cli:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else (ms or [0.0])[0]
    m = {
        "setup_s": setup_s,
        "compile_s_total": sum(secs),
        "compile_ms_geomean": math.exp(statistics.fmean(math.log(x) for x in ms)) if ms else 0.0,
        "depth_sum": sum(r["depth"] for r in record.values()),
        "swap_sum": sum(r["swaps"] for r in record.values()),
        "verified_frac": (len(ops) - failed) / len(ops),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    per_inst = [sum(1 for op in ops if op.instance == i) for i in range(len(insts))]
    # p50 and p90 are printed but not bounded: over 10 to 13 cells the median
    # cell changes with the seed, and no run holds the ten samples beyond p90
    # that would make it steady
    info = {
        "percentile_samples": len(ms),
        "p50_ms": statistics.median(ms) if ms else 0.0,
        "p90_ms": p90,
        "beyond_p90": sum(1 for x in ms if x > p90),
        "compiles": len(ops),
        "compiles_per_instance_min": min(per_inst, default=0),
        "raw_compile_s_total": sum(raw),
    }
    return m, info


def traced_layers(insts, traced, plain, setup_tracer) -> tuple[dict, dict]:
    """Sum over instances of each instance's median traced-compile totals
    (times) or first traced compile (counts), plus set-up spans."""
    import tracing

    n = len(insts)
    per_inst: list[list[dict]] = [[] for _ in range(n)]
    for op in traced:
        if not op.error:
            per_inst[op.instance].append(op.layers)
    total: dict = {}
    rounds_ctag_h = []
    for i, rows in enumerate(per_inst):
        if not rows:
            continue
        keys = set().union(*rows)
        for k in keys:
            if k.endswith("_s"):
                v = statistics.median(r.get(k, 0.0) for r in rows)
            else:
                v = rows[0].get(k, 0)
            total[k] = total.get(k, 0) + v
        if insts[i].cell.strategy == "ctag-h":
            rounds_ctag_h.append(rows[0].get("scheduler.matching_calls", 0))
    if setup_tracer is not None:
        for k, v in tracing.totals(setup_tracer.spans).get(-1, {}).items():
            total[k] = total.get(k, 0) + v
    lm = layer_metrics(total)
    untraced = sum(s for s in per_instance_median(plain, n, lambda op: op.seconds) if s is not None)
    traced_s = sum(s for s in per_instance_median(traced, n, lambda op: op.seconds) if s is not None)
    lm["trace.overhead_s"] = traced_s - untraced
    info = {"untraced_compile_s_total": untraced, "traced_compile_s_total": traced_s,
            "max_rounds_per_ctag_h_instance": max(rounds_ctag_h, default=0)}
    return lm, info


def predictions(name: str, lm: dict, info: dict) -> list[tuple[str, float, bool]]:
    """The workload design's predictions, checked on the traced run."""
    sched = lm["scheduler.schedule_s"]
    if name == "route-sparse":
        share = _ratio(lm["scheduler.enumerate_s"] + lm["scheduler.score_s"] + lm["scheduler.self_s"], sched)
        return [("(enumerate_s + score_s + self_s) / schedule_s >= 0.70", share, share >= 0.70)]
    if name == "line-dense":
        share = _ratio(lm["initial_mapping.astar_s"] + lm["initial_mapping.iso_s"]
                       + lm["pattern.prune_s"] + lm["pattern.to_text_s"], sched)
        rounds = info["max_rounds_per_ctag_h_instance"]
        return [("max scheduler.rounds per ctag-h instance <= 2", rounds, rounds <= 2),
                ("(initial_mapping.*_s + pattern.*_s) / schedule_s >= 0.50", share, share >= 0.50)]
    share = _ratio(lm["cli.startup_s"] + lm["cli.import_s"], lm["cli.schedule_proc_s"])
    return [("(cli.startup_s + cli.import_s) / cli.schedule_proc_s > 0.50", share, share > 0.50)]


def _write_outputs(wl, seed, trace, payload, tracer) -> None:
    out = STATE / "out"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    (out / f"{stem}.json").write_text(json.dumps(payload, indent=1))
    if tracer is not None and tracer.spans:
        with gzip.open(out / f"{stem}.spans.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "out"],
                       "spans": tracer.spans}, fh)


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    import workloads

    wl = workloads.WORKLOADS[name]
    # one CPU for this process and every process it starts, so the
    # calibration kernel runs on the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    insts, setup_s, setup_tracer = setup(wl, seed, trace)
    plain, traced, tracer = measure(wl, insts, seconds, trace)
    ops = plain + traced
    record, problems = determinism(ops)
    if len(record) < len(insts):
        problems.append(f"{len(insts) - len(record)} instances never compiled cleanly")
    problems += check_against_earlier_runs(wl, seed, record)
    failures = [f"instance {op.instance} ({insts[op.instance].cell.label}): {op.error}"
                for op in ops if op.error]

    print(f"workload {name}  seed {seed}  instances {len(insts)}  compiles {len(ops)}")
    if trace:
        metrics, info = traced_layers(insts, traced, plain, setup_tracer)
        for line, value, ok in predictions(name, metrics, info):
            print(f"  prediction {line}: {value:.3f} {'holds' if ok else 'FAILS'}")
        print(f"  tracing overhead: traced {info['traced_compile_s_total']:.3f} s - "
              f"untraced {info['untraced_compile_s_total']:.3f} s = {metrics['trace.overhead_s']:.3f} s")
    else:
        metrics, info = end_to_end(wl, insts, plain, record, setup_s)
        print(f"  geomean and percentiles over {info['percentile_samples']} cells (not bounded): "
              f"p50 {info['p50_ms']:.1f} ms, p90 {info['p90_ms']:.1f} ms with {info['beyond_p90']} "
              f"beyond it; {info['compiles']} compiles, each instance "
              f">= {info['compiles_per_instance_min']}; uncalibrated compile_s_total "
              f"{info['raw_compile_s_total']:.3f} s")
    for k, v in metrics.items():
        print(f"  {k:34s} {v:14.6f} {_unit(k)}")
    for msg in failures + problems:
        print(f"  FAIL {msg}")

    correct = not failures and not problems
    result = {"correct": correct, "attempted": len(ops), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}}
    _write_outputs(wl, seed, trace, result | {
        "seed": seed, "info": info, "failures": failures, "problems": problems,
        "instances": {str(i.id): {"cell": i.cell.label, "graph_seed": i.seed} | record.get(str(i.id), {})
                      for i in insts},
        "ops": [[op.instance, int(k >= len(plain)), op.seconds, op.raw_seconds, op.kernel_s]
                for k, op in enumerate(ops)],
    }, tracer)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, then one table of every metric."""
    import workloads

    results, rc = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        rc = rc or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    names = [n for n, r in results.items() if r]
    keys = list(dict.fromkeys(k for n in names for k in results[n]["metrics"]))
    print(f"\n{'metric':34s} {'unit':8s}" + "".join(f"{n:>16s}" for n in names))
    for k in keys:
        cells = "".join(f"{results[n]['metrics'].get(k, {}).get('value', float('nan')):16.4f}" for n in names)
        print(f"{k:34s} {_unit(k):8s}{cells}")
    print(json.dumps(results))
    return rc


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (workloads.SRC / "ctagsched" / "__init__.py").is_file():
        print(f"error: no ctagsched package under {workloads.SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
