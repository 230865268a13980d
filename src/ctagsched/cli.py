"""Command-line front end: schedule, bench, verify.

Exit codes: 0 success, 1 semantic failure (bad value, too-small architecture,
failed verification), 2 malformed input (reported with a line number where
available).

Each ``ctagsched schedule`` or ``verify`` is a fresh process, so an import
that only one command needs is made where that command uses it:
``ProcessPoolExecutor`` (with multiprocessing, socket, pickle and logging
behind it) only for ``bench --jobs N > 1``, and ``csv`` only for bench's CSV
output.  Likewise ``graphs`` loads ``fractions`` only in ``random_graph``,
and ``importlib.resources`` only in ``_packaged``, which reads a packaged
device file or cached chain.  No process loads ``dataclasses``: the
package's records are NamedTuples and plain classes.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import sys
from time import perf_counter

from ctagsched.graphs import (
    GraphFormatError,
    _check_int,
    _read_utf8,
    load_problem_graph,
    make_architecture,
    random_graph,
)
from ctagsched.pattern import from_json_dict, to_json_dict, to_text
from ctagsched.scheduler import STRATEGIES, SchedulerConfig, schedule
from ctagsched.verify import metrics, verify

CSV_COLUMNS = (
    "n",
    "density",
    "seed",
    "architecture",
    "strategy",
    "abstract_depth",
    "decomposed_depth",
    "cphase_count",
    "swap_count",
    "compile_time_ms",
    "verified",
)


def _compile(g, arch, cfg: SchedulerConfig):
    """Schedule g on arch per cfg and check the result: returns the circuit,
    the seconds schedule() took (verify and metrics not timed), its
    verification report and its metrics as a dict."""
    t0 = perf_counter()
    c = schedule(g, arch, cfg)
    secs = perf_counter() - t0
    return c, secs, verify(c, g, arch), metrics(c, g.n).to_json_dict()


def cmd_schedule(
    graph_file: str,
    arch_spec: str,
    cfg: SchedulerConfig,
    out: str | None,
    fmt: str,
) -> int:
    g = load_problem_graph(graph_file)
    arch = make_architecture(arch_spec)
    c, secs, report, mx = _compile(g, arch, cfg)

    prefix = out if out is not None else os.path.splitext(graph_file)[0]
    text_path = prefix + ".sched.txt"
    json_path = prefix + ".sched.json"
    metrics_path = prefix + ".metrics.json"
    with open(text_path, "w") as fh:
        fh.write(to_text(c))
    # one write of the whole document: json.dump under indent hands the file
    # each of its many small chunks on its own
    with open(json_path, "w") as fh:
        fh.write(json.dumps(to_json_dict(c), indent=2) + "\n")
    doc = mx | {
        "strategy": cfg.strategy,
        "compile_time_ms": round(secs * 1000, 3),
        "verified": report.ok,
    }
    with open(metrics_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    if fmt == "json":
        print(json.dumps(doc | {"files": [text_path, json_path, metrics_path]}, indent=2))
    else:
        print(f"strategy: {cfg.strategy}")
        for key, value in mx.items():
            print(f"{key}: {value}")
        print(f"compile_time_ms: {doc['compile_time_ms']}")
        print(f"verified: {'true' if report.ok else 'false'}")
    if not report.ok:
        print(f"verification failed: {len(report.missing)} missing, "
              f"{len(report.duplicated)} duplicated, {len(report.illegal_gates)} illegal",
              file=sys.stderr)
        return 1
    return 0


def cmd_verify(schedule_file: str, graph_file: str, arch_spec: str, fmt: str) -> int:
    g = load_problem_graph(graph_file)
    arch = make_architecture(arch_spec)
    try:
        circ = from_json_dict(json.loads(_read_utf8(schedule_file)), arch)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc.msg}", exc.lineno) from None
    except RecursionError:
        print("error: not valid JSON: nested too deeply", file=sys.stderr)
        return 2
    except ValueError as exc:
        # malformed document is a format error, not a semantic failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = verify(circ, g, arch)
    if fmt == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(f"ok: {'true' if report.ok else 'false'}")
        print(f"executed: {len(report.executed_pairs)}")
        print(f"missing: {sorted(report.missing)}")
        print(f"duplicated: {sorted(report.duplicated)}")
        for cyc, kind, a, b, reason in report.illegal_gates:
            print(f"illegal: cycle {cyc} {kind}({a},{b}): {reason}")
    return 0 if report.ok else 1


def _bench_cell(cell) -> tuple[dict, str]:
    """One bench cell's CSV record, and why the cell failed ("" when it
    verified).  A failed cell reads -1 for every metric."""
    n, dens, arch_spec, cfg = cell
    record = dict.fromkeys(CSV_COLUMNS, -1) | {
        "n": n,
        "density": format(dens, "g"),
        "seed": cfg.seed,
        "architecture": arch_spec,
        "strategy": cfg.strategy,
        "compile_time_ms": "0.000",
        "verified": "false",
    }
    try:
        g = random_graph(n, dens, cfg.seed)
        arch = make_architecture(arch_spec)
        _, secs, report, mx = _compile(g, arch, cfg)
    except Exception as exc:
        return record, f"{type(exc).__name__}: {exc}"
    record |= {k: v for k, v in mx.items() if k in record}
    record["compile_time_ms"] = f"{secs * 1000:.3f}"
    record["verified"] = "true" if report.ok else "false"
    return record, "" if report.ok else "verification failed"


def _parse_list(text: str, conv, flag: str) -> list:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(conv(tok))
        except ValueError:
            raise ValueError(f"bad {flag} value: {tok!r}") from None
    if not out:
        raise ValueError(f"empty {flag} list")
    return out


def cmd_bench(args) -> int:
    _check_int(args.jobs, "--jobs", 1)
    ns = _parse_list(args.n, int, "--n")
    densities = _parse_list(args.density, float, "--density")
    seeds = _parse_list(args.seed, int, "--seed")
    arch_specs = _parse_list(args.arch, str, "--arch")
    strategies = _parse_list(args.strategy, str, "--strategy")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")

    cells = []
    for n in ns:
        for dens in densities:
            for seed in seeds:
                for spec in arch_specs:
                    # bare "linear" sizes the chain to the instance
                    resolved = f"linear:{n}" if spec == "linear" else spec
                    for strat in strategies:
                        cfg = SchedulerConfig(strat, args.threshold, args.beam, seed)
                        cells.append((n, dens, resolved, cfg))
    # rows come back in cell order, from the pool as from the loop
    cells.sort(key=lambda c: (c[0], c[1], c[3].seed, c[3].strategy))

    # a pool starts all its workers at once, so it gets no more than one per cell
    workers = min(args.jobs, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_cell, cells))
    else:
        rows = [_bench_cell(c) for c in cells]

    records = [record for record, _ in rows]
    if args.format == "json":
        body = json.dumps(records, indent=2) + "\n"
    elif args.format == "text":
        widths = {c: max(len(c), *(len(str(r[c])) for r in records)) for c in CSV_COLUMNS}
        lines = ["  ".join(c.ljust(widths[c]) for c in CSV_COLUMNS)]
        for r in records:
            lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in CSV_COLUMNS))
        body = "\n".join(lines) + "\n"
    else:
        import csv

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(records)
        body = buf.getvalue()

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    failed = [(r, error) for r, error in rows if error]
    for r, error in failed:
        cell = (f"n={r['n']} density={r['density']} seed={r['seed']} "
                f"arch={r['architecture']} strategy={r['strategy']}")
        print(f"error: {cell}: {error}", file=sys.stderr)
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ctagsched",
        description="Commutativity-aware QAOA circuit scheduling.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    defaults = SchedulerConfig()

    ps = sub.add_parser("schedule", help="schedule one problem graph")
    ps.add_argument("--graph", required=True, help="problem graph file")
    ps.add_argument("--arch", required=True,
                    help="linear:N | grid:RxC | ibm20 | ibm27 | file:PATH")
    ps.add_argument("--strategy", default=defaults.strategy, choices=STRATEGIES)
    ps.add_argument("--seed", type=int, default=defaults.seed)
    ps.add_argument("--threshold", type=float, default=defaults.threshold)
    ps.add_argument("--beam", type=int, default=defaults.beam)
    ps.add_argument("--out", help="output prefix (default: graph file stem)")
    ps.add_argument("--format", choices=("text", "json"), default="text")

    pb = sub.add_parser("bench", help="run a benchmark grid, emit one row per cell")
    pb.add_argument("--n", required=True, help="comma-separated vertex counts")
    pb.add_argument("--density", required=True, help="comma-separated densities in (0,1]")
    pb.add_argument("--seed", default="1", help="comma-separated seeds")
    pb.add_argument("--arch", required=True,
                    help="comma-separated arch specs; bare 'linear' sizes to n")
    pb.add_argument("--strategy", default=defaults.strategy,
                    help="comma-separated strategies")
    pb.add_argument("--threshold", type=float, default=defaults.threshold)
    pb.add_argument("--beam", type=int, default=defaults.beam)
    pb.add_argument("--jobs", type=int, default=1)
    pb.add_argument("--out", help="CSV output path (default: stdout)")
    pb.add_argument("--format", choices=("csv", "json", "text"), default="csv")

    pv = sub.add_parser("verify", help="verify a schedule JSON against graph and arch")
    pv.add_argument("--schedule", required=True)
    pv.add_argument("--graph", required=True)
    pv.add_argument("--arch", required=True)
    pv.add_argument("--format", choices=("text", "json"), default="text")
    return p


# options that take a number or a list of numbers; argparse reads a value
# such as "-inf" or "-1,2", which starts with "-" but is no plain negative
# number, as an option and exits 2, so main() hands it over in the
# "--flag=value" spelling argparse documents for such values
_NUMBER_OPTIONS = frozenset({"--n", "--density", "--seed", "--threshold", "--beam", "--jobs"})


def _is_dash_number(tok: str) -> bool:
    # a value whose first comma-separated item parses as a negative float
    if not tok.startswith("-"):
        return False
    try:
        float(tok.split(",", 1)[0])
    except ValueError:
        return False
    return True


def _attach_number_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _NUMBER_OPTIONS and _is_dash_number(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(
        _attach_number_values(sys.argv[1:] if argv is None else argv)
    )
    try:
        if args.command == "schedule":
            cfg = SchedulerConfig(args.strategy, args.threshold, args.beam, args.seed)
            return cmd_schedule(args.graph, args.arch, cfg, args.out, args.format)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_verify(args.schedule, args.graph, args.arch, args.format)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
