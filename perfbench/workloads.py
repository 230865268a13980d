"""The benchmark's workloads: cells, instance generation and one compile.

A cell is (architecture spec, n, density, strategy).  Each cell yields
``copies`` instances ``random_graph(n, density, seed * 1000 + 10 * i + k)``
for cell index i and copy k, so one --seed fixes every input.  Every compile
uses the default SchedulerConfig with only the strategy set, which is what a
user of the library or the CLI gets.  DESIGN.md gives each workload's reason
and the cells left out.

Cache policy.  The library workloads fill ``_meet_table`` (through
``meet_cycle``) and ``Architecture.dist`` (through ``shortest_dist``) during
set-up, so a sweep pays them once and set-up time shows them.  ``cli-cold``
warms nothing: every process fills both from scratch.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# the copy of ibm27's couplings that cli-cold writes in set-up; a file:
# architecture has no cached chain, so the scheduler searches for one
IBM27_FILE = "file:ibm27-copy.coupling"

PROC_TIMEOUT_S = 120


@dataclass(frozen=True)
class Cell:
    arch: str
    n: int
    density: float
    strategy: str
    copies: int = 1

    @property
    def label(self) -> str:
        dens = "K" if self.density == 1.0 else format(self.density, "g")
        return f"{self.strategy} {self.arch}/{self.n}/{dens}"


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    cli: bool = False


ROUTE_SPARSE = Workload("route-sparse", (
    Cell("grid:5x5", 25, 0.3, "ctag-h"),
    Cell("grid:6x6", 36, 0.2, "ctag-h"),
    Cell("grid:6x6", 36, 0.3, "ctag-h"),
    Cell("grid:7x7", 49, 0.1, "ctag-h"),
    Cell("grid:7x7", 49, 0.3, "ctag-h"),
    Cell("grid:3x7", 20, 0.3, "ctag-h"),
    Cell("grid:2x15", 30, 0.3, "ctag-h"),
    Cell("ibm20", 20, 0.3, "ctag-h"),
    Cell("ibm20", 20, 0.5, "ctag-h"),
    Cell("ibm27", 20, 0.3, "ctag-h"),
    # longer than ibm27's 21-site cached chain: breadth-first placement
    Cell("ibm27", 25, 0.3, "ctag-h"),
    Cell("linear:30", 30, 0.2, "ctag-h"),
    Cell("linear:40", 40, 0.1, "ctag-h"),
))

LINE_DENSE = Workload("line-dense", (
    Cell("linear:200", 200, 1.0, "pattern-only"),
    Cell("linear:200", 200, 1.0, "ctag-i-astar"),
    Cell("linear:150", 150, 0.5, "ctag-i-astar"),
    Cell("grid:12x12", 144, 0.3, "ctag-i-astar"),
    Cell("grid:10x10", 100, 0.5, "ctag-r"),
    Cell("linear:200", 200, 1.0, "ctag-h"),
    Cell("grid:14x14", 196, 0.9, "ctag-h"),
    Cell("grid:10x10", 100, 0.8, "ctag-h"),
    Cell("grid:2x50", 100, 1.0, "ctag-h"),
    Cell("linear:100", 100, 0.9, "ctag-h"),
    Cell("linear:10", 10, 1.0, "ctag-i-iso"),
    # VF2 time swings 10x to 25x between graphs of these two cells, so each
    # is measured on eight graphs to keep the geometric mean steady
    Cell("linear:8", 8, 0.5, "ctag-i-iso", copies=8),
    Cell("grid:3x3", 9, 0.4, "ctag-i-iso", copies=8),
))

CLI_COLD = Workload("cli-cold", (
    Cell("linear:10", 10, 1.0, "ctag-i-astar"),
    Cell("grid:3x4", 12, 0.3, "ctag-r"),
    Cell("grid:4x4", 16, 0.5, "ctag-h"),
    Cell("ibm20", 20, 0.3, "ctag-h"),
    Cell("ibm27", 24, 0.2, "ctag-h"),
    Cell("grid:5x6", 30, 0.2, "ctag-i-astar"),
    Cell("linear:40", 40, 0.1, "ctag-r"),
    Cell("grid:5x10", 50, 1.0, "pattern-only"),
    Cell("linear:8", 8, 0.5, "ctag-i-iso"),
    Cell(IBM27_FILE, 20, 0.3, "ctag-h"),
), cli=True)

WORKLOADS = {w.name: w for w in (ROUTE_SPARSE, LINE_DENSE, CLI_COLD)}


@dataclass
class Instance:
    id: int
    cell: Cell
    seed: int
    g: object
    arch: object = None  # library workloads
    arch_spec: str = ""  # cli-cold
    graph_file: str = ""
    prefix: str = ""


@dataclass
class OpResult:
    """One compile of one instance, checked."""

    instance: int
    seconds: float  # calibrated after the run; raw_seconds keeps the wall time
    digest: str = ""
    depth: int = 0
    swaps: int = 0
    error: str | None = None
    layers: dict = field(default_factory=dict)
    raw_seconds: float = 0.0
    kernel_s: float = 0.0  # mean calibration kernel time around this compile


def instance_seeds(wl: Workload, seed: int):
    for i, cell in enumerate(wl.cells):
        for k in range(cell.copies):
            yield cell, seed * 1000 + 10 * i + k


def build(wl: Workload, seed: int, workdir: Path, tracer=None) -> list[Instance]:
    """Generate the instances of one run; the work set-up time covers."""
    from ctagsched import make_architecture, meet_cycle, random_graph, shortest_dist
    from ctagsched.graphs import ibm27, save_problem_graph

    def call(name, fn, *args):
        return tracer.call(name, fn, *args) if tracer else fn(*args)

    out = []
    if wl.cli:
        workdir.mkdir(parents=True, exist_ok=True)
        dev = ibm27()
        coupling = workdir / IBM27_FILE.split(":", 1)[1]
        with open(coupling, "w") as fh:
            fh.write(f"{dev.q} {len(dev.couplings)}\n")
            fh.writelines(f"{a} {b}\n" for a, b in sorted(dev.couplings))
    for idx, (cell, iseed) in enumerate(instance_seeds(wl, seed)):
        g = call("graphs.random_graph", random_graph, cell.n, cell.density, iseed)
        inst = Instance(idx, cell, iseed, g)
        if wl.cli:
            inst.arch_spec = f"file:{coupling}" if cell.arch == IBM27_FILE else cell.arch
            inst.prefix = str(workdir / f"i{idx:02d}")
            inst.graph_file = inst.prefix + ".graph"
            save_problem_graph(g, inst.graph_file)
        else:
            inst.arch = call("graphs.make_architecture", make_architecture, cell.arch)
            shortest_dist(inst.arch, 0, 0)  # fills Architecture.dist
            meet_cycle(cell.n, 0, 1)  # fills _meet_table(n)
        out.append(inst)
    return out


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def compile_library(inst: Instance, tracer=None) -> OpResult:
    """schedule() timed alone, then verify() and metrics() as the check.
    The check is the benchmark's own, so it runs outside the tracer and the
    verify.* layer metrics cover only verification inside a CLI process."""
    from ctagsched import SchedulerConfig, metrics, schedule, verify
    from ctagsched.pattern import to_text

    cfg = SchedulerConfig(strategy=inst.cell.strategy)
    try:
        t0 = perf_counter()
        if tracer is None:
            c = schedule(inst.g, inst.arch, cfg)
        else:
            c = tracer.call("scheduler.schedule", schedule, inst.g, inst.arch, cfg)
        secs = perf_counter() - t0
    except Exception as exc:
        return OpResult(inst.id, 0.0, error=_describe(exc))
    res = OpResult(inst.id, secs)
    try:
        report, mx = verify(c, inst.g, inst.arch), metrics(c, inst.g.n)
    except Exception as exc:
        res.error = f"verify raised {_describe(exc)}"
        return res
    if not report.ok:
        res.error = (
            f"verify failed: {len(report.missing)} missing, "
            f"{len(report.duplicated)} duplicated, {len(report.illegal_gates)} illegal"
        )
        return res
    res.digest = hashlib.sha256(to_text(c).encode()).hexdigest()
    res.depth, res.swaps = mx.abstract_depth, mx.swap_count
    return res


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_proc(argv: list[str], env: dict):
    """Run one CLI process to completion; (wall seconds, spawn stamp, result)."""
    stamp = monotonic()
    t0 = perf_counter()
    proc = subprocess.run(
        argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=PROC_TIMEOUT_S
    )
    return perf_counter() - t0, stamp, proc


def _proc_error(what: str, proc) -> str:
    tail = proc.stderr.strip().splitlines()[-3:]
    return f"{what} exited {proc.returncode}: {' | '.join(tail)}"


def compile_cli(inst: Instance, env: dict, traced: bool = False) -> OpResult:
    """One fresh ``ctagsched schedule`` process, then one ``ctagsched verify``
    process on its JSON output.  Traced runs go through cli_runner.py."""
    sched_args = [
        "schedule", "--graph", inst.graph_file, "--arch", inst.arch_spec,
        "--strategy", inst.cell.strategy, "--out", inst.prefix, "--format", "json",
    ]
    verify_args = [
        "verify", "--schedule", inst.prefix + ".sched.json", "--graph", inst.graph_file,
        "--arch", inst.arch_spec, "--format", "json",
    ]

    def argv(args, tag):
        if traced:
            return [sys.executable, str(HERE / "cli_runner.py"), f"{inst.prefix}.{tag}.trace.json"] + args
        return [sys.executable, "-m", "ctagsched.cli"] + args

    try:
        secs, s_stamp, proc = _run_proc(argv(sched_args, "schedule"), env)
    except subprocess.TimeoutExpired:
        return OpResult(inst.id, 0.0, error=f"schedule timed out after {PROC_TIMEOUT_S} s")
    res = OpResult(inst.id, secs)
    if proc.returncode != 0:
        res.error = _proc_error("schedule", proc)
        return res
    try:
        doc = json.loads(proc.stdout)
        depth, swaps, verified = doc["abstract_depth"], doc["swap_count"], doc["verified"]
    except (ValueError, KeyError) as exc:
        res.error = f"schedule output unreadable: {_describe(exc)}"
        return res
    try:
        v_secs, _, vproc = _run_proc(argv(verify_args, "verify"), env)
    except subprocess.TimeoutExpired:
        res.error = f"verify timed out after {PROC_TIMEOUT_S} s"
        return res
    if vproc.returncode != 0:
        res.error = _proc_error("verify", vproc)
        return res
    try:
        v_ok = json.loads(vproc.stdout)["ok"]
    except (ValueError, KeyError) as exc:
        res.error = f"verify output unreadable: {_describe(exc)}"
        return res
    if not (verified and v_ok):
        res.error = f"not verified: schedule says {verified}, verify says {v_ok}"
        return res
    with open(inst.prefix + ".sched.txt", "rb") as fh:
        res.digest = hashlib.sha256(fh.read()).hexdigest()
    res.depth, res.swaps = depth, swaps
    if traced:
        res.layers = _cli_layers(inst, secs, s_stamp, v_secs)
    return res


def _cli_layers(inst: Instance, secs: float, spawn_stamp: float, v_secs: float) -> dict:
    """Span totals of both traced processes, plus their wall times and the
    schedule process's start-up and import."""
    from tracing import totals

    acc: dict = {"cli.schedule_proc_s": secs, "cli.verify_proc_s": v_secs}
    for tag in ("schedule", "verify"):
        with open(f"{inst.prefix}.{tag}.trace.json") as fh:
            doc = json.load(fh)
        for k, v in totals(doc["spans"]).get(-1, {}).items():
            acc[k] = acc.get(k, 0) + v
        if tag == "schedule":
            acc["cli.startup_s"] = doc["t_start"] - spawn_stamp
            acc["cli.import_s"] = doc["t_imported"] - doc["t_start"]
    return acc
