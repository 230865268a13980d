"""Command-line interface: schedule, verify, bench, and their exit codes."""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import ctagsched
from ctagsched import cli
from ctagsched.cli import CSV_COLUMNS, main
from ctagsched.graphs import (
    clique,
    linear,
    make_architecture,
    make_problem_graph,
    random_graph,
    save_problem_graph,
)
from ctagsched.pattern import to_json_dict
from ctagsched.scheduler import STRATEGIES, SchedulerConfig, schedule

BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark
FIG_EDGES = [(0, 1), (2, 3), (4, 5), (1, 2), (3, 4), (1, 3), (2, 4)]


@pytest.fixture
def k6_file(tmp_path):
    p = tmp_path / "k6.graph"
    save_problem_graph(clique(6), p)
    return str(p)


@pytest.fixture
def fig_file(tmp_path):
    p = tmp_path / "ladder.graph"
    save_problem_graph(make_problem_graph(6, FIG_EDGES), p)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# modules a schedule process never needs: networkx is no dependency,
# dataclasses no record of the package uses, and the rest serve only bench
# (its worker pool, its CSV output, random_graph)
NOT_LOADED_BY_SCHEDULE = (
    "networkx", "concurrent.futures", "multiprocessing", "fractions", "csv", "dataclasses",
)


def test_schedule_process_imports_only_what_it_runs(k6_file, tmp_path):
    # a fresh process, as a user starts one; ibm20 also reads packaged data
    src = str(Path(ctagsched.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import ctagsched.cli\n"
        f"def loaded(): return [m for m in {NOT_LOADED_BY_SCHEDULE!r} if m in sys.modules]\n"
        "assert not loaded(), f'after import: {loaded()}'\n"
        "rc = ctagsched.cli.main(sys.argv[1:])\n"
        "assert rc == 0 and not loaded(), f'after schedule (exit {rc}): {loaded()}'\n"
    )
    argv = ["schedule", "--graph", k6_file, "--arch", "ibm20", "--out", str(tmp_path / "run")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run.sched.json").exists()


def test_no_process_loads_dataclasses_or_inspect(tmp_path):
    # a fresh schedule process and then a fresh verify process of its
    # output, each started with -S so that no site hook loads a module
    # first; grid:2x3 reads no packaged data, which Python 3.12's
    # importlib.resources reads with inspect
    src = str(Path(ctagsched.__file__).resolve().parents[1])
    graph = tmp_path / "g.graph"
    save_problem_graph(random_graph(6, 0.5, 1), graph)
    code = (
        "import sys\n"
        "import ctagsched.cli\n"
        "def loaded(): return [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "assert not loaded(), f'after import: {loaded()}'\n"
        "rc = ctagsched.cli.main(sys.argv[1:])\n"
        "assert rc == 0 and not loaded(), f'after {sys.argv[1]} (exit {rc}): {loaded()}'\n"
    )
    out = tmp_path / "run"
    for argv in (
        ["schedule", "--graph", graph, "--arch", "grid:2x3", "--out", out],
        ["verify", "--schedule", f"{out}.sched.json", "--graph", graph, "--arch", "grid:2x3"],
    ):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, *map(str, argv)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


# values that start with "-" but are no plain negative number, and how the
# range checks print them
DASH_NON_FINITE = [("-inf", "-inf"), ("-nan", "nan"), ("-infinity", "-inf")]


def spelled(flag, value, spelling):
    return [flag, value] if spelling == "space" else [f"{flag}={value}"]


class TestSchedule:
    @pytest.mark.parametrize("spelling", ["space", "equals"])
    @pytest.mark.parametrize("value, shown", DASH_NON_FINITE)
    def test_dash_threshold_reaches_the_range_check(
        self, fig_file, tmp_path, capsys, value, shown, spelling
    ):
        code, _, err = run(
            capsys, "schedule", "--graph", fig_file, "--arch", "linear:6",
            *spelled("--threshold", value, spelling), "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert err == f"error: threshold {shown} not in [0, 1]\n"

    def test_dash_value_that_is_no_number_is_a_usage_error(self, fig_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "--graph", fig_file, "--arch", "linear:6", "--threshold", "-x"])
        assert exc.value.code == 2
        assert "--threshold: expected one argument" in capsys.readouterr().err

    def test_k6_writes_artifacts(self, k6_file, tmp_path, capsys):
        out = str(tmp_path / "k6run")
        code, stdout, _ = run(
            capsys, "schedule", "--graph", k6_file, "--arch", "linear:6",
            "--strategy", "pattern-only", "--out", out,
        )
        assert code == 0
        assert "abstract_depth: 10" in stdout
        assert "decomposed_depth: 32" in stdout
        assert "verified: true" in stdout
        for suffix in (".sched.txt", ".sched.json", ".metrics.json"):
            assert (tmp_path / ("k6run" + suffix)).exists()
        doc = json.loads((tmp_path / "k6run.metrics.json").read_text())
        assert doc["verified"] is True and doc["abstract_depth"] == 10

    def test_default_prefix_is_graph_stem(self, k6_file, capsys):
        code, _, _ = run(
            capsys, "schedule", "--graph", k6_file, "--arch", "linear:6",
            "--strategy", "pattern-only",
        )
        assert code == 0
        assert k6_file.replace(".graph", ".sched.json") != k6_file
        assert os.path.exists(k6_file[:-6] + ".sched.json")

    def test_chorded_ladder_depth(self, fig_file, tmp_path, capsys):
        out = str(tmp_path / "ladder")
        code, stdout, _ = run(
            capsys, "schedule", "--graph", fig_file, "--arch", "linear:6",
            "--strategy", "ctag-h", "--out", out,
        )
        assert code == 0
        assert "abstract_depth: 4" in stdout

    def test_json_format(self, k6_file, tmp_path, capsys):
        out = str(tmp_path / "k6run")
        code, stdout, _ = run(
            capsys, "schedule", "--graph", k6_file, "--arch", "linear:6",
            "--strategy", "ctag-i-astar", "--format", "json", "--out", out,
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["verified"] is True
        assert len(doc["files"]) == 3

    # ibm27 has no 24-site chain, so every schedule of rg24 on it is routed
    @pytest.mark.parametrize(
        "g, arch", [(clique(12), "linear:12"), (random_graph(24, 0.2, 1), "ibm27")],
        ids=["K12", "routed"],
    )
    def test_sched_json_bytes_are_json_dump_s(self, g, arch, tmp_path, capsys):
        # the file is written in one piece, byte for byte what json.dump
        # into the file wrote
        graph = tmp_path / "g.graph"
        save_problem_graph(g, graph)
        out = str(tmp_path / "run")
        code, _, _ = run(capsys, "schedule", "--graph", str(graph), "--arch", arch, "--out", out)
        assert code == 0
        c = schedule(g, make_architecture(arch), SchedulerConfig())
        want = io.StringIO()
        json.dump(to_json_dict(c), want, indent=2)
        want.write("\n")
        assert Path(out + ".sched.json").read_bytes() == want.getvalue().encode()

    def test_ctag_strategy_is_rejected(self, fig_file, capsys):
        # the former "ctag" meta-strategy duplicated ctag-h's candidate pool
        with pytest.raises(SystemExit) as ei:
            main(["schedule", "--graph", fig_file, "--arch", "linear:6",
                  "--strategy", "ctag"])
        assert ei.value.code == 2
        assert "invalid choice: 'ctag'" in capsys.readouterr().err

    def test_single_vertex_graph(self, tmp_path, capsys):
        p = tmp_path / "one.graph"
        p.write_text("1 0\n")
        out = str(tmp_path / "one")
        code, stdout, _ = run(
            capsys, "schedule", "--graph", str(p), "--arch", "grid:2x2",
            "--out", out,
        )
        assert code == 0
        assert "abstract_depth: 0" in stdout and "verified: true" in stdout
        code, _, _ = run(
            capsys, "verify", "--schedule", out + ".sched.json",
            "--graph", str(p), "--arch", "grid:2x2",
        )
        assert code == 0

    def test_missing_graph_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "schedule", "--graph", str(tmp_path / "nope.graph"),
            "--arch", "linear:4",
        )
        assert code == 1
        assert "error:" in err

    def test_malformed_graph_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.graph"
        p.write_text("4 2\n0 1\n0 one\n")
        code, _, err = run(
            capsys, "schedule", "--graph", str(p), "--arch", "linear:4",
        )
        assert code == 2
        assert "line 3" in err

    def test_malformed_coupling_line_exits_2(self, fig_file, tmp_path, capsys):
        dev = tmp_path / "dev.arch"
        dev.write_text("3 2\n0 1\n1 7\n")
        code, _, err = run(
            capsys, "schedule", "--graph", fig_file, "--arch", f"file:{dev}",
        )
        assert code == 2
        assert "line 3" in err

    def test_coupling_file_named_like_a_device(self, fig_file, tmp_path, monkeypatch, capsys):
        # a 20-site line saved as "ibm20" is named ibm20 but is not the device
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ibm20").write_text("20 19\n" + "".join(f"{i} {i + 1}\n" for i in range(19)))
        for strategy in ("ctag-i-astar", "ctag-h"):
            code, stdout, _ = run(
                capsys, "schedule", "--graph", fig_file, "--arch", "file:ibm20",
                "--strategy", strategy, "--out", str(tmp_path / strategy),
            )
            assert code == 0
            assert "verified: true" in stdout

    @pytest.mark.parametrize("beam", ["0", "-1"])
    def test_beam_below_one_exits_1(self, fig_file, tmp_path, beam):
        src = str(Path(ctagsched.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "ctagsched.cli", "schedule", "--graph", fig_file,
             "--arch", "linear:6", "--beam", beam, "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: beam must be at least 1")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "arch, strategy, flag, value",
        [
            ("ibm27", "ctag-h", "--threshold", "2"),  # no 25-site chain
            ("linear:25", "pattern-only", "--threshold", "nan"),
            ("linear:25", "ctag-r", "--beam", "0"),
        ],
    )
    def test_bad_config_exits_1(self, tmp_path, arch, strategy, flag, value):
        graph = tmp_path / "g25.graph"
        save_problem_graph(random_graph(25, 0.3, 1), graph)
        src = str(Path(ctagsched.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "ctagsched.cli", "schedule", "--graph", str(graph),
             "--arch", arch, "--strategy", strategy, flag, value,
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert flag[2:] in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_malformed_arch_spec_exits_1(self, fig_file, tmp_path):
        src = str(Path(ctagsched.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "ctagsched.cli", "schedule", "--graph", fig_file,
             "--arch", "grid:2x", "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: bad architecture spec 'grid:2x', expected grid:RxC\n"

    @pytest.mark.parametrize("where", ["graph", "arch"])
    def test_non_utf8_file_exits_2(self, fig_file, tmp_path, where):
        bad = tmp_path / "latin1.graph"
        bad.write_bytes(b"\xff 3 2\n0 1\n")
        graph, arch = (str(bad), "linear:6") if where == "graph" else (fig_file, f"file:{bad}")
        src = str(Path(ctagsched.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "ctagsched.cli", "schedule", "--graph", graph,
             "--arch", arch, "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: line 1: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "arch, message",
        [
            ("linear:99999999999999999999",
             "linear:99999999999999999999 has 99999999999999999999 sites"),
            ("grid:99999999999x99999999999",
             "grid:99999999999x99999999999 has 9999999999800000000001 sites"),
            ("file", "huge.arch has 50000000 sites"),
        ],
        ids=["linear", "grid", "coupling-file"],
    )
    def test_oversized_device_exits_1(self, fig_file, tmp_path, capsys, arch, message):
        # refused before anything is built per site, not after memory runs out
        if arch == "file":
            dev = tmp_path / "huge.arch"
            dev.write_text("50000000 0\n")
            arch = f"file:{dev}"
        code, _, err = run(
            capsys, "schedule", "--graph", fig_file, "--arch", arch,
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert err.endswith("more than the 4096 a device may have\n")
        assert not (tmp_path / "o.sched.json").exists()

    def test_too_small_arch_exits_1(self, k6_file, capsys):
        code, _, err = run(
            capsys, "schedule", "--graph", k6_file, "--arch", "linear:4",
        )
        assert code == 1
        assert "error:" in err

    def test_unverified_schedule_exits_1(self, k6_file, tmp_path, monkeypatch, capsys):
        # schedule() always returns a verified circuit, so a stand-in that
        # drops the first CPHASE is what reaches the failure line
        def drop_one_cphase(g, arch, cfg):
            c = schedule(g, arch, cfg)
            first = c.cycles[0]
            return c._replace(cycles=(first[1:],) + c.cycles[1:])

        monkeypatch.setattr(cli, "schedule", drop_one_cphase)
        out = str(tmp_path / "k6run")
        code, stdout, err = run(
            capsys, "schedule", "--graph", k6_file, "--arch", "linear:6",
            "--strategy", "pattern-only", "--out", out,
        )
        assert code == 1
        assert "verified: false" in stdout
        assert err == "verification failed: 1 missing, 0 duplicated, 0 illegal\n"
        doc = json.loads((tmp_path / "k6run.metrics.json").read_text())
        assert doc["verified"] is False and doc["cphase_count"] == 14


class TestVerify:
    def schedule_k6(self, k6_file, tmp_path, capsys):
        out = str(tmp_path / "k6run")
        run(
            capsys, "schedule", "--graph", k6_file, "--arch", "linear:6",
            "--strategy", "pattern-only", "--out", out,
        )
        return out + ".sched.json"

    def test_round_trip(self, k6_file, tmp_path, capsys):
        sched = self.schedule_k6(k6_file, tmp_path, capsys)
        code, stdout, _ = run(
            capsys, "verify", "--schedule", sched, "--graph", k6_file,
            "--arch", "linear:6",
        )
        assert code == 0
        assert "ok: true" in stdout
        assert "executed: 15" in stdout

    def test_files_with_a_byte_order_mark_are_read(self, k6_file, tmp_path, capsys):
        # graph, coupling file and schedule each saved with a UTF-8 BOM
        graph, arch = tmp_path / "k6.bom.graph", tmp_path / "line6.arch"
        graph.write_bytes(BOM + Path(k6_file).read_bytes())
        arch.write_bytes(BOM + b"6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n")
        code, _, _ = run(
            capsys, "schedule", "--graph", str(graph), "--arch", f"file:{arch}",
            "--out", str(tmp_path / "bom"),
        )
        assert code == 0
        sched = tmp_path / "bom.sched.json"
        sched.write_bytes(BOM + sched.read_bytes())
        code, stdout, _ = run(
            capsys, "verify", "--schedule", str(sched), "--graph", str(graph),
            "--arch", f"file:{arch}",
        )
        assert code == 0
        assert "executed: 15" in stdout

    def test_json_format(self, k6_file, tmp_path, capsys):
        sched = self.schedule_k6(k6_file, tmp_path, capsys)
        code, stdout, _ = run(
            capsys, "verify", "--schedule", sched, "--graph", k6_file,
            "--arch", "linear:6", "--format", "json",
        )
        assert code == 0
        assert json.loads(stdout)["ok"] is True

    def test_tampered_schedule_fails(self, k6_file, tmp_path, capsys):
        sched = self.schedule_k6(k6_file, tmp_path, capsys)
        doc = json.loads(Path(sched).read_text())
        # drop the very first CPHASE: one edge goes missing
        doc["cycles"][0] = doc["cycles"][0][1:]
        Path(sched).write_text(json.dumps(doc))
        code, stdout, _ = run(
            capsys, "verify", "--schedule", sched, "--graph", k6_file,
            "--arch", "linear:6",
        )
        assert code == 1
        assert "ok: false" in stdout
        assert "missing: [(0, 1)]" in stdout

    def test_conflicting_cycle_is_illegal(self, k6_file, tmp_path, capsys):
        sched = self.schedule_k6(k6_file, tmp_path, capsys)
        doc = json.loads(Path(sched).read_text())
        doc["cycles"][0].append(dict(doc["cycles"][0][0]))
        Path(sched).write_text(json.dumps(doc))
        code, stdout, _ = run(
            capsys, "verify", "--schedule", sched, "--graph", k6_file,
            "--arch", "linear:6",
        )
        assert code == 1
        assert "qubit used twice in cycle" in stdout

    def test_short_init_exits_1(self, k6_file, tmp_path, capsys):
        sched = self.schedule_k6(k6_file, tmp_path, capsys)
        doc = json.loads(Path(sched).read_text())
        doc["init"] = doc["init"][:3]
        doc["cycles"] = []
        Path(sched).write_text(json.dumps(doc))
        code, stdout, _ = run(
            capsys, "verify", "--schedule", sched, "--graph", k6_file,
            "--arch", "linear:6",
        )
        assert code == 1
        assert "ok: false" in stdout
        assert "init places 3 qubits, graph has 6" in stdout

    def test_off_device_init_site_exits_1(self, k6_file, tmp_path, capsys):
        # a site the device lacks is a verification failure, not a format error
        p = tmp_path / "off.sched.json"
        p.write_text('{"init": [0, 1, 2, 3, 4, 9], "cycles": []}')
        code, stdout, _ = run(
            capsys, "verify", "--schedule", str(p), "--graph", k6_file,
            "--arch", "linear:6",
        )
        assert code == 1
        assert "init(5,9): mapped to missing qubit" in stdout

    def test_unknown_gate_kind_exits_2(self, k6_file, tmp_path, capsys):
        sched = self.schedule_k6(k6_file, tmp_path, capsys)
        doc = json.loads(Path(sched).read_text())
        doc["cycles"][0][0]["kind"] = "iswap"
        Path(sched).write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "verify", "--schedule", sched, "--graph", k6_file,
            "--arch", "linear:6",
        )
        assert code == 2
        assert "error:" in err

    def test_invalid_json_exits_2(self, k6_file, tmp_path, capsys):
        p = tmp_path / "broken.sched.json"
        p.write_text('{\n "init": [0, 1],\n broken\n}\n')
        code, _, err = run(
            capsys, "verify", "--schedule", str(p), "--graph", k6_file,
            "--arch", "linear:6",
        )
        assert code == 2
        assert "line 3" in err

    @pytest.mark.parametrize(
        "body, message",
        [
            (b'{"init": [0, 1, 2],\n "cycles": [\xff]}\n', "line 2: byte 0xff is not UTF-8 text"),
            (BOM + b'{"init": [0, 1, 2],\n "cycles": [\xff]}\n',
             "line 2: byte 0xff is not UTF-8 text"),
            (b"[" * 200000, "not valid JSON: nested too deeply"),
            (b'{"init": [0, 1, 2, 3, 4, 5], "cycles": [[{"kind": "cphase", "a": 0, "b": 1e400}]]}',
             "site must be an integer, got inf"),
            (b'{"init": [0, 1, 2, 3, 4, 5], "cycles": [[{"kind": "cphase", "a": 0.9, "b": 1}]]}',
             "site must be an integer, got 0.9"),
            (b'{"init": ["3", 1, 2, 0, 4, 5], "cycles": []}',
             "a mapping's site must be an integer, got '3'"),
            (b'{"init": [0, 1, 2, 3, 4, 5], "cycles": [[{"kind": "swap", "a": true, "b": 2}]]}',
             "site must be an integer, got True"),
            (b'{"init": [0, 0, 1, 2, 3, 4], "cycles": []}', "mapping is not injective"),
        ],
        ids=["not-utf8", "not-utf8-after-bom", "deep-nesting", "overflowing-site",
             "fractional-site", "string-site", "boolean-site", "repeated-init-site"],
    )
    def test_malformed_schedule_file_exits_2(self, k6_file, tmp_path, capsys, body, message):
        # only JSON integers are sites, and no schedule file ends in a traceback
        p = tmp_path / "bad.sched.json"
        p.write_bytes(body)
        code, _, err = run(
            capsys, "verify", "--schedule", str(p), "--graph", k6_file,
            "--arch", "linear:6",
        )
        assert code == 2
        assert message in err


def rows_without_time(text):
    # bench CSV rows without the one column that varies from run to run
    rows = list(csv.DictReader(io.StringIO(text)))
    for r in rows:
        r.pop("compile_time_ms")
    return rows


def test_parsed_defaults_are_the_scheduler_defaults():
    parser = cli._build_parser()
    ps = parser.parse_args(["schedule", "--graph", "g.txt", "--arch", "linear:4"])
    assert SchedulerConfig(ps.strategy, ps.threshold, ps.beam, ps.seed) == SchedulerConfig()
    # bench's --seed is a list of its own
    pb = parser.parse_args(["bench", "--n", "4", "--density", "1", "--arch", "linear"])
    assert SchedulerConfig(pb.strategy, pb.threshold, pb.beam) == SchedulerConfig()


class TestBench:
    def test_clique_reference_row(self, capsys):
        code, stdout, _ = run(
            capsys, "bench", "--n", "10", "--density", "1.0", "--seed", "1",
            "--arch", "linear", "--strategy", "pattern-only",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(stdout)))
        assert len(rows) == 1
        r = rows[0]
        assert r["decomposed_depth"] == "56"  # 3*(2n-2)+2
        assert r["architecture"] == "linear:10"
        assert r["verified"] == "true"

    def test_header_and_sort(self, capsys):
        code, stdout, _ = run(
            capsys, "bench", "--n", "8,6", "--density", "0.4", "--seed", "1,2",
            "--arch", "linear", "--strategy", "ctag-h,pattern-only",
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == (
            "n,density,seed,architecture,strategy,abstract_depth,"
            "decomposed_depth,cphase_count,swap_count,compile_time_ms,verified"
        )
        rows = list(csv.DictReader(io.StringIO(stdout)))
        keys = [(int(r["n"]), r["seed"], r["strategy"]) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 8

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        args = [
            "bench", "--n", "6,7", "--density", "0.5", "--seed", "3",
            "--arch", "linear", "--strategy", "ctag-h",
        ]
        code1, serial, _ = run(capsys, *args)
        code2, parallel, _ = run(capsys, *args, "--jobs", "2")
        assert code1 == code2 == 0
        assert rows_without_time(serial) == rows_without_time(parallel)

    @pytest.mark.parametrize(
        "jobs, ns, seeds, workers",
        [
            ("5000", "6,7", "1,2", 4),
            ("2", "6,7", "1,2", 2),
            ("5000", "6", "1", None),
            ("1", "6,7", "1,2", None),
        ],
    )
    def test_at_most_one_worker_per_cell(self, monkeypatch, capsys, jobs, ns, seeds, workers):
        # a stand-in pool records its size and maps in this process, so no
        # worker is ever started; one cell per (n, seed)
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        args = [
            "bench", "--n", ns, "--density", "0.5", "--seed", seeds,
            "--arch", "linear", "--strategy", "pattern-only",
        ]
        code1, serial, _ = run(capsys, *args)
        # cmd_bench imports the pool class from here when it needs one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        code2, pooled, _ = run(capsys, *args, "--jobs", jobs)
        assert sizes == ([] if workers is None else [workers])
        assert code1 == code2 == 0
        assert rows_without_time(serial) == rows_without_time(pooled)

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, stdout, _ = run(
            capsys, "bench", "--n", "6", "--density", "0.5", "--seed", "1",
            "--arch", "linear", "--strategy", "ctag-h", "--out", str(out),
        )
        assert code == 0 and stdout == ""
        assert out.read_text().startswith("n,density,seed")

    def test_failed_cell_reports_and_exits_1(self, capsys):
        # a 2x2 grid cannot hold 6 logical qubits; the row records the
        # failure and stderr says why, also from worker processes
        for jobs in ("1", "2"):
            code, stdout, err = run(
                capsys, "bench", "--n", "6", "--density", "0.5", "--seed", "1",
                "--arch", "grid:2x2,linear", "--strategy", "ctag-h", "--jobs", jobs,
            )
            assert code == 1
            rows = list(csv.DictReader(io.StringIO(stdout)))
            assert list(rows[0]) == list(CSV_COLUMNS)
            failed = [r for r in rows if r["architecture"] == "grid:2x2"]
            assert failed[0]["verified"] == "false"
            assert failed[0]["abstract_depth"] == "-1"
            assert err.splitlines() == [
                "error: n=6 density=0.5 seed=1 arch=grid:2x2 strategy=ctag-h: "
                "ValueError: grid:2x2 has 4 qubits, input needs 6"
            ]

    def test_graph_larger_than_any_device_exits_1(self, capsys):
        code, stdout, err = run(
            capsys, "bench", "--n", "100000", "--density", "1.0", "--arch", "linear:6",
        )
        assert code == 1
        assert next(csv.DictReader(io.StringIO(stdout)))["verified"] == "false"
        assert err.splitlines() == [
            "error: n=100000 density=1 seed=1 arch=linear:6 strategy=ctag-h: "
            "ValueError: random_graph needs n <= MAX_SITES = 4096, got 100000"
        ]

    @pytest.mark.parametrize("dens", ["nan", "inf", "-inf"])
    def test_non_finite_density_exits_1(self, capsys, dens):
        code, stdout, err = run(
            capsys, "bench", "--n", "6", f"--density={dens}", "--arch", "linear:6",
        )
        assert code == 1
        assert next(csv.DictReader(io.StringIO(stdout)))["verified"] == "false"
        assert err.splitlines() == [
            f"error: n=6 density={dens} seed=1 arch=linear:6 strategy=ctag-h: "
            f"ValueError: density must be in (0, 1], got {dens}"
        ]

    @pytest.mark.parametrize("spelling", ["space", "equals"])
    @pytest.mark.parametrize("dens, shown", DASH_NON_FINITE)
    def test_dash_density_reaches_the_range_check(self, capsys, dens, shown, spelling):
        code, stdout, err = run(
            capsys, "bench", "--n", "6", *spelled("--density", dens, spelling),
            "--arch", "linear:6",
        )
        assert code == 1
        assert next(csv.DictReader(io.StringIO(stdout)))["verified"] == "false"
        assert err.splitlines() == [
            f"error: n=6 density={shown} seed=1 arch=linear:6 strategy=ctag-h: "
            f"ValueError: density must be in (0, 1], got {shown}"
        ]

    def test_dash_seed_list_is_a_value(self, capsys):
        code, stdout, _ = run(
            capsys, "bench", "--n", "6", "--density", "0.5", "--seed", "-1,2",
            "--arch", "linear:6", "--strategy", "pattern-only",
        )
        assert code == 0
        assert [r["seed"] for r in csv.DictReader(io.StringIO(stdout))] == ["-1", "2"]

    def test_json_format(self, capsys):
        code, stdout, _ = run(
            capsys, "bench", "--n", "6", "--density", "0.5", "--seed", "1",
            "--arch", "linear", "--strategy", "ctag-i-astar", "--format", "json",
        )
        assert code == 0
        rows = json.loads(stdout)
        assert rows[0]["strategy"] == "ctag-i-astar" and rows[0]["verified"] == "true"

    def test_text_format(self, capsys):
        code, stdout, _ = run(
            capsys, "bench", "--n", "6", "--density", "0.5", "--seed", "1",
            "--arch", "linear", "--strategy", "ctag-h", "--format", "text",
        )
        assert code == 0
        assert stdout.splitlines()[0].startswith("n ")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_1(self, tmp_path, jobs):
        src = str(Path(ctagsched.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "ctagsched.cli", "bench", "--n", "6", "--density", "0.5",
             "--arch", "linear", "--jobs", jobs, "--out", str(tmp_path / "b.csv")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("flag", ["--n", "--density", "--seed", "--arch", "--strategy"])
    def test_empty_list_exits_1(self, capsys, flag):
        argv = {"--n": "6", "--density": "0.5", "--seed": "1", "--arch": "linear",
                "--strategy": "ctag-h"} | {flag: ",,"}
        code, stdout, err = run(capsys, "bench", *itertools.chain(*argv.items()))
        assert code == 1 and stdout == ""
        assert err == f"error: empty {flag} list\n"

    def test_unknown_strategy_errors(self, capsys):
        code, _, err = run(
            capsys, "bench", "--n", "6", "--density", "0.5", "--seed", "1",
            "--arch", "linear", "--strategy", "qaim",
        )
        assert code == 1
        assert "error:" in err


class TestOutputIsPinned:
    """Every byte the CLI writes, captured before the bench rows became
    their CSV records; a fake clock makes compile_time_ms read 62.5 ms."""

    @pytest.fixture(autouse=True)
    def fake_clock(self, monkeypatch):
        monkeypatch.setattr(cli, "perf_counter", itertools.count(0, 0.0625).__next__)

    BENCH_ARGS = ("bench", "--n", "6", "--density", "0.5", "--seed", "2,1",
                  "--arch", "linear,grid:2x3", "--strategy", "pattern-only,ctag-h")
    BENCH_CSV = [
        "n,density,seed,architecture,strategy,abstract_depth,decomposed_depth,"
        "cphase_count,swap_count,compile_time_ms,verified",
        "6,0.5,1,linear:6,ctag-h,6,20,8,5,62.500,true",
        "6,0.5,1,grid:2x3,ctag-h,6,20,8,3,62.500,true",
        "6,0.5,1,linear:6,pattern-only,10,32,8,10,62.500,true",
        "6,0.5,1,grid:2x3,pattern-only,10,32,8,10,62.500,true",
        "6,0.5,2,linear:6,ctag-h,9,29,8,6,62.500,true",
        "6,0.5,2,grid:2x3,ctag-h,6,20,8,4,62.500,true",
        "6,0.5,2,linear:6,pattern-only,10,32,8,10,62.500,true",
        "6,0.5,2,grid:2x3,pattern-only,10,32,8,10,62.500,true",
    ]
    BENCH_TEXT = [
        "n  density  seed  architecture  strategy      abstract_depth  decomposed_depth  "
        "cphase_count  swap_count  compile_time_ms  verified",
        "6  0.5      1     linear:6      ctag-h        6               20                "
        "8             5           62.500           true    ",
        "6  0.5      1     grid:2x3      ctag-h        6               20                "
        "8             3           62.500           true    ",
        "6  0.5      1     linear:6      pattern-only  10              32                "
        "8             10          62.500           true    ",
        "6  0.5      1     grid:2x3      pattern-only  10              32                "
        "8             10          62.500           true    ",
        "6  0.5      2     linear:6      ctag-h        9               29                "
        "8             6           62.500           true    ",
        "6  0.5      2     grid:2x3      ctag-h        6               20                "
        "8             4           62.500           true    ",
        "6  0.5      2     linear:6      pattern-only  10              32                "
        "8             10          62.500           true    ",
        "6  0.5      2     grid:2x3      pattern-only  10              32                "
        "8             10          62.500           true    ",
    ]
    BENCH_JSON_SHA256 = "19898c5562cd0e67b5abba9bbbc9a2f7316248232a6e5613c89e04f959bba478"
    SCHEDULE_DOC = [
        "{",
        '  "abstract_depth": 9,',
        '  "decomposed_depth": 29,',
        '  "cphase_count": 7,',
        '  "swap_count": 10,',
        '  "decomposed_gate_count": 63,',
        '  "strategy": "ctag-r",',
        '  "compile_time_ms": 62.5,',
        '  "verified": true',
    ]

    def test_bench_csv(self, capsys):
        code, stdout, err = run(capsys, *self.BENCH_ARGS)
        assert (code, err) == (0, "")
        assert stdout == "\r\n".join(self.BENCH_CSV) + "\r\n"

    def test_bench_text(self, capsys):
        code, stdout, err = run(capsys, *self.BENCH_ARGS, "--format", "text")
        assert (code, err) == (0, "")
        assert stdout == "\n".join(self.BENCH_TEXT) + "\n"

    def test_bench_json(self, capsys):
        code, stdout, err = run(capsys, *self.BENCH_ARGS, "--format", "json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(stdout.encode()).hexdigest() == self.BENCH_JSON_SHA256
        ints = {"n", "seed", "abstract_depth", "decomposed_depth", "cphase_count", "swap_count"}
        expected = [
            {k: int(v) if k in ints else v for k, v in row.items()}
            for row in csv.DictReader(io.StringIO("\n".join(self.BENCH_CSV)))
        ]
        assert json.loads(stdout) == expected

    def test_bench_failed_cells(self, capsys):
        code, stdout, err = run(
            capsys, "bench", "--n", "6", "--density", "0.5", "--seed", "1",
            "--arch", "grid:2x2", "--strategy", "ctag-h,ctag-r", "--format", "json",
        )
        assert code == 1
        assert json.loads(stdout) == [
            {"n": 6, "density": "0.5", "seed": 1, "architecture": "grid:2x2",
             "strategy": strategy, "abstract_depth": -1, "decomposed_depth": -1,
             "cphase_count": -1, "swap_count": -1, "compile_time_ms": "0.000",
             "verified": "false"}
            for strategy in ("ctag-h", "ctag-r")
        ]
        assert err == "".join(
            f"error: n=6 density=0.5 seed=1 arch=grid:2x2 strategy={strategy}: "
            "ValueError: grid:2x2 has 4 qubits, input needs 6\n"
            for strategy in ("ctag-h", "ctag-r")
        )

    def schedule(self, capsys, tmp_path, monkeypatch, fmt):
        monkeypatch.chdir(tmp_path)
        save_problem_graph(make_problem_graph(6, FIG_EDGES), "ladder.graph")
        code, stdout, err = run(
            capsys, "schedule", "--graph", "ladder.graph", "--arch", "grid:2x3",
            "--strategy", "ctag-r", "--seed", "3", "--format", fmt, "--out", "run",
        )
        assert (code, err) == (0, "")
        assert Path("run.metrics.json").read_text() == "\n".join(self.SCHEDULE_DOC) + "\n}\n"
        return stdout

    def test_schedule_text(self, capsys, tmp_path, monkeypatch):
        stdout = self.schedule(capsys, tmp_path, monkeypatch, "text")
        assert stdout == (
            "strategy: ctag-r\nabstract_depth: 9\ndecomposed_depth: 29\ncphase_count: 7\n"
            "swap_count: 10\ndecomposed_gate_count: 63\ncompile_time_ms: 62.5\n"
            "verified: true\n"
        )

    def test_schedule_json(self, capsys, tmp_path, monkeypatch):
        stdout = self.schedule(capsys, tmp_path, monkeypatch, "json")
        files = ['    "run.sched.txt",', '    "run.sched.json",', '    "run.metrics.json"']
        assert stdout == "\n".join(
            self.SCHEDULE_DOC[:-1] + ['  "verified": true,', '  "files": ['] + files + ["  ]", "}"]
        ) + "\n"


# The CLI contract: every outcome is exit 0, 1 or 2, and no input ends in a
# traceback.  Hypothesis draws argument lists from a small grammar of good
# and bad files, device specs and values, and runs main() in this process.
# Each good value is drawn four times as often as each bad one, so that
# whole commands also get through to a schedule and a verify.

GOOD_GRAPHS = {
    "ladder": "6 7\n" + "".join(f"{a} {b}\n" for a, b in FIG_EDGES),
    "k8": "8 28\n" + "".join(f"{a} {b}\n" for a in range(8) for b in range(a + 1, 8)),
    "one-vertex": "1 0\n",
}
BAD_GRAPHS = {
    "bad-line": "4 2\n0 1\n0 one\n",
    "short-count": "4 3\n0 1\n",
    "empty": "",
    "not-utf8": b"\xff 3 2\n0 1\n",
    "huge": "50000000 0\n",
}
COUPLING_FILES = {
    "line6": "6 5\n" + "".join(f"{i} {i + 1}\n" for i in range(5)),
    "bad-site": "3 2\n0 1\n1 7\n",
    "disconnected": "4 1\n0 1\n",
    "huge": "50000000 0\n",
    "not-utf8": b"\xff\n",
}


def mostly(good, bad):
    return st.sampled_from(list(good) * 4 + list(bad))


GRAPHS = mostly(
    [f"{name}.graph" for name in GOOD_GRAPHS],
    [f"{name}.graph" for name in BAD_GRAPHS] + ["missing.graph"],
)
ARCHS = mostly(
    ["linear:6", "linear:8", "grid:2x3", "grid:3x3", "ibm20", "ibm27", "file:line6.arch"],
    ["linear", "linear:0", "linear:-3", "grid:2x", "torus:3x3", "file:missing.arch",
     "linear:99999999999999999999", "grid:99999x99999"]
    + [f"file:{name}.arch" for name in COUPLING_FILES if name != "line6"],
)
STRATEGY_NAMES = mostly(STRATEGIES, ["ctag", ""])
SEEDS = mostly(["0", "3"], ["-1", "x"])
THRESHOLDS = mostly(["0.5", "0", "1"], ["2", "-1", "nan", "inf", "x"])
BEAMS = mostly(["8", "1"], ["0", "-1", "x"])


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    files = {f"{name}.graph": body for name, body in (GOOD_GRAPHS | BAD_GRAPHS).items()}
    files |= {f"{name}.arch": body for name, body in COUPLING_FILES.items()}
    valid = to_json_dict(schedule(make_problem_graph(6, FIG_EDGES), linear(6)))
    tampered = json.loads(json.dumps(valid))
    tampered["cycles"][0] = tampered["cycles"][0][1:]
    files |= {
        "valid.sched.json": json.dumps(valid),
        "tampered.sched.json": json.dumps(tampered),
        "not-utf8.sched.json": b'{"init": [\xff]}',
        "not-json.sched.json": "{\n broken\n",
        "not-a-schedule.sched.json": "[1, 2]",
    }
    for name, body in files.items():
        (d / name).write_bytes(body if isinstance(body, bytes) else body.encode())
    (d / "out").mkdir()
    return d


@st.composite
def cli_argvs(draw, command):
    if command == "schedule":
        return ["schedule", "--graph", draw(GRAPHS), "--arch", draw(ARCHS),
                "--strategy", draw(STRATEGY_NAMES), "--seed", draw(SEEDS),
                "--threshold", draw(THRESHOLDS), "--beam", draw(BEAMS),
                "--format", draw(mostly(["text", "json"], ["csv"])),
                "--out", draw(mostly(["out/run"], ["missing/run"]))]
    if command == "bench":
        def listed(items):
            return ",".join(draw(st.lists(items, min_size=1, max_size=2)))

        # --jobs stays at 1 or below: a pool would start processes per example
        return ["bench", "--n", listed(mostly(["2", "6", "8"], ["1", "0", "x"])),
                "--density", listed(mostly(["0.5", "1.0"], ["0.01", "1.5", "0", "nan"])),
                "--seed", listed(SEEDS), "--arch", listed(ARCHS),
                "--strategy", listed(STRATEGY_NAMES),
                "--threshold", draw(THRESHOLDS), "--beam", draw(BEAMS),
                "--jobs", draw(mostly(["1"], ["0", "-2", "x"])),
                "--format", draw(mostly(["csv", "json", "text"], ["yaml"]))]
    schedule_file = draw(mostly(
        ["valid"], ["tampered", "not-utf8", "not-json", "not-a-schedule", "missing"]
    ))
    return ["verify", "--schedule", f"{schedule_file}.sched.json",
            "--graph", draw(GRAPHS), "--arch", draw(ARCHS),
            "--format", draw(mostly(["text", "json"], ["csv"]))]


@pytest.mark.parametrize("command", ["schedule", "bench", "verify"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_cli_outcome_is_an_exit_code(contract_dir, command, data):
    argv = data.draw(cli_argvs(command))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(contract_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
    finally:
        os.chdir(cwd)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:  # says why, on stderr or in a failed report
        assert err.getvalue() or "ok" in out.getvalue()
