"""Command-line interface: schedule, verify, bench, and their exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctagsched
from ctagsched.cli import CSV_COLUMNS, main
from ctagsched.graphs import clique, make_problem_graph, random_graph, save_problem_graph

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


def test_cli_import_leaves_networkx_out():
    src = str(Path(ctagsched.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import ctagsched.cli, sys; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestSchedule:
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

    def test_too_small_arch_exits_1(self, k6_file, capsys):
        code, _, err = run(
            capsys, "schedule", "--graph", k6_file, "--arch", "linear:4",
        )
        assert code == 1
        assert "error:" in err


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
            (b"[" * 200000, "not valid JSON: nested too deeply"),
            (b'{"init": [0, 1, 2, 3, 4, 5], "cycles": [[{"kind": "cphase", "a": 0, "b": 1e400}]]}',
             "site inf is not an integer"),
            (b'{"init": [0, 1, 2, 3, 4, 5], "cycles": [[{"kind": "cphase", "a": 0.9, "b": 1}]]}',
             "site 0.9 is not an integer"),
            (b'{"init": ["3", 1, 2, 0, 4, 5], "cycles": []}', "site '3' is not an integer"),
            (b'{"init": [0, 1, 2, 3, 4, 5], "cycles": [[{"kind": "swap", "a": true, "b": 2}]]}',
             "site True is not an integer"),
        ],
        ids=["not-utf8", "deep-nesting", "overflowing-site", "fractional-site", "string-site",
             "boolean-site"],
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

        def strip_time(text):
            rows = list(csv.DictReader(io.StringIO(text)))
            for r in rows:
                r.pop("compile_time_ms")
            return rows

        assert code1 == code2 == 0
        assert strip_time(serial) == strip_time(parallel)

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
        assert proc.stderr == "error: --jobs must be at least 1\n"
        assert not (tmp_path / "b.csv").exists()

    def test_unknown_strategy_errors(self, capsys):
        code, _, err = run(
            capsys, "bench", "--n", "6", "--density", "0.5", "--seed", "1",
            "--arch", "linear", "--strategy", "qaim",
        )
        assert code == 1
        assert "error:" in err
