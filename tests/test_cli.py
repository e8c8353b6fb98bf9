"""End-to-end tests for the command-line interface."""

import json
import pathlib
import shlex
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.schedulers import POLICIES


def _readme_commands():
    """The ``python -m repro …`` lines of README.md's "Command line" block."""
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Command line")[1]
    block = block.split("\n## ")[0]
    return [line for line in block.splitlines()
            if line.startswith("python -m repro ")]


def _command_id(line):
    """A README command line's test id: its command, and ``simulate-agent``
    for the agent replay, which would otherwise repeat ``simulate``."""
    words = line.split()
    if words[3] == "simulate" and "--agent" in words:
        return "simulate-agent"
    return words[3]


class TestParser:
    @pytest.mark.parametrize("line", _readme_commands(), ids=_command_id)
    def test_readme_command_parses(self, line):
        build_parser().parse_args(shlex.split(line, comments=True)[3:])

    def test_readme_advertises_commands(self):
        assert _readme_commands()  # else the case above is vacuous

    def test_building_the_parser_imports_no_experiment(self):
        code = ("import sys, repro.cli; repro.cli.build_parser(); "
                "print('repro.experiments.runner' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    @pytest.mark.parametrize("argv", [
        ["bench"],
        ["report", "--out", "x.html", "--bench", "y.json"],
        ["simulate", "t.swf", "--live", "9099"],
        ["check", "--strict"],
        ["check", "--json"],
        ["check", "--sarif", "x"],
        ["check", "--baseline", "x"],
        ["check", "--select", "RPR104"],
        ["check", "--ignore", "RPR104"],
        ["live", "summarize", "log.jsonl"],
        ["trace", "summarize", "trace.jsonl"],
        ["sweep", "selftest"],
        ["simulate", "t.swf", "--nodes", "4", "--policy", "slurm"],
        ["evaluate", "a.npz", "t.swf"],
        ["simulate", "t.swf", "--policy", "sjf", "--agent", "a.npz"],
        ["train", "--out", "a.npz", "--checkpoint", "c.npz"],
        ["train", "--out", "a.npz", "--checkpoint-every", "2"],
        ["train", "--out", "a.npz", "--resume", "a.npz"],
    ])
    def test_retired_bench_surface_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestMakePolicy:
    """Each ``simulate --policy`` name builds the scheduler it names."""

    @pytest.mark.parametrize(
        "name,expected",
        [("fcfs", "FCFS"), ("binpacking", "BinPacking"), ("random", "Random"),
         ("knapsack", "Optimization"), ("sjf", "SJF"), ("ljf", "LJF"),
         ("conservative", "Conservative")],
    )
    def test_known_policies(self, name, expected):
        assert POLICIES[name]("capability", 0).name == expected


class TestGenerateSimulate:
    def test_generate_then_simulate(self, tmp_path, capsys):
        trace = tmp_path / "trace.swf"
        rc = main(["generate", "theta", "150", "--nodes", "64",
                   "--out", str(trace)])
        assert rc == 0
        assert trace.exists()
        out = capsys.readouterr().out
        assert "wrote 150 jobs" in out

        rc = main(["simulate", str(trace), "--nodes", "64",
                   "--policy", "fcfs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg wait" in out and "utilization" in out

    def test_simulate_all_policies(self, tmp_path, capsys):
        trace = tmp_path / "trace.swf"
        main(["generate", "theta", "60", "--nodes", "32", "--out", str(trace)])
        capsys.readouterr()
        for policy in ("binpacking", "sjf", "conservative", "knapsack"):
            rc = main(["simulate", str(trace), "--nodes", "32",
                       "--policy", policy])
            assert rc == 0

    def test_simulate_empty_trace_fails(self, tmp_path, capsys):
        trace = tmp_path / "empty.swf"
        trace.write_text("; nothing here\n")
        rc = main(["simulate", str(trace), "--nodes", "8"])
        assert rc == 1

    @pytest.mark.parametrize("trace,extra,message", [
        ("big.swf", [], "job 1 (size 128) can never fit on a 8-node cluster"),
        ("big.swf", ["--faults", "mtbf=abc"],
         "bad --faults value mtbf='abc': expected a number"),
        ("missing.swf", [], "No such file or directory"),
        ("bad.swf", [], "bad.swf:1: expected 18 fields, got 4"),
        ("big.swf", ["--procs-per-node", "0"],
         "procs_per_node must be positive, got 0"),
        ("big.swf", ["--procs-per-node", "-1"],
         "procs_per_node must be positive, got -1"),
        ("big.swf", ["--max-jobs", "0"], "max_jobs must be positive, got 0"),
        ("big.swf", ["--max-jobs", "-1"], "max_jobs must be positive, got -1"),
        ("big.swf", ["--frozen"], "--frozen applies only with --agent"),
    ], ids=["oversized-job", "bad-faults", "missing-trace", "malformed-swf",
            "zero-procs-per-node", "negative-procs-per-node",
            "zero-max-jobs", "negative-max-jobs", "frozen-without-agent"])
    def test_bad_input_is_one_line_and_exit_two(self, tmp_path, capsys,
                                                trace, extra, message):
        (tmp_path / "big.swf").write_text(
            "1 0 0 100 128 -1 -1 128 200 -1 1 1 1 1 1 1 -1 -1\n")
        (tmp_path / "bad.swf").write_text("1 0 0 100\n")
        rc = main(["simulate", str(tmp_path / trace), "--nodes", "8", *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("command,trace,extra,message", [
        ("evaluate", "big.swf", [],
         "job 1 (size 128) can never fit on a 16-node cluster"),
        ("evaluate", "bad.swf", [], "bad.swf:1: expected 18 fields, got 4"),
        ("evaluate", "big.swf", ["--nodes", "8"],
         "--nodes 8 differs from the agent's 16 nodes"),
        ("evaluate", "big.swf", ["--objective", "capacity"],
         "--objective applies only with --policy"),
        ("evaluate", "big.swf", ["--seed", "0"],
         "--seed applies only with --policy"),
        ("simulate", "big.swf", [], "--nodes is required with a policy"),
        ("fit", "missing.swf", [], "No such file or directory"),
        ("fit", "bad.swf", [], "bad.swf:1: expected 18 fields, got 4"),
        ("fit", "big.swf", ["--procs-per-node", "0"],
         "procs_per_node must be positive, got 0"),
        ("fit", "big.swf", ["--procs-per-node", "-1"],
         "procs_per_node must be positive, got -1"),
        ("fit", "big.swf", ["--max-jobs", "0"],
         "max_jobs must be positive, got 0"),
        ("fit", "big.swf", ["--max-jobs", "-1"],
         "max_jobs must be positive, got -1"),
    ], ids=["evaluate-oversized-job", "evaluate-malformed-swf",
            "evaluate-other-nodes", "evaluate-objective", "evaluate-seed",
            "policy-without-nodes",
            "fit-missing-trace", "fit-malformed-swf",
            "fit-zero-procs-per-node", "fit-negative-procs-per-node",
            "fit-zero-max-jobs", "fit-negative-max-jobs"])
    def test_evaluate_and_fit_bad_input_is_one_line_and_exit_two(
            self, tmp_path, capsys, command, trace, extra, message):
        """An agent replay (``evaluate``: ``simulate --agent FILE``), a
        policy replay without ``--nodes``, and ``fit``."""
        from repro.core.config import DRASConfig
        from repro.core.dras_pg import DRASPG
        from repro.core.persistence import save_agent

        (tmp_path / "big.swf").write_text(
            "1 0 0 100 128 -1 -1 128 200 -1 1 1 1 1 1 1 -1 -1\n")
        (tmp_path / "bad.swf").write_text("1 0 0 100\n")
        agent = tmp_path / "a.npz"
        save_agent(DRASPG(DRASConfig.scaled(16, window=5)), agent)
        argv = {"evaluate": ["simulate", str(tmp_path / trace),
                             "--agent", str(agent)],
                "simulate": ["simulate", str(tmp_path / trace)],
                "fit": ["fit", str(tmp_path / trace), "--nodes", "8",
                        "--out", str(tmp_path / "x.swf")]}[command]
        assert main([*argv, *extra]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "x.swf").exists()

    @pytest.mark.parametrize("argv,message", [
        (["generate", "theta", "-5", "--nodes", "32"],
         "n_jobs must be positive"),
        (["generate", "theta", "10", "--nodes", "32", "--load-factor", "0"],
         "load_factor must be positive"),
        (["train", "--nodes", "0"], "--nodes must be positive, got 0"),
        (["train", "--nodes", "32", "--window", "0"],
         "window must be positive"),
        (["generate", "theta", "10", "--nodes", "-5"],
         "--nodes must be >= 0, got -5"),
        (["train", "--train-jobs", "0"],
         "--train-jobs must be positive, got 0"),
        (["train", "--jobs-per-set", "0"],
         "--jobs-per-set must be positive, got 0"),
        (["train", "--real", "0"], "--real must be positive, got 0"),
        (["train", "--synthetic", "0"], "--synthetic must be positive, got 0"),
        (["train", "--sampled", "-1"], "--sampled must be >= 0, got -1"),
        (["train", "--nodes", "16", "--window", "5", "--train-jobs", "1"],
         "cannot infer arrival rate from a degenerate trace"),
        (["train", "--nodes", "16", "--train-jobs", "2", "--sampled", "0"],
         "trace yields only 2 non-empty chunks, cannot build 4 real jobsets"),
    ], ids=["generate-negative-jobs", "generate-zero-load-factor",
            "train-zero-nodes", "train-zero-window", "generate-negative-nodes",
            "train-zero-train-jobs", "train-zero-jobs-per-set",
            "train-zero-real", "train-zero-synthetic",
            "train-negative-sampled", "train-one-job", "train-short-trace"])
    def test_generate_and_train_bad_numbers_are_one_line_and_exit_two(
            self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"bad input: {message}\n"
        assert not out.exists()

    def test_load_factor(self, tmp_path, capsys):
        a, b = tmp_path / "a.swf", tmp_path / "b.swf"
        main(["generate", "theta", "200", "--nodes", "64", "--out", str(a),
              "--load-factor", "0.5"])
        main(["generate", "theta", "200", "--nodes", "64", "--out", str(b),
              "--load-factor", "2.0"])
        from repro.workload import read_swf

        span_a = read_swf(a)[-1].submit_time
        span_b = read_swf(b)[-1].submit_time
        assert span_b < span_a


class TestTrainEvaluate:
    def test_train_then_evaluate(self, tmp_path, capsys):
        ckpt = tmp_path / "agent.npz"
        rc = main([
            "train", "--system", "theta", "--agent", "dql",
            "--nodes", "32", "--window", "6", "--train-jobs", "150",
            "--sampled", "1", "--real", "1", "--synthetic", "1",
            "--jobs-per-set", "50", "--out", str(ckpt),
        ])
        assert rc == 0
        assert ckpt.exists()
        out = capsys.readouterr().out
        assert "trained 3 episodes" in out

        trace = tmp_path / "test.swf"
        main(["generate", "theta", "80", "--nodes", "32", "--out", str(trace)])
        capsys.readouterr()
        rc = main(["simulate", str(trace), "--agent", str(ckpt), "--frozen"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "DRAS-DQL" in out and "avg wait" in out


    # CI runs every kind of repro.core.AGENTS through the same steps
    @pytest.mark.parametrize("kind", ["pg"])
    def test_resumed_file_equals_a_straight_run(self, tmp_path, capsys,
                                                kind):
        """``--out F`` trained for 2 episodes and continued with
        ``--out F --resume`` and one more synthetic jobset holds the
        bytes a straight 3-episode run writes, and replays the same."""
        resumed, straight = tmp_path / "r.npz", tmp_path / "s.npz"
        train = ["train", "--agent", kind, "--nodes", "16", "--window", "5",
                 "--train-jobs", "40", "--sampled", "0", "--real", "1",
                 "--jobs-per-set", "20"]
        assert main(train + ["--synthetic", "1", "--out", str(resumed)]) == 0
        assert main(train + ["--synthetic", "2", "--out", str(resumed),
                             "--resume"]) == 0
        assert "2 episodes already done" in capsys.readouterr().out
        assert main(train + ["--synthetic", "2", "--out", str(straight)]) == 0
        assert resumed.read_bytes() == straight.read_bytes()
        trace = tmp_path / "e.swf"
        main(["generate", "theta", "40", "--nodes", "16",
              "--out", str(trace)])
        capsys.readouterr()
        reports = []
        for path in (resumed, straight):
            assert main(["simulate", str(trace), "--agent", str(path)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("flag, value, trained, held", [
        ("--agent", "dql", {}, "kind=pg"),
        ("--nodes", "32", {}, "num_nodes=16"),
        ("--window", "6", {}, "window=5"),
        ("--seed", "5", {}, "seed=0"),
        ("--system", "cori", {}, "objective=capability"),
        ("--faults", "mtbf=90000,mttr=60,seed=9",
         {"--faults": "mtbf=5000,mttr=1800,seed=1"},
         "faults=mtbf=5000.0,mttr=1800.0,seed=1,blade_size=4,"
         "blade_prob=0.25,job_kill_mtbf=0.0,requeue=requeue-front,"
         "min_repair=60.0,max_requeues=None"),
        ("--faults", "mtbf=90000,mttr=60,seed=9", {}, "faults=none")],
        ids=["--agent-dql", "--nodes-32", "--window-6", "--seed-5",
             "--system-cori", "--faults-other", "--faults-on-fault-free"])
    def test_resume_refuses_flags_the_file_contradicts(
            self, tmp_path, capsys, flag, value, trained, held):
        """One ``bad input:`` line naming the flag and the file's value,
        exit 2, and neither the file nor the run directory touched."""
        path, run = tmp_path / "a.npz", tmp_path / "run"
        flags = {"--agent": "pg", "--nodes": "16", "--window": "5",
                 "--seed": "0", "--system": "theta", "--train-jobs": "40",
                 "--sampled": "0", "--real": "1", "--synthetic": "1",
                 "--jobs-per-set": "20", "--out": str(path),
                 "--run-dir": str(run), **trained}

        def argv(changed):
            return ["train", "--live", *(word for pair in
                                         {**flags, **changed}.items()
                                         for word in pair)]

        assert main(argv({})) == 0
        before = {p.name: p.read_bytes() for p in [path, *run.iterdir()]}
        capsys.readouterr()
        assert main(argv({flag: value}) + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert err == (f"bad input: {flag} {value} does not match {path}, "
                       f"trained with {held}\n")
        assert {p.name: p.read_bytes()
                for p in [path, *run.iterdir()]} == before

    @pytest.mark.parametrize("command", ["evaluate", "resume"])
    def test_truncated_agent_file_exits_two(self, tmp_path, capsys,
                                            command):
        from repro.core.config import DRASConfig
        from repro.core.dras_pg import DRASPG
        from repro.core.persistence import save_agent

        path = tmp_path / "a.npz"
        save_agent(DRASPG(DRASConfig.scaled(16, window=5)), path)
        path.write_bytes(path.read_bytes()[:-10])
        truncated = path.read_bytes()
        argv = {"evaluate": ["simulate", str(tmp_path / "e.swf"),
                             "--agent", str(path)],
                "resume": ["train", "--nodes", "16", "--window", "5",
                           "--out", str(path), "--resume"]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bad agent file: checkpoint {path} ")
        assert err.count("\n") == 1
        assert "Traceback" not in err and path.read_bytes() == truncated

    def test_missing_agent_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "absent.npz"
        assert main(["simulate", str(tmp_path / "e.swf"),
                     "--agent", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"bad agent file: checkpoint {path} does not exist; "
                       "check the path or start from scratch\n")

class TestFit:
    def test_fit_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "real.swf"
        main(["generate", "theta", "400", "--nodes", "64", "--out", str(trace)])
        capsys.readouterr()
        out = tmp_path / "fitted.swf"
        rc = main(["fit", str(trace), "--nodes", "64", "--jobs", "200",
                   "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "arrival rate" in stdout
        assert "wrote 200 fitted synthetic jobs" in stdout
        from repro.workload import read_swf

        assert len(read_swf(out)) == 200

    def test_fit_tiny_trace_fails(self, tmp_path, capsys):
        trace = tmp_path / "one.swf"
        fields = [1, 0, -1, 50, 4, -1, -1, 4, 100, -1, 1, 1, -1, -1, 0, -1, -1, -1]
        trace.write_text(" ".join(map(str, fields)) + "\n")
        rc = main(["fit", str(trace), "--nodes", "8", "--out",
                   str(tmp_path / "x.swf")])
        assert rc == 1


class TestCheck:
    """Exit-code contract of ``repro check``: 0 clean, 1 findings, 2 usage."""

    def _clean_file(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text('"""Clean."""\nX = 1\n')
        return path

    def _dirty_file(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text('"""Dirty."""\n\n\ndef f(items=[]):\n    return items\n')
        return path

    def test_clean_exits_zero(self, tmp_path, capsys):
        rc = main(["check", str(self._clean_file(tmp_path))])
        assert rc == 0
        assert "no RPR104-RPR106 violations" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        rc = main(["check", str(self._dirty_file(tmp_path))])
        assert rc == 1
        assert "RPR104" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        rc = main(["check", "/definitely/not/a/path"])
        assert rc == 2

    @pytest.mark.parametrize("name", ["RPR201", "unit-mix", "RPR303", "nn-batch",
                                      "RPR403", "observer-hook", "RPR101",
                                      "global-rng", "RPR103", "wall-clock",
                                      "RPR107", "float-accum-order"])
    def test_retired_rule_is_unknown(self, capsys, name):
        assert main(["check", "--list-rules"]) == 0
        assert name not in capsys.readouterr().out


class TestReproduce:
    def test_reproduce_table1(self, capsys):
        rc = main(["reproduce", "table1"])
        assert rc == 0
        assert "Table I" in capsys.readouterr().out

    def test_reproduce_table3_with_run_dir(self, tmp_path, capsys):
        run = tmp_path / "run"
        rc = main(["reproduce", "table3", "--run-dir", str(run)])
        assert rc == 0
        assert "21,890,053" in (run / "report.txt").read_text()
        assert (run / "report.txt").read_text() == capsys.readouterr().out
        assert {"manifest.json", "spec.json", "shards", "rollup.json"} <= {
            p.name for p in run.iterdir()}

    def test_report_rerenders_a_run_without_running_a_cell(
            self, tmp_path, capsys, monkeypatch):
        from repro.experiments import pool

        run = tmp_path / "run"
        assert main(["reproduce", "table1", "--scale", "tiny", "--live",
                     "--run-dir", str(run)]) == 0
        printed = capsys.readouterr().out

        def no_cell(*args, **kwargs):
            raise AssertionError("repro report ran a cell")

        monkeypatch.setattr(pool, "_execute_cell", no_cell)
        assert main(["report", str(run)]) == 0
        captured = capsys.readouterr()
        assert captured.out == (run / "report.txt").read_text() == printed
        assert "Table I" in captured.out
        assert f"wrote report to {run / 'report.html'}" in captured.err
        html = (run / "report.html").read_text()
        assert "Manifest" in html
        assert "<h2>Live log</h2>" in html and "<tr><td>sweep</td>" in html

    def test_non_empty_run_dir_without_a_store_is_refused(
            self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "notes.txt").write_text("not a sweep\n")
        rc = main(["reproduce", "table1", "--scale", "tiny",
                   "--run-dir", str(run)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not empty but holds no spec.json" in captured.err
        assert [p.name for p in run.iterdir()] == ["notes.txt"]

    def test_reproduce_fig2_tiny(self, capsys):
        rc = main(["reproduce", "fig2", "--scale", "tiny"])
        assert rc == 0
        assert "Fig 2" in capsys.readouterr().out

    def test_reproduce_overhead_scaled(self, capsys):
        rc = main(["reproduce", "overhead",
                   "--param", "full_size_overhead=false"])
        assert rc == 0
        assert "V-E" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig99"])

    def test_malformed_faults_is_a_bad_spec(self, capsys):
        rc = main(["reproduce", "faultsweep", "--scale", "tiny",
                   "--faults", "bogus"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "bad sweep spec: bad --faults entry 'bogus': expected key=value"]

    def test_raising_experiment_is_retried_and_exits_one(
            self, monkeypatch, capsys):
        from repro.experiments import pool, table1

        calls = []

        def boom():
            calls.append(1)
            raise RuntimeError("boom")

        monkeypatch.setattr(table1, "run", boom)
        rc = main(["reproduce", "table1"])
        assert rc == 1
        assert len(calls) == 1 + pool.DEFAULT_RETRIES
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_resume_without_run_dir_exits_two_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["reproduce", "selftest", "--resume"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--run-dir" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestReportAndTrace:
    def _simulated(self, tmp_path, capsys):
        swf = tmp_path / "w.swf"
        main(["generate", "theta", "60", "--nodes", "32", "--out", str(swf)])
        run = tmp_path / "run"
        rc = main(["simulate", str(swf), "--nodes", "32",
                   "--run-dir", str(run)])
        assert rc == 0
        capsys.readouterr()
        return run

    def test_simulate_run_dir_then_report(self, tmp_path, capsys):
        run = self._simulated(tmp_path, capsys)
        assert sorted(p.name for p in run.iterdir()) == [
            "manifest.json", "trace.jsonl"]
        rc = main(["report", str(run)])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "wrote report" in captured.err
        html = (run / "report.html").read_text()
        assert html.startswith("<!doctype html>")
        assert "<svg" in html  # trace analytics charts made it in

    def test_report_stitches_artifacts(self, tmp_path, capsys):
        run = self._simulated(tmp_path, capsys)
        rc = main(["report", str(run), "--title", "stitched"])
        assert rc == 0
        html = (run / "report.html").read_text()
        assert "<title>stitched</title>" in html
        assert "Trace analytics" in html and "Manifest" in html
        assert "jobs finished" in html  # the manifest summary's tiles

    def test_report_missing_artifact_exits_2(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "absent")])
        assert rc == 2
        assert "cannot build report" in capsys.readouterr().err
        (tmp_path / "torn").mkdir()
        (tmp_path / "torn" / "manifest.json").write_text("{")
        assert main(["report", str(tmp_path / "torn")]) == 2
        assert "cannot build report" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"schema": "repro.manifest/v0", "kind": "simulate"},
         "unknown manifest schema 'repro.manifest/v0'"),
        (["repro.manifest/v1"], "unknown manifest schema None"),
        ({"schema": "repro.manifest/v1"}, "manifest names no kind"),
    ], ids=["other-schema", "not-an-object", "no-kind"])
    def test_report_of_a_manifest_of_another_schema_exits_2(
            self, tmp_path, capsys, doc, message):
        # the manifest is read through RunManifest.read, which checks
        # its schema: one line, exit 2, and no report.html
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        assert main(["report", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot build report: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "report.html").exists()

    def test_trace_summarize(self, tmp_path, capsys):
        """The report's trace section is the trace's summary."""
        run = self._simulated(tmp_path, capsys)
        assert main(["report", str(run)]) == 0
        html = (run / "report.html").read_text()
        assert "engine.instance" in html
        assert "Scheduler decision latency" in html
        assert "Events by name" in html and "simulated span" in html

    def test_trace_summarize_missing_file_exits_2(self, tmp_path, capsys):
        run = tmp_path / "run"
        (run / "trace.jsonl").mkdir(parents=True)  # there, but unreadable
        rc = main(["report", str(run)])
        assert rc == 2
        assert "cannot build report" in capsys.readouterr().err
        assert not (run / "report.html").exists()

    def test_report_of_an_empty_directory_exits_2(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nothing to report" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_faulted_live_run_report_shows_every_summary_fact(
            self, tmp_path, capsys):
        """``report DIR`` shows all that the trace summary and the live
        rollup printed before the report absorbed them."""
        from html import escape

        from repro.obs.analyze import summarize_trace
        from repro.obs.live import read_log
        from repro.obs.report import _fmt, _seconds_fmt

        swf = tmp_path / "w.swf"
        main(["generate", "theta", "200", "--nodes", "32", "--out", str(swf)])
        run = tmp_path / "run"
        assert main(["simulate", str(swf), "--nodes", "32", "--faults",
                     "mtbf=20000,mttr=1800,job_kill_mtbf=30000,seed=1",
                     "--live", "--run-dir", str(run)]) == 0
        assert main(["report", str(run)]) == 0
        capsys.readouterr()
        html = (run / "report.html").read_text()

        def row(*cells):
            return "<tr>" + "".join(f"<td>{cell}</td>" for cell in cells) \
                + "</tr>"

        trace = summarize_trace(run / "trace.jsonl")
        assert trace.n_unclosed == 0 and trace.peak_busy_nodes > 0
        for stat, value in (("records", trace.n_records),
                            ("spans", trace.n_spans),
                            ("unclosed spans", trace.n_unclosed),
                            ("events", trace.n_events),
                            ("peak busy nodes", trace.peak_busy_nodes)):
            assert row(stat, _fmt(value)) in html, stat
        assert {"engine.node_fail", "engine.job_kill"} <= set(
            trace.event_counts)
        for name, count in trace.event_counts.items():
            assert row(name, _fmt(count)) in html, name
        t0, t1 = trace.sim_time_span
        assert row("simulated span", f"{t0:,.0f} .. {t1:,.0f} s "
                                     f"({(t1 - t0) / 3600:,.2f} h)") in html
        for entry in trace.profile.as_dict()["flat"][:10]:  # the top spans
            assert f"<td>{escape(entry['name'])}</td><td>" \
                f"{_fmt(entry['calls'])}</td>" in html
        hist = trace.decision_histogram
        assert row("n", _fmt(hist.count)) + row(
            "mean", _seconds_fmt(hist.mean)) in html
        for stat, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99),
                        ("max", 1.0)):
            assert row(stat, _seconds_fmt(trace.decision_latency(q))) in html

        log = read_log(run / "log.jsonl")
        assert f"Snapshots per kind ({log['skipped']} skipped line(s))" \
            in html
        assert list(log["kinds"]) == ["sim"]
        for kind, bucket in log["kinds"].items():
            last = bucket["last"]
            assert row(kind, _fmt(bucket["snapshots"]),
                       ", ".join(bucket["sources"]), _fmt(last["done"]),
                       _fmt(last["total"])) in html
            assert {"events", "faults", "done"} <= set(bucket["fields"])
            for name, stats in bucket["fields"].items():
                assert row(kind, name, _fmt(stats["min"]),
                           _fmt(stats["max"])) in html, name

    def test_faulted_agent_replay_report_shows_the_agent(self, tmp_path,
                                                         capsys):
        """``simulate --agent`` keeps a run directory as a policy replay
        does: its report has the manifest tiles, the resilience summary
        and the agent's own spans in the trace section."""
        from repro.core.config import DRASConfig
        from repro.core.dras_pg import DRASPG
        from repro.core.persistence import save_agent
        from repro.obs.manifest import RunManifest
        from repro.obs.report import _tile

        agent, swf, run = (tmp_path / "a.npz", tmp_path / "w.swf",
                           tmp_path / "run")
        save_agent(DRASPG(DRASConfig.scaled(16, window=5)), agent)
        main(["generate", "theta", "60", "--nodes", "16", "--out", str(swf)])
        assert main(["simulate", str(swf), "--agent", str(agent), "--faults",
                     "mtbf=20000,mttr=1800,seed=1", "--run-dir",
                     str(run)]) == 0
        assert "DRAS-PG:" in capsys.readouterr().out
        assert main(["report", str(run)]) == 0
        html = (run / "report.html").read_text()
        manifest = RunManifest.read(run / "manifest.json")
        assert manifest.config["agent"] == "pg"
        assert manifest.config["agent_file"] == str(agent)
        for label, value in (("agent", "pg"), ("nodes", 16),
                             ("jobs finished", 60)):
            assert _tile(label, value) in html
        failures = manifest.summary["resilience"]["node_failures"]
        assert failures > 0
        assert f"<tr><td>summary.resilience.node_failures</td>" \
            f"<td>{failures}</td></tr>" in html
        for span in ("agent.encode", "agent.sample"):
            assert f"<td>{span}</td><td>" in html, span

    def test_train_run_dir_report_has_telemetry(self, tmp_path, capsys):
        run = tmp_path / "run"
        rc = main(["train", "--agent", "pg", "--system", "theta",
                   "--nodes", "32", "--window", "6", "--train-jobs", "150",
                   "--sampled", "1", "--real", "1", "--synthetic", "1",
                   "--jobs-per-set", "50", "--out", str(tmp_path / "a.npz"),
                   "--run-dir", str(run), "--live"])
        assert rc == 0
        out = capsys.readouterr().out
        log = run / "log.jsonl"
        assert f"wrote the training log to {log}" in out
        from repro.obs.live import read_log
        episodes = read_log(log)["train"]
        assert [r["seq"] for r in episodes] == [1, 2, 3]
        assert all(r["kind"] == "train" and "grad_norm" in r
                   for r in episodes)
        assert main(["report", str(run)]) == 0
        html = (run / "report.html").read_text()
        assert "Training telemetry" in html and "Manifest" in html


class TestLiveCLI:
    """``--live``, its ``DIR/log.jsonl`` and the report's Live log card."""

    def _trace(self, tmp_path, capsys, n=80):
        trace = tmp_path / "trace.swf"
        main(["generate", "theta", str(n), "--nodes", "32",
              "--out", str(trace)])
        capsys.readouterr()
        return trace

    def test_live_record_shard_then_summarize(self, tmp_path, capsys):
        trace = self._trace(tmp_path, capsys)
        shard = tmp_path / "run" / "log.jsonl"
        rc = main(["simulate", str(trace), "--nodes", "32",
                   "--policy", "fcfs", "--live",
                   "--run-dir", str(shard.parent)])
        assert rc == 0
        capsys.readouterr()
        import json as _json

        lines = shard.read_text().splitlines()
        assert _json.loads(lines[0])["type"] == "meta"
        assert _json.loads(lines[-1])["final"] is True

        rc = main(["report", str(shard.parent)])
        assert rc == 0
        html = (shard.parent / "report.html").read_text()
        assert "<h2>Live log</h2>" in html and "<tr><td>sim</td>" in html

    def test_live_progress_line_on_stderr(self, tmp_path, capsys):
        trace = self._trace(tmp_path, capsys)
        rc = main(["simulate", str(trace), "--nodes", "32",
                   "--policy", "fcfs", "--live"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[sim]" in err and "done" in err

    def test_train_live_record_is_the_resumable_training_log(
            self, tmp_path, capsys):
        log = tmp_path / "run" / "log.jsonl"
        train = ["train", "--nodes", "32", "--window", "4",
                 "--train-jobs", "100", "--sampled", "1", "--real", "1",
                 "--jobs-per-set", "50", "--out", str(tmp_path / "tr.npz"),
                 "--run-dir", str(log.parent), "--live"]
        assert main(train + ["--synthetic", "1"]) == 0
        assert main(train + ["--synthetic", "2", "--resume"]) == 0
        capsys.readouterr()
        import json as _json

        rows = [_json.loads(line) for line in log.read_text().splitlines()]
        assert [r["type"] for r in rows].count("meta") == 1
        train_rows = [r for r in rows if r.get("kind") == "train"]
        assert [(r["episode"], r["seq"]) for r in train_rows] == [
            (0, 1), (1, 2), (2, 3), (3, 4)]
        for row in train_rows:  # the one record: every field, one name
            assert {"anomalies", "queue_depth", "queue_depth_min",
                    "queue_depth_max", "utilization", "loss", "grad_norm",
                    "episode_wall_s", "instances", "done",
                    "total"} <= row.keys()
        assert main(["report", str(log.parent)]) == 0
        assert "<tr><td>train</td><td>4</td><td>train</td><td>4</td>" \
            "<td>4</td></tr>" in (log.parent / "report.html").read_text()

    def test_live_summarize_missing_shard_exits_2(self, tmp_path, capsys):
        run = tmp_path / "run"  # a run directory whose log never came
        run.mkdir()
        (run / "notes.txt").write_text("no artifacts\n")
        rc = main(["report", str(run)])
        assert rc == 2
        assert "nothing to report" in capsys.readouterr().err
        assert [p.name for p in run.iterdir()] == ["notes.txt"]

    def test_manifest_digest_identical_live_vs_dark(self, tmp_path, capsys):
        """Watching a run must not change what the run computed."""
        from repro.obs.manifest import RunManifest

        trace = self._trace(tmp_path, capsys)
        dark, live = tmp_path / "dark", tmp_path / "live"
        assert main(["simulate", str(trace), "--nodes", "32",
                     "--run-dir", str(dark)]) == 0
        assert main(["simulate", str(trace), "--nodes", "32",
                     "--run-dir", str(live), "--live"]) == 0
        capsys.readouterr()
        assert not (dark / "log.jsonl").exists()
        assert (live / "log.jsonl").stat().st_size > 0
        assert RunManifest.read(dark / "manifest.json").stable_digest() == \
            RunManifest.read(live / "manifest.json").stable_digest()


class TestSweepCLI:
    """``reproduce``'s execution options, on the pool's self-test."""

    def test_selftest_sweep_exits_zero(self, tmp_path, capsys):
        store = tmp_path / "store"
        rc = main(["reproduce", "selftest", "--run-dir", str(store),
                   "--seed", "7", "--param", "cells=4"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "reproduce: 4/4 cells complete" in err
        assert "digest" in err
        assert (store / "rollup.json").exists()

    def test_rerun_requires_resume_flag(self, tmp_path, capsys):
        store = tmp_path / "store"
        args = ["reproduce", "selftest", "--run-dir", str(store),
                "--param", "cells=2"]
        assert main(args) == 0
        capsys.readouterr()
        rc = main(args)
        assert rc == 2
        assert "resume" in capsys.readouterr().err
        rc = main(args + ["--resume"])
        assert rc == 0
        assert "(2 resumed" in capsys.readouterr().err

    def test_bad_param_exits_two(self, tmp_path, capsys):
        rc = main(["reproduce", "selftest", "--run-dir", str(tmp_path / "s"),
                   "--param", "no-equals-sign"])
        assert rc == 2
        assert "bad sweep spec" in capsys.readouterr().err

    def test_nan_timeout_exits_two(self, tmp_path, capsys):
        # a NaN never equals itself, so a store stamped with it could
        # never be resumed
        rc = main(["reproduce", "selftest", "--run-dir", str(tmp_path / "s"),
                   "--timeout", "nan"])
        assert rc == 2
        assert "bad sweep spec" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_negative_workers_writes_nothing(self, tmp_path, capsys):
        store = tmp_path / "s"
        rc = main(["reproduce", "selftest", "--run-dir", str(store),
                   "--workers", "-1"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "reproduce: workers must be >= 0, got -1"]
        assert not store.exists()

    def test_faults_rejected_for_non_faultsweep(self, tmp_path, capsys):
        rc = main(["reproduce", "selftest", "--run-dir", str(tmp_path / "s"),
                   "--faults", "mtbf=2000,seed=0"])
        assert rc == 2
        assert "faultsweep" in capsys.readouterr().err

    def test_malformed_faults_writes_no_shard(self, tmp_path, capsys):
        store = tmp_path / "s"
        rc = main(["reproduce", "faultsweep", "--scale", "tiny",
                   "--run-dir", str(store), "--faults", "bogus"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "bad sweep spec: bad --faults entry 'bogus': expected key=value"]
        assert not store.exists()

    def test_non_numeric_faults_value_names_the_key(self, tmp_path, capsys):
        store = tmp_path / "s"
        rc = main(["reproduce", "faultsweep", "--scale", "tiny",
                   "--run-dir", str(store), "--faults", "mtbf=2000,mttr=abc"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "bad sweep spec: bad --faults value mttr='abc': "
            "expected a number"]
        assert not store.exists()

    def test_quarantined_cell_exits_one(self, tmp_path, capsys):
        store = tmp_path / "store"
        rc = main(["reproduce", "selftest", "--run-dir", str(store),
                   "--param", "cells=3", "--param", "fail=[1]",
                   "--retries", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "reproduce: 2/3 cells complete" in err
        assert "quarantined" in err and "RuntimeError" in err

    def test_faultsweep_sweep_renders_report(self, tmp_path, capsys):
        store = tmp_path / "store"
        rc = main(["reproduce", "faultsweep", "--run-dir", str(store),
                   "--workers", "2",
                   "--param", 'policies=["FCFS"]',
                   "--param", "mtbf_grid=[0.0]"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FCFS" in out
        assert (store / "report.txt").read_text() == out
