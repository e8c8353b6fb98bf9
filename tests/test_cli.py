"""End-to-end tests for the command-line interface."""

import pathlib
import shlex

import pytest

from repro.cli import build_parser, main, make_policy


def _readme_commands():
    """The ``python -m repro …`` lines of README.md's "Command line" block."""
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Command line")[1]
    block = block.split("\n## ")[0]
    return [line for line in block.splitlines()
            if line.startswith("python -m repro ")]


class TestParser:
    @pytest.mark.parametrize("line", _readme_commands(),
                             ids=lambda line: line.split()[3])
    def test_readme_command_parses(self, line):
        build_parser().parse_args(shlex.split(line, comments=True)[3:])

    def test_readme_advertises_commands(self):
        assert _readme_commands()  # else the case above is vacuous

    @pytest.mark.parametrize("argv", [
        ["bench"],
        ["report", "--out", "x.html", "--bench", "y.json"],
        ["simulate", "t.swf", "--live", "9099"],
    ])
    def test_retired_bench_surface_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestMakePolicy:
    @pytest.mark.parametrize(
        "name,expected",
        [("fcfs", "FCFS"), ("binpacking", "BinPacking"), ("random", "Random"),
         ("knapsack", "Optimization"), ("sjf", "SJF"), ("ljf", "LJF"),
         ("conservative", "Conservative")],
    )
    def test_known_policies(self, name, expected):
        assert make_policy(name).name == expected

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("slurm")


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
        rc = main(["evaluate", str(ckpt), str(trace), "--frozen"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "DRAS-DQL" in out and "avg wait" in out


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

    #: an observer whose second hook the engine would never call (RPR403)
    MISSPELT_HOOK = (
        '"""Bug."""\n\n\nclass Log:\n    """Observer."""\n\n'
        '    def on_start(self, job, now):\n        """A real hook."""\n\n'
        '    def on_reserved(self, job, now, reservation):\n'
        '        """Should be on_reserve."""\n'
    )

    def _clean_file(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text('"""Clean."""\nX = 1\n')
        return path

    def _dirty_file(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text('"""Dirty."""\n\n\ndef f(items=[]):\n    return items\n')
        return path

    def _misspelt_hook_pkg(self, tmp_path):
        """Two clean-looking files, one with a misspelt observer hook."""
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text(self.MISSPELT_HOOK)
        (pkg / "b.py").write_text('"""B."""\nX = 1\n')
        return pkg

    def test_clean_exits_zero(self, tmp_path, capsys):
        rc = main(["check", str(self._clean_file(tmp_path))])
        assert rc == 0
        assert "no determinism/correctness violations" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        rc = main(["check", str(self._dirty_file(tmp_path))])
        assert rc == 1
        assert "RPR104" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        rc = main(["check", "--select", "nosuchrule", str(self._clean_file(tmp_path))])
        assert rc == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        rc = main(["check", "/definitely/not/a/path"])
        assert rc == 2

    def test_bad_baseline_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = main(["check", "--baseline", str(bad), str(self._clean_file(tmp_path))])
        assert rc == 2
        assert "baseline" in capsys.readouterr().err

    def test_strict_finds_seeded_bug(self, tmp_path, capsys):
        pkg = self._misspelt_hook_pkg(tmp_path)
        assert main(["check", str(pkg)]) == 0  # per-file rules only
        capsys.readouterr()
        assert main(["check", "--strict", str(pkg)]) == 1
        assert "RPR403" in capsys.readouterr().out

    @pytest.mark.parametrize("targets", [("a.py", "b.py"), ("", "a.py")])
    def test_project_findings_reported_once_per_root(
            self, tmp_path, capsys, targets):
        pkg = self._misspelt_hook_pkg(tmp_path)
        rc = main(["check", "--strict", *(str(pkg / t) for t in targets)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out.count("RPR403") == 1
        assert "1 violation(s)" in captured.err

    @pytest.mark.parametrize("name", ["RPR403", "observer-hook"])
    def test_select_runs_a_whole_program_rule_without_strict(
            self, tmp_path, capsys, name):
        pkg = self._misspelt_hook_pkg(tmp_path)
        rc = main(["check", "--select", name, str(pkg)])
        assert rc == 1
        assert "RPR403" in capsys.readouterr().out
        # an explicit selection is exact: nothing else rides along
        (pkg / "b.py").write_text('"""B."""\n\n\ndef f(xs=[]):\n    return xs\n')
        assert main(["check", "--select", name, str(pkg / "b.py")]) == 1
        assert "RPR104" not in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["RPR201", "unit-mix", "RPR303", "nn-batch"])
    def test_retired_rule_is_unknown(self, tmp_path, capsys, name):
        rc = main(["check", "--select", name, str(self._clean_file(tmp_path))])
        assert rc == 2
        assert f"unknown rule(s): {name}" in capsys.readouterr().err

    def test_strict_parses_each_file_once(self, tmp_path, capsys, monkeypatch):
        import ast

        pkg = self._misspelt_hook_pkg(tmp_path)
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(filename)
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        assert main(["check", "--strict", str(pkg)]) == 1
        assert sorted(parsed) == [str(pkg / "a.py"), str(pkg / "b.py")]

    def test_json_output(self, tmp_path, capsys):
        import json as _json

        rc = main(["check", "--json", str(self._dirty_file(tmp_path))])
        assert rc == 1
        doc = _json.loads(capsys.readouterr().out)
        assert doc["count"] == 1
        assert doc["findings"][0]["rule"] == "RPR104"

    def test_sarif_output(self, tmp_path, capsys):
        import json as _json

        sarif = tmp_path / "out.sarif"
        rc = main(["check", "--sarif", str(sarif), "-q",
                   str(self._dirty_file(tmp_path))])
        assert rc == 1
        log = _json.loads(sarif.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"][0]["ruleId"] == "RPR104"

    def test_baseline_suppresses_known_findings(self, tmp_path, capsys):
        from repro.check import lint_paths
        from repro.check.report import save_baseline

        dirty = self._dirty_file(tmp_path)
        baseline = tmp_path / "base.json"
        save_baseline(baseline, lint_paths([dirty]))
        rc = main(["check", "--baseline", str(baseline), str(dirty)])
        assert rc == 0

    def test_list_rules_includes_project_rules_in_strict(self, capsys):
        rc = main(["check", "--list-rules"])
        assert rc == 0
        plain = capsys.readouterr().out
        assert "RPR101" in plain and "RPR401" not in plain
        rc = main(["check", "--strict", "--list-rules"])
        assert rc == 0
        strict = capsys.readouterr().out
        for rule_id in ("RPR101", "RPR401", "RPR404"):
            assert rule_id in strict
        assert "RPR2" not in strict and "RPR3" not in strict


class TestReproduce:
    def test_reproduce_table1(self, capsys):
        rc = main(["reproduce", "table1"])
        assert rc == 0
        assert "Table I" in capsys.readouterr().out

    def test_reproduce_table3_with_out(self, tmp_path, capsys):
        out_file = tmp_path / "t3.txt"
        rc = main(["reproduce", "table3", "--out", str(out_file)])
        assert rc == 0
        assert "21,890,053" in out_file.read_text()

    def test_reproduce_fig2_tiny(self, capsys):
        rc = main(["reproduce", "fig2", "--scale", "tiny"])
        assert rc == 0
        assert "Fig 2" in capsys.readouterr().out

    def test_reproduce_overhead_scaled(self, capsys):
        rc = main(["reproduce", "overhead", "--scaled-overhead"])
        assert rc == 0
        assert "V-E" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig99"])


class TestReportAndTrace:
    def _simulated(self, tmp_path, capsys):
        swf = tmp_path / "w.swf"
        main(["generate", "theta", "60", "--nodes", "32", "--out", str(swf)])
        trace = tmp_path / "trace.jsonl"
        manifest = tmp_path / "m.json"
        rc = main(["simulate", str(swf), "--nodes", "32",
                   "--trace-out", str(trace), "--manifest", str(manifest)])
        assert rc == 0
        capsys.readouterr()
        return trace, manifest

    def test_simulate_report_flag(self, tmp_path, capsys):
        swf = tmp_path / "w.swf"
        main(["generate", "theta", "60", "--nodes", "32", "--out", str(swf)])
        report = tmp_path / "run.html"
        rc = main(["simulate", str(swf), "--nodes", "32",
                   "--trace-out", str(tmp_path / "t.jsonl"),
                   "--report", str(report)])
        assert rc == 0
        assert "wrote report" in capsys.readouterr().out
        html = report.read_text()
        assert html.startswith("<!doctype html>")
        assert "<svg" in html  # trace analytics charts made it in

    def test_report_stitches_artifacts(self, tmp_path, capsys):
        trace, manifest = self._simulated(tmp_path, capsys)
        report = tmp_path / "r.html"
        rc = main(["report", "--out", str(report), "--title", "stitched",
                   "--manifest", str(manifest), "--trace", str(trace)])
        assert rc == 0
        html = report.read_text()
        assert "<title>stitched</title>" in html
        assert "Trace analytics" in html and "Manifest" in html

    def test_report_missing_artifact_exits_2(self, tmp_path, capsys):
        rc = main(["report", "--out", str(tmp_path / "r.html"),
                   "--trace", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert "cannot build report" in capsys.readouterr().err

    def test_trace_summarize(self, tmp_path, capsys):
        trace, _ = self._simulated(tmp_path, capsys)
        rc = main(["trace", "summarize", str(trace), "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine.instance" in out
        assert "decision latency" in out

    def test_trace_summarize_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["trace", "summarize", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_train_report_writes_telemetry_sidecar(self, tmp_path, capsys):
        ckpt = tmp_path / "agent.npz"
        report = tmp_path / "train.html"
        rc = main(["train", "--agent", "pg", "--system", "theta",
                   "--nodes", "32", "--window", "6", "--train-jobs", "150",
                   "--sampled", "1", "--real", "1", "--synthetic", "1",
                   "--jobs-per-set", "50", "--out", str(ckpt),
                   "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry records" in out
        sidecar = tmp_path / "agent.npz.telemetry.jsonl"
        assert sidecar.exists()
        from repro.rl.telemetry import episode_records, read_telemetry
        episodes = episode_records(read_telemetry(sidecar))
        assert episodes and all("grad_norm" in r for r in episodes)
        assert "Training telemetry" in report.read_text()


class TestLiveCLI:
    """``--live`` / ``--live-record`` and ``repro live summarize``."""

    def _trace(self, tmp_path, capsys, n=80):
        trace = tmp_path / "trace.swf"
        main(["generate", "theta", str(n), "--nodes", "32",
              "--out", str(trace)])
        capsys.readouterr()
        return trace

    def test_live_record_shard_then_summarize(self, tmp_path, capsys):
        trace = self._trace(tmp_path, capsys)
        shard = tmp_path / "run.jsonl"
        rc = main(["simulate", str(trace), "--nodes", "32",
                   "--policy", "fcfs", "--live-record", str(shard)])
        assert rc == 0
        capsys.readouterr()
        import json as _json

        lines = shard.read_text().splitlines()
        assert _json.loads(lines[0])["type"] == "meta"
        assert _json.loads(lines[-1])["final"] is True

        rc = main(["live", "summarize", str(shard)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "live rollup" in out and "[sim]" in out

    def test_live_progress_line_on_stderr(self, tmp_path, capsys):
        trace = self._trace(tmp_path, capsys)
        rc = main(["simulate", str(trace), "--nodes", "32",
                   "--policy", "fcfs", "--live"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[sim]" in err and "done" in err

    def test_live_summarize_json_and_out(self, tmp_path, capsys):
        trace = self._trace(tmp_path, capsys)
        shard = tmp_path / "run.jsonl"
        main(["simulate", str(trace), "--nodes", "32",
              "--live-record", str(shard)])
        capsys.readouterr()
        rc = main(["live", "summarize", str(shard), "--json"])
        assert rc == 0
        import json as _json

        doc = _json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.live-rollup/v1"
        out = tmp_path / "rollup.json"
        rc = main(["live", "summarize", str(shard), "--out", str(out)])
        assert rc == 0
        assert _json.loads(out.read_text())["kinds"]["sim"]["snapshots"] >= 1

    def test_live_summarize_missing_shard_exits_2(self, tmp_path, capsys):
        rc = main(["live", "summarize", str(tmp_path / "nope.jsonl")])
        assert rc == 2

    def test_manifest_digest_identical_live_vs_dark(self, tmp_path, capsys):
        """Watching a run must not change what the run computed."""
        from repro.obs.manifest import RunManifest

        trace = self._trace(tmp_path, capsys)
        dark, live = tmp_path / "dark.json", tmp_path / "live.json"
        assert main(["simulate", str(trace), "--nodes", "32",
                     "--manifest", str(dark)]) == 0
        assert main(["simulate", str(trace), "--nodes", "32",
                     "--manifest", str(live),
                     "--live-record", str(tmp_path / "s.jsonl")]) == 0
        capsys.readouterr()
        assert RunManifest.read(dark).stable_digest() == \
            RunManifest.read(live).stable_digest()


class TestSweepCLI:
    def test_selftest_sweep_exits_zero(self, tmp_path, capsys):
        store = tmp_path / "store"
        rc = main(["sweep", "selftest", "--store", str(store),
                   "--seed", "7", "--param", "cells=4"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "sweep: 4/4 cells complete" in err
        assert "digest" in err
        assert (store / "rollup.json").exists()

    def test_rerun_requires_resume_flag(self, tmp_path, capsys):
        store = tmp_path / "store"
        args = ["sweep", "selftest", "--store", str(store),
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
        rc = main(["sweep", "selftest", "--store", str(tmp_path / "s"),
                   "--param", "no-equals-sign"])
        assert rc == 2
        assert "bad sweep spec" in capsys.readouterr().err

    def test_nan_timeout_exits_two(self, tmp_path, capsys):
        # a NaN never equals itself, so a store stamped with it could
        # never be resumed
        rc = main(["sweep", "selftest", "--store", str(tmp_path / "s"),
                   "--timeout", "nan"])
        assert rc == 2
        assert "bad sweep spec" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_faults_rejected_for_non_faultsweep(self, tmp_path, capsys):
        rc = main(["sweep", "selftest", "--store", str(tmp_path / "s"),
                   "--faults", "mtbf=2000,seed=0"])
        assert rc == 2
        assert "faultsweep" in capsys.readouterr().err

    def test_quarantined_cell_exits_three(self, tmp_path, capsys):
        store = tmp_path / "store"
        rc = main(["sweep", "selftest", "--store", str(store),
                   "--param", "cells=3", "--param", "fail=[1]",
                   "--retries", "0"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "sweep: 2/3 cells complete" in err
        assert "quarantined" in err and "RuntimeError" in err

    def test_faultsweep_sweep_renders_report(self, tmp_path, capsys):
        store = tmp_path / "store"
        rc = main(["sweep", "faultsweep", "--store", str(store),
                   "--workers", "2",
                   "--param", 'policies=["FCFS"]',
                   "--param", "mtbf_grid=[0.0]"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FCFS" in out
