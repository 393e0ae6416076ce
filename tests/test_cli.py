"""Tests for the `python -m repro` command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.__main__ import ARTIFACT_NAMES, main


class TestCli:
    def test_list(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ARTIFACT_NAMES:
            assert name in out

    def test_single_artifact(self, capsys):
        assert main(["run", "--scale", "0.002", "--seed", "5", "--artifact", "table6"]) == 0
        out = capsys.readouterr().out
        assert "Debian" in out
        assert "Unpatched" in out

    def test_report_and_csv(self, tmp_path, capsys):
        report = tmp_path / "report.md"
        csv_dir = tmp_path / "csv"
        assert (
            main(
                [
                    "run", "--scale", "0.002", "--seed", "5",
                    "--report", str(report),
                    "--export-csv", str(csv_dir),
                ]
            )
            == 0
        )
        assert "Paper-target scorecard" in report.read_text()
        assert (csv_dir / "figure7.csv").exists()
        # Regression: the probe-execution summary must print on the
        # report/CSV-only path, not just the artifact path.
        out = capsys.readouterr().out
        assert "probe execution:" in out

    def test_trace_and_metrics_out(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "run", "--scale", "0.002", "--seed", "5",
                    "--artifact", "table6",
                    "--trace", str(trace),
                    "--metrics-out", str(metrics),
                ]
            )
            == 0
        )
        lines = trace.read_text().splitlines()
        assert lines, "trace file is empty"
        for line in lines[:50]:
            decoded = json.loads(line)
            assert decoded["vt"] is not None
        payload = json.loads(metrics.read_text())
        assert payload["scale"] == 0.002
        assert payload["executor_stages"]["total"]["probes_attempted"] > 0
        # Stage counts live only in executor_stages, and the file carries
        # no constant executor/worker fields.
        assert "exec.probes" not in payload["metrics"]["counters"]
        assert not {"executor", "workers"} & set(payload)
        out = capsys.readouterr().out
        assert "trace:" in out and "metrics written" in out

    def test_log_level_flag(self, capsys):
        import logging

        logger = logging.getLogger("repro")
        try:
            self._run_with_log_level(capsys)
        finally:
            logger.handlers.clear()
            logger.setLevel(logging.NOTSET)

    def _run_with_log_level(self, capsys):
        assert (
            main(
                [
                    "run", "--scale", "0.002", "--seed", "5",
                    "--artifact", "table6",
                    "--log-level", "INFO",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "INFO repro" in err

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--list"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "table1" in proc.stdout

    def test_closed_stdout_exits_1_without_a_traceback(self):
        # ``repro obs history FILE | head``, with the reader already gone
        # before the command writes its first line.
        ledger = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "ledger.jsonl"
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "obs", "history", ledger],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr


class TestRunResumeCli:
    BASE = ["--scale", "0.002", "--seed", "5", "--artifact", "table6"]

    def test_run_subcommand_without_deprecation_notice(self, capsys):
        assert main(["run", *self.BASE]) == 0
        captured = capsys.readouterr()
        assert "Debian" in captured.out
        assert "deprecated" not in captured.err

    def test_legacy_top_level_flags_print_a_notice(self, capsys):
        # The pre-subcommand form is gone: argparse exits 2 with usage.
        with pytest.raises(SystemExit) as exit_info:
            main(self.BASE)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "Debian" not in captured.out
        assert "usage: python -m repro" in captured.err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--warm-rounds", "-1"),
            ("--queue-depth", "0"),
            ("--tenant-connections", "0"),
            ("--loadtest", "0"),
            ("--loadtest-threads", "0"),
            ("--queue-depth", "many"),
        ],
    )
    def test_serve_integer_flags_out_of_range_exit_2(self, flag, value, capsys):
        # Checked at parse time: no world is built and no daemon starts.
        from repro.cli.parser import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_serve_integer_flags_accept_their_minimum(self):
        from repro.cli.parser import build_parser

        args = build_parser().parse_args(
            ["serve", "--warm-rounds", "0", "--queue-depth", "1",
             "--tenant-connections", "1", "--loadtest", "1",
             "--loadtest-threads", "1"]
        )
        assert (args.warm_rounds, args.queue_depth, args.tenant_connections,
                args.loadtest, args.loadtest_threads) == (0, 1, 1, 1, 1)

    def test_abort_after_round_requires_store(self, tmp_path, capsys):
        # Rejected before the world or the perf sideband is opened: an
        # earlier profiled run's streams in the --perf directory survive.
        perf_dir = tmp_path / "perf"
        assert main([
            "run", "--scale", "0.002", "--seed", "5", "--artifact", "table6",
            "--perf", str(perf_dir),
        ]) == 0
        before = {path.name: path.read_bytes() for path in perf_dir.iterdir()}
        assert "perf.jsonl" in before and "perf_samples.jsonl" in before
        capsys.readouterr()
        assert main([
            "run", *self.BASE, "--abort-after-round", "1",
            "--perf", str(perf_dir),
        ]) == 2
        captured = capsys.readouterr()
        assert "requires --store" in captured.err
        assert "Building" not in captured.out
        after = {path.name: path.read_bytes() for path in perf_dir.iterdir()}
        assert after == before

    def test_run_abort_resume_trace_identical(self, tmp_path, capsys):
        store = tmp_path / "store"
        full = tmp_path / "full.jsonl"
        resumed = tmp_path / "resumed.jsonl"

        assert main(["run", *self.BASE, "--trace", str(full)]) == 0

        assert main([
            "run", *self.BASE, "--store", str(store),
            "--abort-after-round", "1",
            "--trace", str(tmp_path / "unused.jsonl"),
        ]) == 0
        captured = capsys.readouterr()
        assert "run aborted: aborted after round 1" in captured.out
        # An aborted run emits no artifacts — only the checkpoint chain.
        assert not (tmp_path / "unused.jsonl").exists()

        assert main([
            "resume", "--store", str(store),
            "--scale", "0.002", "--seed", "5",
            "--artifact", "table6", "--trace", str(resumed),
        ]) == 0
        out = capsys.readouterr().out
        assert "Resuming run-" in out
        assert "1 rounds completed" in out
        assert resumed.read_bytes() == full.read_bytes()

        assert main(["trace", "diff", str(full), str(resumed)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_resume_config_mismatch_exits_2(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main([
            "run", *self.BASE, "--store", str(store),
            "--abort-after-round", "1",
        ]) == 0
        capsys.readouterr()
        assert main(["resume", "--store", str(store), "--scale", "0.05"]) == 2
        err = capsys.readouterr().err
        assert "resume failed" in err
        assert "no stored run matches" in err

    def test_resume_tampered_manifest_exits_2(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main([
            "run", *self.BASE, "--store", str(store),
            "--abort-after-round", "1",
        ]) == 0
        capsys.readouterr()
        (manifest,) = store.glob("run-*/manifest.json")
        data = json.loads(manifest.read_text())
        del data["checkpoints"][0]["sha256"]
        manifest.write_text(json.dumps(data))
        assert main(["resume", "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert "resume failed" in err
        assert "checkpoint entry 0 has no str 'sha256'" in err

    def test_resume_empty_store_exits_2(self, tmp_path, capsys):
        assert main(["resume", "--store", str(tmp_path / "empty")]) == 2
        assert "no checkpointed runs" in capsys.readouterr().err


@pytest.fixture(scope="module")
def smoke_trace(tmp_path_factory):
    """One traced run, for trace tooling."""
    trace = tmp_path_factory.mktemp("traces") / "trace.jsonl"
    assert main([
        "run", "--scale", "0.002", "--seed", "5",
        "--artifact", "table6", "--trace", str(trace),
    ]) == 0
    return trace


class TestTraceSubcommands:
    def test_summary_prints_markdown(self, smoke_trace, capsys):
        capsys.readouterr()
        assert main(["trace", "summary", str(smoke_trace)]) == 0
        out = capsys.readouterr().out
        assert "# Trace summary" in out
        assert "## Stages" in out
        assert "| initial |" in out
        assert "Critical path" in out
        assert "p50" in out

    def test_summary_writes_out_and_folded_files(self, smoke_trace, tmp_path, capsys):
        out_file = tmp_path / "summary.md"
        folded = tmp_path / "trace.folded"
        capsys.readouterr()
        assert main([
            "trace", "summary", str(smoke_trace),
            "--out", str(out_file), "--folded", str(folded),
        ]) == 0
        assert "# Trace summary" in out_file.read_text()
        for line in folded.read_text().splitlines():
            path, value = line.rsplit(" ", 1)
            assert path.startswith("campaign;")
            assert int(value) > 0

    def test_summary_json_file_and_stdout(self, smoke_trace, tmp_path, capsys):
        out_file = tmp_path / "summary.json"
        capsys.readouterr()
        assert main([
            "trace", "summary", str(smoke_trace), "--json", str(out_file),
        ]) == 0
        captured = capsys.readouterr()
        # --json FILE suppresses the markdown (machine consumers get one
        # artifact), with a stderr notice saying where it went.
        assert "# Trace summary" not in captured.out
        assert "summary JSON" in captured.err
        payload = json.loads(out_file.read_text())
        assert payload["events"] > 0
        assert payload["stages"][0]["name"] == "initial"
        assert payload["critical_path"]
        # "-" streams the same JSON to stdout instead.
        assert main(["trace", "summary", str(smoke_trace), "--json", "-"]) == 0
        streamed = json.loads(capsys.readouterr().out)
        assert streamed["events"] == payload["events"]

    def test_profile_json_matches_markdown_run(self, tmp_path, capsys):
        perf_dir = tmp_path / "perf"
        trace = tmp_path / "trace.jsonl"
        assert main([
            "run", "--scale", "0.002", "--seed", "5", "--artifact", "table6",
            "--trace", str(trace), "--perf", str(perf_dir),
        ]) == 0
        out_file = tmp_path / "profile.json"
        capsys.readouterr()
        assert main([
            "trace", "profile", str(trace), "--perf", str(perf_dir),
            "--json", str(out_file),
        ]) == 0
        captured = capsys.readouterr()
        assert "# Wall-clock profile" not in captured.out
        payload = json.loads(out_file.read_text())
        assert payload["records"] > 0
        assert payload["stages"], "profile JSON must carry stage rows"
        for row in payload["stages"]:
            assert set(row) >= {"name", "virtual", "wall", "wall_per_probe_us"}
        assert payload["spans"]

    def test_diff_pinpoints_a_corrupted_event(self, smoke_trace, tmp_path, capsys):
        lines = smoke_trace.read_text().splitlines()
        target = 7
        payload = json.loads(lines[target])
        payload["attrs"]["corrupted"] = True
        lines[target] = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
        corrupted = tmp_path / "corrupted.jsonl"
        corrupted.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["trace", "diff", str(smoke_trace), str(corrupted)]) == 1
        out = capsys.readouterr().out
        assert f"first divergence at event {target}" in out
        assert "attrs['corrupted']" in out

    def test_progress_flag_renders_to_stderr_without_touching_trace(
        self, smoke_trace, tmp_path, capsys
    ):
        progress_trace = tmp_path / "progress.jsonl"
        assert main([
            "run", "--scale", "0.002", "--seed", "5", "--artifact", "table6",
            "--trace", str(progress_trace), "--progress",
        ]) == 0
        err = capsys.readouterr().err
        assert "stage initial:" in err
        assert "probes/s" in err and "ETA" in err
        # --progress must not alter the trace bytes
        assert progress_trace.read_bytes() == smoke_trace.read_bytes()

    def test_run_perf_then_trace_profile(self, smoke_trace, tmp_path, capsys):
        perf_dir = tmp_path / "perf"
        perf_trace = tmp_path / "perf.jsonl"
        assert main([
            "run", "--scale", "0.002", "--seed", "5", "--artifact", "table6",
            "--trace", str(perf_trace), "--perf", str(perf_dir),
            "--progress",
        ]) == 0
        captured = capsys.readouterr()
        assert "perf:" in captured.out and "span records" in captured.out
        # --progress grows RSS/sample cells when perf is on.
        assert "rss" in captured.err and "samples" in captured.err
        # the sideband never alters the canonical trace bytes
        assert perf_trace.read_bytes() == smoke_trace.read_bytes()
        assert (perf_dir / "perf.jsonl").stat().st_size > 0
        assert (perf_dir / "perf_samples.jsonl").stat().st_size > 0

        profile_md = tmp_path / "profile.md"
        folded = tmp_path / "wall.folded"
        assert main([
            "trace", "profile", str(perf_trace), "--perf", str(perf_dir),
            "--out", str(profile_md), "--folded", str(folded),
        ]) == 0
        text = profile_md.read_text()
        assert "# Wall-clock profile" in text
        assert "## Wall vs virtual attribution by stage" in text
        assert "## Hottest span types" in text
        assert "## Cache efficiency" in text
        for line in folded.read_text().splitlines():
            path, value = line.rsplit(" ", 1)
            assert path.startswith("campaign;")
            assert int(value) >= 0

    def test_perf_without_trace_flag_still_profiles(self, tmp_path, capsys):
        # --perf implies tracing even when no --trace file is requested.
        perf_dir = tmp_path / "perf"
        assert main([
            "run", "--scale", "0.002", "--seed", "5", "--artifact", "table6",
            "--perf", str(perf_dir),
        ]) == 0
        assert "perf:" in capsys.readouterr().out
        assert (perf_dir / "perf.jsonl").stat().st_size > 0

    def test_metrics_out_carries_histogram_percentiles(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main([
            "run", "--scale", "0.002", "--seed", "5", "--artifact", "table6",
            "--metrics-out", str(metrics),
        ]) == 0
        payload = json.loads(metrics.read_text())
        summary = payload["histogram_percentiles"]
        assert summary["dns.queries_per_probe"]["count"] > 0
        for key in ("p50", "p90", "p99"):
            assert key in summary["dns.queries_per_probe"]
