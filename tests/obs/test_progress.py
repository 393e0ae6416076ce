"""Tests for the live progress reporter (`repro.obs.progress`)."""

from __future__ import annotations

import io

from repro.obs import Observation
from repro.obs.progress import ProgressReporter, _format_eta
from repro.simulation import Simulation


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


class FakeMetrics:
    def __init__(self, probes=0, retried=0, refused=0) -> None:
        self.probes_attempted = probes
        self.retried = retried
        self.refused = refused


def _lines(stream: io.StringIO):
    """Rendered frames: carriage-return separated repaints, stripped."""
    return [
        frame.strip()
        for frame in stream.getvalue().replace("\n", "\r").split("\r")
        if frame.strip()
    ]


class TestFormatting:
    def test_format_eta(self):
        assert _format_eta(5.4) == "5s"
        assert _format_eta(125) == "2m05s"
        assert _format_eta(7322) == "2h02m"
        assert _format_eta(-1) == "-"


class TestReporter:
    def test_renders_stage_counts_rate_and_eta(self):
        clock, stream = FakeClock(), io.StringIO()
        reporter = ProgressReporter(stream, min_interval=0.0, clock=clock)
        reporter.begin_stage("initial", 4)
        clock.tick(1.0)
        reporter.task_done(FakeMetrics(probes=2, retried=1, refused=1))
        clock.tick(1.0)
        reporter.end_stage(FakeMetrics(probes=4, retried=1, refused=1))
        frames = _lines(stream)
        assert any("stage initial: 1/4 tasks (25%)" in f for f in frames)
        assert any("ETA" in f for f in frames)
        assert any("1 retried, 1 refused" in f for f in frames)
        # the final frame is always rendered and terminated with \n
        assert "4/4 tasks (100%)" in frames[-1]
        assert stream.getvalue().endswith("\n")

    def test_rss_cell_only_when_asked(self):
        clock, stream = FakeClock(), io.StringIO()
        reporter = ProgressReporter(stream, min_interval=0.0, clock=clock)
        reporter.begin_stage("initial", 1)
        assert "rss" not in _lines(stream)[-1]
        reporter.show_rss = True
        reporter.end_stage(FakeMetrics(probes=1))
        last = _lines(stream)[-1]
        assert last.endswith("MB") and "| rss " in last

    def test_wall_clock_throttling(self):
        clock, stream = FakeClock(), io.StringIO()
        reporter = ProgressReporter(stream, min_interval=0.5, clock=clock)
        reporter.begin_stage("initial", 100)
        for _ in range(10):
            clock.tick(0.01)  # 10 ticks inside one 0.5 s window
            reporter.task_done(FakeMetrics(probes=1))
        frames = _lines(stream)
        # begin_stage forces one frame; the 10 fast ticks add none
        assert len(frames) == 1
        clock.tick(1.0)
        reporter.task_done(FakeMetrics(probes=11))
        assert len(_lines(stream)) == 2

    def test_idle_reporter_ignores_stray_calls(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream, clock=FakeClock())
        reporter.task_done(FakeMetrics())
        reporter.end_stage(FakeMetrics())
        assert stream.getvalue() == ""

    def test_zero_task_stage(self):
        clock, stream = FakeClock(), io.StringIO()
        reporter = ProgressReporter(stream, min_interval=0.0, clock=clock)
        reporter.begin_stage("empty", 0)
        reporter.end_stage(FakeMetrics())
        assert "0/0 tasks (100%)" in _lines(stream)[-1]


class TestEngineIntegration:
    SCALE = 0.002
    SEED = 5

    def _run(self, with_progress: bool):
        from repro.api import RunConfig

        observation = Observation(trace=True)
        sim = Simulation.build(
            config=RunConfig(scale=self.SCALE, seed=self.SEED),
            observation=observation,
        )
        stream = io.StringIO()
        if with_progress:
            sim.campaign.executor.progress = ProgressReporter(
                stream, min_interval=0.0
            )
        sim.run()
        return observation, stream

    def test_progress_renders_without_altering_the_trace(self):
        baseline, _ = self._run(with_progress=False)
        with_progress, stream = self._run(with_progress=True)
        # operator output exists and looks like progress...
        output = stream.getvalue()
        assert "stage initial:" in output
        assert "probes/s" in output and "ETA" in output
        # ...and the trace bytes are untouched (the --progress contract).
        assert (
            baseline.tracer.export_jsonl() == with_progress.tracer.export_jsonl()
        )
