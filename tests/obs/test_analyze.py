"""Tests for the trace analysis toolkit (`repro.obs.analyze`)."""

from __future__ import annotations

import datetime as _dt

import pytest

from repro.api import RunConfig
from repro.obs import Observation, Tracer
from repro.obs.analyze import TraceAnalysis
from repro.obs.records import load_jsonl, parse_jsonl, split_scope
from repro.simulation import Simulation

SCALE = 0.002
SEED = 5


@pytest.fixture(scope="module")
def traced_sim():
    observation = Observation(trace=True)
    sim = Simulation.build(
        config=RunConfig(scale=SCALE, seed=SEED), observation=observation
    )
    sim.run()
    return sim, observation


@pytest.fixture(scope="module")
def analysis(traced_sim):
    _, observation = traced_sim
    return TraceAnalysis.from_tracer(observation.tracer)


class TestRecords:
    def test_split_scope(self):
        assert split_scope("run") == (None, None)
        assert split_scope("s3") == (3, None)
        assert split_scope("s3.t12") == (3, 12)
        assert split_scope("t5") == (None, 5)

    def test_parse_round_trips_canonical_serialization(self, traced_sim):
        _, observation = traced_sim
        text = observation.tracer.export_jsonl()
        events = parse_jsonl(text)
        assert "\n".join(e.to_json() for e in events) == text

    def test_file_and_tracer_loads_agree(self, traced_sim, tmp_path):
        """The live path reads tracer events, the file path parsed
        records: both must give the same documents, byte for byte."""
        _, observation = traced_sim
        path = tmp_path / "trace.jsonl"
        count = observation.tracer.write_jsonl(str(path))
        assert path.read_text() == observation.tracer.export_jsonl() + "\n"
        assert len(load_jsonl(str(path))) == count
        analysis_file = TraceAnalysis.from_file(str(path))
        analysis_live = TraceAnalysis.from_tracer(observation.tracer)
        assert len(analysis_file.events) == len(analysis_live.events) == count
        assert analysis_live.to_dict() == analysis_file.to_dict()
        assert analysis_live.render_markdown() == analysis_file.render_markdown()
        assert analysis_live.folded_stacks() == analysis_file.folded_stacks()

    def test_malformed_line_raises_with_line_number(self):
        from repro.obs.records import TraceFormatError

        with pytest.raises(TraceFormatError, match="line 1"):
            parse_jsonl("not json at all")


class TestStageReconstruction:
    def test_stage_names_and_counts(self, analysis):
        names = [stage.name for stage in analysis.stages]
        assert names[0] == "initial"
        assert names[-1] == "snapshot"
        assert any(name.startswith("round ") for name in names)
        for stage in analysis.stages:
            assert stage.task_count == stage.declared_tasks
            assert stage.probes >= stage.task_count
            assert stage.event_count > 0

    def test_tasks_align_with_trace_task_begins(self, analysis):
        begins = analysis.name_counts["task.begin"]
        assert len(analysis.tasks) == begins > 0
        assert all(task.end is not None for task in analysis.tasks)
        assert all(task.outcome is not None for task in analysis.tasks)

    def test_timeline_returns_one_probes_events(self, analysis):
        task = analysis.tasks[0]
        events = analysis.timeline(task.probe)
        assert events
        assert all(e.probe == task.probe for e in events)
        assert {"task.begin", "task.end"} <= {e.name for e in events}


class TestAggregates:
    def test_span_histograms_cover_nested_spans(self, analysis):
        histograms = analysis.span_duration_histograms()
        assert "smtp.transaction" in histograms
        # spf.check_host spans are nested inside smtp.transaction; the
        # tree walk must still count them.
        assert "spf.check_host" in histograms
        assert histograms["smtp.transaction"].count > 0

    def test_task_duration_histogram_has_exact_percentiles(self, analysis):
        histogram = analysis.task_duration_histogram()
        assert histogram.count == len(analysis.tasks)
        assert histogram.percentile(99) >= histogram.percentile(50) >= 0

    def test_critical_path_descends_run_stage_task(self, analysis):
        steps = analysis.critical_path()
        kinds = [step.kind for step in steps]
        assert kinds[:3] == ["run", "stage", "task"]
        assert steps[0].seconds >= steps[1].seconds

    def test_virtual_window_spans_the_campaign(self, analysis):
        assert analysis.virtual_start is not None
        assert analysis.virtual_end is not None
        # the four-month campaign covers > 100 simulated days
        assert analysis.virtual_seconds > 100 * 86400


class TestRendering:
    def test_markdown_summary_sections(self, analysis):
        text = analysis.render_markdown()
        assert "# Trace summary" in text
        assert "## Stages" in text
        assert "## Critical path (virtual time)" in text
        assert "p50" in text and "p99" in text
        assert "| initial |" in text

    def test_folded_stacks_are_flamegraph_lines(self, analysis):
        folded = analysis.folded_stacks()
        lines = folded.splitlines()
        assert lines
        for line in lines:
            path, value = line.rsplit(" ", 1)
            assert path.startswith("campaign;")
            assert int(value) > 0

    def test_event_table_lists_top_names(self, analysis):
        table = analysis.render_event_table(top=5)
        assert table.count("\n") >= 5
        assert "smtp.reply" in table or "dns.query" in table


class TestDegenerateTraces:
    def test_empty_trace(self):
        analysis = TraceAnalysis([])
        assert analysis.stages == [] and analysis.tasks == []
        assert analysis.virtual_seconds == 0.0
        assert "Trace summary" in analysis.render_markdown()
        assert analysis.folded_stacks() == ""

    def test_unstamped_hand_built_trace(self):
        tracer = Tracer(enabled=True)
        tracer.begin_stage("unit", tasks=1)
        tracer.begin_task(0, "suite/1.2.3.4")
        with tracer.span("work"):
            tracer.event("tick")
        tracer.end_task()
        tracer.end_stage()
        analysis = TraceAnalysis.from_tracer(tracer)
        assert len(analysis.stages) == 1
        assert len(analysis.tasks) == 1
        assert analysis.tasks[0].spans[0].name == "work"
        # no vt stamps → zero durations, but rendering still works
        assert analysis.virtual_seconds == 0.0
        assert "unit" in analysis.render_markdown()
