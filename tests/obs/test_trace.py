"""Unit tests for the virtual-time tracer."""

from __future__ import annotations

import datetime as _dt
import json

import pytest

from repro.obs import Observation, Tracer, observing
from repro.obs import context as _obs


def _clock_at(instant: _dt.datetime):
    return lambda: instant


T0 = _dt.datetime(2021, 10, 11, tzinfo=_dt.timezone.utc)


class TestDisabledTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False, clock=_clock_at(T0))
        tracer.begin_stage("initial", tasks=3)
        tracer.begin_task(0, "suite/1.2.3.4")
        tracer.event("dns.query", qname="example.com")
        with tracer.span("smtp.transaction", server="1.2.3.4"):
            tracer.event("smtp.reply", code=250)
        tracer.end_task()
        tracer.end_stage()
        assert tracer.events() == []
        assert tracer.export_jsonl() == ""

    def test_inactive_context_is_none(self):
        assert _obs.ACTIVE is None

    def test_observing_restores_previous(self):
        obs = Observation(trace=True)
        with observing(obs):
            assert _obs.ACTIVE is obs
        assert _obs.ACTIVE is None


class TestSpans:
    def test_span_ids_nest_parent_child(self):
        tracer = Tracer(enabled=True, clock=_clock_at(T0))
        tracer.begin_stage("initial", tasks=1)
        tracer.begin_task(0, "suite/1.2.3.4")
        with tracer.span("outer") as outer_id:
            with tracer.span("inner") as inner_id:
                tracer.event("leaf")
        tracer.end_task()
        tracer.end_stage()

        assert outer_id == "s0.t0#0"
        assert inner_id == "s0.t0#1"
        by_name = {e.name: e for e in tracer.events()}
        assert by_name["outer.begin"].parent is None
        assert by_name["inner.begin"].parent == outer_id
        # Events emitted inside a span carry the innermost open span id.
        assert by_name["leaf"].span == inner_id
        assert by_name["outer.end"].span == outer_id

    def test_task_events_carry_probe_id(self):
        tracer = Tracer(enabled=True, clock=_clock_at(T0))
        tracer.begin_stage("initial", tasks=1)
        tracer.begin_task(4, "saaaa/10.0.0.9")
        tracer.event("dns.query", qname="x.example")
        tracer.end_task()
        tracer.end_stage()
        task_events = [e for e in tracer.events() if e.scope == "s0.t4"]
        assert task_events and all(e.probe == "saaaa/10.0.0.9" for e in task_events)


class TestExceptionPaths:
    """The unwind paths: spans left open by exceptions, dropped tasks."""

    def test_span_exit_on_exception_emits_end_and_unwinds_stack(self):
        tracer = Tracer(enabled=True, clock=_clock_at(T0))
        tracer.begin_stage("initial", tasks=1)
        tracer.begin_task(0, "suite/1.2.3.4")
        with pytest.raises(RuntimeError):
            with tracer.span("outer") as outer_id:
                with tracer.span("inner"):
                    raise RuntimeError("probe blew up")
        names = [e.name for e in tracer.events()]
        # both .end events were still emitted, innermost first
        assert names[-2:] == ["inner.end", "outer.end"]
        # the span stack fully unwound: the next event has no span
        tracer.event("after")
        assert tracer.events()[-1].span is None
        assert outer_id == "s0.t0#0"

    def test_drop_task_abandons_scope_without_task_end(self):
        tracer = Tracer(enabled=True, clock=_clock_at(T0))
        tracer.begin_stage("initial", tasks=1)
        tracer.begin_task(0, "suite/1.2.3.4")
        tracer.drop_task()
        tracer.event("afterwards")
        names = [e.name for e in tracer.events()]
        assert "task.end" not in names
        # events after the drop land in the stage scope, not the task's
        event = tracer.events()[-1]
        assert event.scope == "s0"
        assert event.probe is None

    def test_nested_span_parentage_survives_task_scope_switch(self):
        tracer = Tracer(enabled=True, clock=_clock_at(T0))
        tracer.begin_stage("initial", tasks=2)
        tracer.begin_task(0, "suite/a")
        with tracer.span("first"):
            pass
        tracer.end_task()
        tracer.begin_task(1, "suite/b")
        with tracer.span("outer") as outer_id:
            with tracer.span("inner") as inner_id:
                tracer.event("leaf")
        tracer.end_task()
        tracer.end_stage()
        # span ids restart per task scope, and parentage holds in task 1
        assert outer_id == "s0.t1#0"
        assert inner_id == "s0.t1#1"
        by_name = {e.name: e for e in tracer.events() if e.scope == "s0.t1"}
        assert by_name["outer.begin"].parent is None
        assert by_name["inner.begin"].parent == outer_id
        assert by_name["leaf"].span == inner_id


class TestStitch:
    def test_run_scope_sequence_continues_after_a_resume(self):
        """Run-scope events (emitted outside any stage) after a stitch
        continue the checkpointed prefix's sequence, as one tracer's
        would."""

        def leg(tracer, stage, messages):
            tracer.begin_stage(stage, tasks=0)
            tracer.end_stage()
            for message in messages:
                tracer.event("log.info", message=message)

        whole = Tracer(enabled=True, clock=_clock_at(T0))
        leg(whole, "initial", ["a", "b"])
        leg(whole, "round", ["c"])

        before = Tracer(enabled=True, clock=_clock_at(T0))
        leg(before, "initial", ["a", "b"])
        resumed = Tracer(enabled=True, clock=_clock_at(T0))
        resumed.stitch(
            [before.events()], stages_begun=before.open_stage_ordinal()
        )
        leg(resumed, "round", ["c"])

        assert resumed.export_jsonl() == whole.export_jsonl()


class TestCanonicalExport:
    def test_export_is_sorted_and_valid_jsonl(self):
        tracer = Tracer(enabled=True, clock=_clock_at(T0))
        tracer.begin_stage("initial", tasks=2)
        # Emit tasks out of index order, as a worker pool might.
        tracer.begin_task(1, "suite/b")
        tracer.event("dns.query", qname="b")
        tracer.end_task()
        tracer.begin_task(0, "suite/a")
        tracer.event("dns.query", qname="a")
        tracer.end_task()
        tracer.end_stage()

        lines = tracer.export_jsonl().splitlines()
        decoded = [json.loads(line) for line in lines]
        scopes = [d["scope"] for d in decoded]
        # Canonical order: stage.begin, then task 0, then task 1, then end.
        assert scopes.index("s0.t0") < scopes.index("s0.t1")
        assert decoded[0]["name"] == "stage.begin"
        assert decoded[-1]["name"] == "stage.end"
        keys = [e.key for e in tracer.canonical_events()]
        assert keys == sorted(keys)

    def test_events_are_stamped_with_virtual_time(self):
        tracer = Tracer(enabled=True, clock=_clock_at(T0))
        tracer.begin_stage("initial", tasks=1)
        tracer.event("tick")
        tracer.end_stage()
        assert all(e.vt == T0 for e in tracer.events())

    def test_write_jsonl_returns_written_event_count(self, tmp_path):
        tracer = Tracer(enabled=True, clock=_clock_at(T0))
        tracer.begin_stage("initial", tasks=1)
        tracer.begin_task(0, "suite/a")
        tracer.event("dns.query", qname="a")
        tracer.end_task()
        tracer.end_stage()
        path = tmp_path / "trace.jsonl"
        count = tracer.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(tracer.events())
        # the file is exactly the canonical export plus a trailing newline
        assert path.read_text() == tracer.export_jsonl() + "\n"

    def test_explicit_vt_override_wins(self):
        tracer = Tracer(enabled=True, clock=_clock_at(T0))
        later = T0 + _dt.timedelta(seconds=42)
        tracer.begin_stage("initial", tasks=1)
        tracer.begin_task(0, "suite/a", vt=later)
        tracer.end_task(vt=later)
        tracer.end_stage()
        by_name = {e.name: e for e in tracer.events()}
        assert by_name["task.begin"].vt == later
        assert by_name["task.end"].vt == later
