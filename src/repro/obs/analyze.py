"""Trace analysis: span trees, timelines, aggregates, critical path.

This is the consumption side of :mod:`repro.obs`: the tracer writes a
canonical virtual-time JSONL stream, and :class:`TraceAnalysis` answers
the operational questions a four-month measurement campaign raises —
what did probe X do and when, which stage dominates the run, where does
the virtual time go — without anyone eyeballing raw JSONL.

A live run is analysed straight off its tracer
(:meth:`TraceAnalysis.from_tracer` reads the tracer's
:class:`~repro.obs.trace.TraceEvent` tuples, no copy); a trace file is
analysed from its :class:`~repro.obs.records.ParsedEvent` records.  Both
carry the same named fields, and the analysis reads only those.

The analysis reconstructs three views from one pass over the events:

- **stages** (:class:`StageSummary`): one row per executed stage, with
  the task/probe/retry/refusal counters the executor stamped on
  ``stage.end`` and the stage's virtual-time extent;
- **tasks** (:class:`TaskTimeline`): one per probe task, holding the
  task's events and its reconstructed span tree
  (:class:`SpanNode` — ``smtp.transaction`` containing
  ``spf.check_host`` and so on);
- **aggregates**: per-event-name counts and per-span-name virtual
  duration distributions with exact percentiles
  (:class:`~repro.obs.metrics.Histogram`).

All durations are *virtual* seconds — differences of the virtual-time
stamps the determinism contract guarantees — so every number here is
itself byte-stable across runs of the same seed.

Outputs: :meth:`TraceAnalysis.render_markdown` (the ``trace summary``
CLI body and the report's Observability section) and
:meth:`TraceAnalysis.folded_stacks` (``path;path;leaf <µs>`` lines that
flamegraph tooling consumes directly).
"""

from __future__ import annotations

import datetime as _dt
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .metrics import Histogram
from .records import ParsedEvent, load_jsonl, parse_jsonl, split_scope
from .trace import TraceEvent, Tracer

#: what the analysis reads: a tracer's events or a file's records.
Event = Union[TraceEvent, ParsedEvent]


def _seconds(
    begin: Optional[_dt.datetime], end: Optional[_dt.datetime]
) -> float:
    if begin is None or end is None:
        return 0.0
    return max(0.0, (end - begin).total_seconds())


@dataclass
class SpanNode:
    """One reconstructed span: a ``<name>.begin`` / ``<name>.end`` pair."""

    sid: str
    name: str
    begin: Event
    end: Optional[Event] = None
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Virtual duration; 0 when the end event never arrived."""
        return _seconds(self.begin.vt, self.end.vt if self.end else None)

    @property
    def self_seconds(self) -> float:
        """Virtual duration not covered by child spans (floored at 0)."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))


@dataclass
class TaskTimeline:
    """One probe task's events and span tree, in canonical order."""

    scope: str
    stage_ordinal: Optional[int]
    task_index: Optional[int]
    probe: Optional[str]
    begin: Event
    end: Optional[Event] = None
    events: List[Event] = field(default_factory=list)
    spans: List[SpanNode] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return _seconds(self.begin.vt, self.end.vt if self.end else None)

    @property
    def outcome(self) -> Optional[str]:
        if self.end is None:
            return None
        value = self.end.attrs.get("outcome")
        return str(value) if value is not None else None


@dataclass
class StageSummary:
    """One executed stage: declared work plus the ``stage.end`` counters."""

    ordinal: int
    name: str
    begin: Event
    end: Optional[Event] = None
    declared_tasks: int = 0
    task_count: int = 0
    event_count: int = 0

    def _end_attr(self, key: str) -> int:
        if self.end is None:
            return 0
        return int(self.end.attrs.get(key, 0) or 0)

    @property
    def probes(self) -> int:
        return self._end_attr("probes")

    @property
    def retried(self) -> int:
        return self._end_attr("retried")

    @property
    def refused(self) -> int:
        return self._end_attr("refused")

    @property
    def queries(self) -> int:
        return self._end_attr("queries")

    @property
    def sim_seconds(self) -> float:
        if self.end is None:
            return 0.0
        return float(self.end.attrs.get("sim_seconds", 0.0) or 0.0)

    @property
    def seconds(self) -> float:
        """Virtual extent from ``stage.begin`` to ``stage.end``."""
        return _seconds(self.begin.vt, self.end.vt if self.end else None)


@dataclass(frozen=True)
class CriticalStep:
    """One hop of the critical path: run → stage → task → span chain."""

    kind: str
    label: str
    seconds: float


class TraceAnalysis:
    """Everything the toolkit derives from one canonical trace."""

    def __init__(self, events: Sequence[Event]) -> None:
        #: the events in canonical order; a list argument is kept as is.
        self.events: List[Event] = (
            events if isinstance(events, list) else list(events)
        )
        self.stages: List[StageSummary] = []
        self.tasks: List[TaskTimeline] = []
        self.name_counts: Counter = Counter()
        self._tasks_by_scope: Dict[str, TaskTimeline] = {}
        self._stages_by_ordinal: Dict[int, StageSummary] = {}
        #: earliest and latest virtual-time stamp (None without stamps).
        self.virtual_start: Optional[_dt.datetime] = None
        self.virtual_end: Optional[_dt.datetime] = None
        self._build()

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_file(cls, path: str) -> "TraceAnalysis":
        return cls(load_jsonl(path))

    @classmethod
    def from_text(cls, text: str) -> "TraceAnalysis":
        return cls(parse_jsonl(text))

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "TraceAnalysis":
        """Analyse a live tracer's canonical events, without copying them."""
        return cls(tracer.canonical_events())

    def _build(self) -> None:
        open_spans: Dict[str, SpanNode] = {}
        # A run has ~18 events per scope: split each scope id once.
        scopes: Dict[str, Tuple[Optional[int], Optional[int]]] = {}
        for event in self.events:
            self.name_counts[event.name] += 1
            split = scopes.get(event.scope)
            if split is None:
                split = scopes[event.scope] = split_scope(event.scope)
            stage_ord, task_idx = split
            if stage_ord is not None:
                stage = self._stages_by_ordinal.get(stage_ord)
                if stage is not None:
                    stage.event_count += 1

            if event.name == "stage.begin" and task_idx is None:
                ordinal = stage_ord if stage_ord is not None else len(self.stages)
                stage = StageSummary(
                    ordinal=ordinal,
                    name=str(event.attrs.get("stage", f"s{ordinal}")),
                    begin=event,
                    declared_tasks=int(event.attrs.get("tasks", 0) or 0),
                    event_count=1,
                )
                self.stages.append(stage)
                self._stages_by_ordinal[ordinal] = stage
                continue
            if event.name == "stage.end" and task_idx is None:
                stage = self._stages_by_ordinal.get(stage_ord or 0)
                if stage is not None:
                    stage.end = event
                continue

            if event.name == "task.begin" and task_idx is not None:
                task = TaskTimeline(
                    scope=event.scope,
                    stage_ordinal=stage_ord,
                    task_index=task_idx,
                    probe=event.probe,
                    begin=event,
                )
                task.events.append(event)
                self.tasks.append(task)
                self._tasks_by_scope[event.scope] = task
                stage = self._stages_by_ordinal.get(stage_ord) if stage_ord is not None else None
                if stage is not None:
                    stage.task_count += 1
                continue

            task = self._tasks_by_scope.get(event.scope)
            if task is not None:
                task.events.append(event)
                if event.name == "task.end":
                    task.end = event

            # Span reconstruction: a `<name>.begin` whose `span` field is
            # set opens that span id; the matching `<name>.end` closes it.
            if event.span is not None and event.name.endswith(".begin"):
                node = SpanNode(
                    sid=event.span, name=event.name[: -len(".begin")], begin=event
                )
                parent = open_spans.get(event.parent) if event.parent else None
                if parent is not None:
                    parent.children.append(node)
                elif task is not None:
                    task.spans.append(node)
                open_spans[event.span] = node
            elif event.span is not None and event.name.endswith(".end"):
                node = open_spans.pop(event.span, None)
                if node is not None:
                    node.end = event

        stamps = [e.vt for e in self.events if e.vt is not None]
        if stamps:
            self.virtual_start, self.virtual_end = min(stamps), max(stamps)

    # -- basic aggregates -----------------------------------------------------

    @property
    def virtual_seconds(self) -> float:
        return _seconds(self.virtual_start, self.virtual_end)

    def timeline(self, probe: str) -> List[Event]:
        """Every event emitted while ``probe`` (``<suite>/<ip>``) ran."""
        return [e for e in self.events if e.probe == probe]

    def task_duration_histogram(self) -> Histogram:
        histogram = Histogram("trace.task_seconds")
        for task in self.tasks:
            histogram.observe(task.seconds)
        return histogram

    def span_duration_histograms(self) -> Dict[str, Histogram]:
        """Per-span-name virtual-duration distributions (exact percentiles)."""
        out: Dict[str, Histogram] = {}
        for task in self.tasks:
            for root in task.spans:
                _observe_span_durations(root, out)
        return out

    # -- critical path --------------------------------------------------------

    def critical_path(self) -> List[CriticalStep]:
        """Attribute virtual time along run → stage → task → span chain.

        Stages execute sequentially in virtual time, so the run's
        duration is (close to) the sum of stage durations; the path
        descends into the *longest* stage, then the task whose end stamp
        closes that stage (the virtual-time straggler), then the
        dominant span chain inside it.
        """
        steps: List[CriticalStep] = [
            CriticalStep("run", "campaign", self.virtual_seconds)
        ]
        if not self.stages:
            return steps
        stage = max(self.stages, key=lambda s: s.seconds)
        steps.append(CriticalStep("stage", stage.name, stage.seconds))
        tasks = [t for t in self.tasks if t.stage_ordinal == stage.ordinal]
        if not tasks:
            return steps
        def end_stamp(t: TaskTimeline) -> Optional[_dt.datetime]:
            if t.end is not None and t.end.vt is not None:
                return t.end.vt
            return t.begin.vt

        stamped = [t for t in tasks if end_stamp(t) is not None]
        if stamped:
            task = max(stamped, key=lambda t: (end_stamp(t), -(t.task_index or 0)))
        else:
            task = max(tasks, key=lambda t: t.seconds)
        steps.append(
            CriticalStep("task", task.probe or task.scope, task.seconds)
        )
        nodes = task.spans
        while nodes:
            node = max(nodes, key=lambda n: n.seconds)
            steps.append(CriticalStep("span", node.name, node.seconds))
            nodes = node.children
        return steps

    # -- folded stacks ---------------------------------------------------------

    def folded_stacks(self) -> str:
        """Flamegraph input: ``campaign;<stage>;<probe>;<span...> <µs>``.

        Sample values are integer *virtual* microseconds of self time
        (node duration minus child spans), so the graph shows where the
        campaign's simulated time went; feed it straight to
        ``flamegraph.pl`` or any compatible renderer.
        """
        weights: Dict[str, int] = {}
        for task in self.tasks:
            stage = (
                self._stages_by_ordinal.get(task.stage_ordinal)
                if task.stage_ordinal is not None
                else None
            )
            stage_label = stage.name if stage is not None else "(no stage)"
            base = f"campaign;{stage_label};{task.probe or task.scope}"
            root_seconds = sum(root.seconds for root in task.spans)
            add_folded(weights, base, max(0.0, task.seconds - root_seconds))
            for root in task.spans:
                _fold_virtual(weights, base, root)
        return "\n".join(f"{path} {weights[path]}" for path in sorted(weights))

    # -- machine-readable export ----------------------------------------------

    def to_dict(self, *, top_events: int = 20) -> dict:
        """The ``trace summary --json`` payload: every table, typed.

        Same content as :meth:`render_markdown` — stages, critical path,
        span-duration percentiles, event counts — as plain JSON-ready
        values, so scripts never scrape markdown.
        """
        start, end = self.virtual_start, self.virtual_end
        stages = [
            {
                "ordinal": stage.ordinal,
                "name": stage.name,
                "tasks": stage.task_count,
                "declared_tasks": stage.declared_tasks,
                "probes": stage.probes,
                "retried": stage.retried,
                "refused": stage.refused,
                "queries": stage.queries,
                "virtual_seconds": stage.seconds,
                "sim_seconds": stage.sim_seconds,
                "events": stage.event_count,
            }
            for stage in self.stages
        ]
        spans = {
            name: histogram.to_dict()
            for name, histogram in sorted(self.span_duration_histograms().items())
        }
        ranked = sorted(self.name_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return {
            "events": len(self.events),
            "distinct_names": len(self.name_counts),
            "stages": stages,
            "tasks": len(self.tasks),
            "virtual_start": start.isoformat() if start is not None else None,
            "virtual_end": end.isoformat() if end is not None else None,
            "virtual_seconds": self.virtual_seconds,
            "critical_path": [
                {"kind": step.kind, "label": step.label, "seconds": step.seconds}
                for step in self.critical_path()
            ],
            "spans": spans,
            "task_seconds": self.task_duration_histogram().to_dict(),
            "event_counts": dict(ranked[:top_events]),
        }

    # -- rendering -------------------------------------------------------------

    def render_stage_table(self) -> str:
        lines = [
            "| # | stage | tasks | probes | retried | refused | queries "
            "| virtual s | events |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for stage in self.stages:
            lines.append(
                f"| {stage.ordinal} | {stage.name} | {stage.task_count} "
                f"| {stage.probes} | {stage.retried} | {stage.refused} "
                f"| {stage.queries} | {stage.seconds:.1f} | {stage.event_count} |"
            )
        return "\n".join(lines)

    def render_span_table(self) -> str:
        lines = [
            "| span | count | p50 s | p90 s | p99 s | max s |",
            "|---|---|---|---|---|---|",
        ]
        histograms = self.span_duration_histograms()
        task_histogram = self.task_duration_histogram()
        if task_histogram.count:
            histograms = dict(histograms)
            histograms["(task)"] = task_histogram
        for name in sorted(histograms):
            d = histograms[name].to_dict()
            if not d.get("count"):
                continue
            lines.append(
                f"| {name} | {d['count']} | {d['p50']:.3g} | {d['p90']:.3g} "
                f"| {d['p99']:.3g} | {d['max']:.3g} |"
            )
        return "\n".join(lines)

    def render_event_table(self, top: int = 20) -> str:
        total = max(1, len(self.events))
        lines = ["| event | count | share |", "|---|---|---|"]
        ranked = sorted(self.name_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for name, count in ranked[:top]:
            lines.append(f"| {name} | {count} | {100.0 * count / total:.1f}% |")
        if len(ranked) > top:
            rest = sum(count for _, count in ranked[top:])
            lines.append(f"| ({len(ranked) - top} more) | {rest} | "
                         f"{100.0 * rest / total:.1f}% |")
        return "\n".join(lines)

    def render_critical_path(self) -> str:
        lines = []
        for step in self.critical_path():
            lines.append(f"- {step.kind}: `{step.label}` — {step.seconds:.1f} s")
        return "\n".join(lines)

    def render_markdown(self, *, top_events: int = 20) -> str:
        """The ``trace summary`` document."""
        start, end = self.virtual_start, self.virtual_end
        window = (
            f"{start.isoformat()} → {end.isoformat()}"
            if start is not None and end is not None
            else "(no virtual-time stamps)"
        )
        parts = [
            "# Trace summary",
            "",
            f"- events: {len(self.events):,} ({len(self.name_counts)} distinct names)",
            f"- stages: {len(self.stages)}; tasks: {len(self.tasks):,}",
            f"- virtual window: {window} ({self.virtual_seconds:,.0f} s)",
            "",
            "## Stages",
            "",
            self.render_stage_table(),
            "",
            "## Critical path (virtual time)",
            "",
            self.render_critical_path(),
            "",
            "## Span durations (virtual seconds, exact percentiles)",
            "",
            self.render_span_table(),
            "",
            f"## Event counts (top {top_events})",
            "",
            self.render_event_table(top=top_events),
            "",
        ]
        return "\n".join(parts)


# The span-tree walks are module-level functions, not nested closures: a
# nested function that calls itself references itself through a closure
# cell, a reference cycle that would keep the walk's accumulators alive
# until the cyclic garbage collector ran.


def add_folded(weights: Dict[str, int], path: str, seconds: float) -> None:
    """Add ``seconds`` to folded-stack ``path`` as whole microseconds."""
    micros = int(round(seconds * 1e6))
    if micros > 0:
        weights[path] = weights.get(path, 0) + micros


def _observe_span_durations(node: SpanNode, out: Dict[str, Histogram]) -> None:
    out.setdefault(node.name, Histogram(node.name)).observe(node.seconds)
    for child in node.children:
        _observe_span_durations(child, out)


def _fold_virtual(weights: Dict[str, int], prefix: str, node: SpanNode) -> None:
    path = f"{prefix};{node.name}"
    add_folded(weights, path, node.self_seconds)
    for child in node.children:
        _fold_virtual(weights, path, child)
