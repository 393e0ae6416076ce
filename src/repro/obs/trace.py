"""Virtual-time tracing: spans and events over a campaign run.

Every event is stamped with **virtual time** — the simulated instant the
emitting component observed through the campaign's clock router — never
the wall clock.  Virtual time is a pure function of the work list (task
``k`` of a stage runs at ``stage_base + k * SECONDS_PER_PROBE``, and
in-task waits advance only that task's cursor), so the same seed
produces the same stamps in every run.  A wall-clock timestamp would
differ between runs, which is why wall time is banned from trace
payloads outright (it lives in
:mod:`repro.obs.metrics` instead — and, per span, in the
:mod:`repro.obs.perf` sideband, which observes span boundaries through
:attr:`Tracer.sink` but writes to files of its own).

Ordering uses the same idea.  Each event belongs to a *scope* — the run,
a stage, or one probe task — and scopes carry a sort prefix derived from
identity, not from execution order: stage ordinal, then task index
within the stage, then the per-scope emission sequence.  Each task runs
single-threaded, so the per-task sequence is deterministic, and the
canonical export (:meth:`Tracer.export_jsonl` sorts by this key) is
byte-identical across runs of the same seed and across a checkpoint
resume (``tests/store/test_resume.py``).

The emit path is guarded: every public method returns immediately when
the tracer is disabled, and instrumentation sites additionally check
:attr:`Tracer.enabled` before building attribute dicts, so tracing
defaults off with near-zero overhead.
"""

from __future__ import annotations

import datetime as _dt
import json
import threading
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: Sort lane for events emitted before a scope's tasks (stage.begin) and
#: after them (stage.end); task lanes are the task indices in between.
_LANE_BEGIN = -1
_LANE_END = 1 << 60
#: Run-scope events sort before the stage they precede.
_LANE_RUN = -2


class TraceEvent(NamedTuple):
    """One trace record: a plain tuple of its fields.

    ``vt`` is the virtual-time stamp (``None`` only when no simulation
    clock is bound, e.g. unit tests of the tracer itself).  ``scope`` is
    ``"run"``, ``"s<stage>"``, or ``"s<stage>.t<task>"``; ``probe``
    carries the task's stable probe id (``<suite>/<ip>``) for every event
    emitted while that probe was in flight.  ``attrs`` is the emitter's
    own keyword dict, stored as is and never mutated afterwards.

    A tuple rather than a frozen dataclass because a run holds one per
    event: built positionally it costs a fraction of a dataclass
    ``__init__`` and less memory.  (It is still one object for the
    cyclic garbage collector to traverse: CPython untracks only exact
    tuples, and only those holding no dict.)
    """

    name: str
    vt: Optional[_dt.datetime]
    scope: str
    seq: int
    span: Optional[str]
    parent: Optional[str]
    probe: Optional[str]
    attrs: Dict[str, object]
    #: Canonical sort key: (stage ordinal, lane, seq), unique per event.
    key: Tuple[int, int, int]

    def to_json(self) -> str:
        return render_event(self, {})


#: the canonical order: by :attr:`TraceEvent.key`.
_BY_KEY = itemgetter(8)
#: ``attrs`` are encoded exactly as ``json.dumps(..., sort_keys=True,
#: separators=(",", ":"))`` would, by one encoder built once.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_UTC = _dt.timezone.utc
#: events per ``write`` call in :meth:`Tracer.write_jsonl`.
_WRITE_CHUNK = 4096


def _value(value: object) -> str:
    """One top-level field, spelled as ``json.dumps`` spells it."""
    if value is None:
        return "null"
    if value.__class__ is str:
        return _quote(value)
    return _encode(value)


def render_event(event, vt_cache: Dict[_dt.datetime, str]) -> str:
    """The canonical JSON line of one event (no trailing newline).

    Byte-identical to ``json.dumps(payload, sort_keys=True,
    separators=(",", ":"))`` of the payload ``{"name", "vt" (ISO-8601 or
    null), "scope", "seq", "span", "parent", "probe", "attrs"}``, but
    without building the payload: the top-level keys are written in
    their sorted order, strings go through the escaper ``json.dumps``
    uses, and only ``attrs`` goes through the JSON encoder.  ``event``
    is a :class:`TraceEvent` or a
    :class:`~repro.obs.records.ParsedEvent` (fields read by name).

    ``vt_cache`` memoizes rendered stamps across the events of one
    write (a run has ~18 events per distinct stamp).  Only naive and
    UTC stamps are cached: two aware stamps in different zones can be
    equal instants yet print differently.
    """
    vt = event.vt
    if vt is None:
        stamp = "null"
    elif vt.tzinfo is _UTC or vt.tzinfo is None:
        stamp = vt_cache.get(vt)
        if stamp is None:
            stamp = vt_cache[vt] = _quote(vt.isoformat())
    else:
        stamp = _quote(vt.isoformat())
    attrs = event.attrs
    attrs = "{}" if attrs == {} else _encode(attrs)
    seq = event.seq
    if seq.__class__ is not int:
        seq = _value(seq)
    return (
        f'{{"attrs":{attrs},"name":{_value(event.name)}'
        f',"parent":{_value(event.parent)},"probe":{_value(event.probe)}'
        f',"scope":{_value(event.scope)},"seq":{seq}'
        f',"span":{_value(event.span)},"vt":{stamp}}}'
    )


class _ThreadState:
    """One thread's open task scope and span-id stack.

    Both live in a single thread-local slot, so emitting an event reads
    thread-local storage once.
    """

    __slots__ = ("scope", "spans")

    def __init__(self) -> None:
        self.scope: Optional[_Scope] = None
        self.spans: List[str] = []


class _Scope:
    """Mutable per-scope state: sequence and span counters.

    ``shared`` scopes (run, stage) may be reached from several threads and
    emit under the tracer lock; task scopes are single-threaded by design,
    so their events buffer lock-free in ``buf`` and batch into the global
    event list when the task closes (or on a same-thread read).
    """

    __slots__ = ("sid", "stage_ord", "lane", "probe", "seq", "spans", "shared", "buf")

    def __init__(
        self,
        sid: str,
        stage_ord: int,
        lane: int,
        probe: Optional[str] = None,
        shared: bool = True,
    ) -> None:
        self.sid = sid
        self.stage_ord = stage_ord
        self.lane = lane
        self.probe = probe
        self.seq = 0
        self.spans = 0
        self.shared = shared
        self.buf: List[TraceEvent] = []


class Tracer:
    """A thread-safe, virtual-time span/event sink.

    ``clock`` is a zero-argument callable returning the current simulated
    instant; for campaign runs it is the clock router, so events emitted
    while a probe is in flight carry that probe's virtual time.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        clock: Optional[Callable[[], _dt.datetime]] = None,
    ) -> None:
        self.enabled = enabled
        self.clock = clock
        #: Optional wall-clock sideband (:class:`repro.obs.perf.PerfRecorder`).
        #: Strictly write-only from the tracer's point of view: it is told
        #: when spans/tasks/stages open and close (by tracer-assigned id)
        #: and can never feed anything back into an event, so the
        #: canonical export stays byte-identical with or without it.
        self.sink = None
        self._events: List[TraceEvent] = []
        self._lock = threading.Lock()
        self._stages_begun = 0
        self._run_scope = _Scope("run", 0, _LANE_RUN)
        #: the open stage scope (stages are ambient across worker threads).
        self._stage: Optional[_Scope] = None
        self._local = threading.local()

    # -- scope plumbing -----------------------------------------------------

    def _thread(self) -> _ThreadState:
        """The calling thread's scope and span stack."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            return state

    def _emit(
        self,
        name: str,
        scope: _Scope,
        lane: Optional[int],
        vt: Optional[_dt.datetime],
        span: Optional[str],
        parent: Optional[str],
        attrs: Optional[Dict[str, object]],
    ) -> None:
        """Append one event to ``scope`` (positional arguments: per event)."""
        if vt is None and self.clock is not None:
            vt = self.clock()
        if attrs is None:
            attrs = {}
        if lane is None:
            lane = scope.lane
        if not scope.shared:
            # Task scopes are single-threaded: buffer lock-free and batch
            # into the global list when the task closes.
            seq = scope.seq
            scope.seq = seq + 1
            scope.buf.append(
                TraceEvent(
                    name, vt, scope.sid, seq, span, parent, scope.probe, attrs,
                    (scope.stage_ord, lane, seq),
                )
            )
            return
        with self._lock:
            seq = scope.seq
            scope.seq = seq + 1
            # Run-scope events sort ahead of the next stage to begin.
            stage_ord = (
                self._stages_begun if scope is self._run_scope else scope.stage_ord
            )
            self._events.append(
                TraceEvent(
                    name, vt, scope.sid, seq, span, parent, scope.probe, attrs,
                    (stage_ord, lane, seq),
                )
            )

    def _flush_scope(self, scope: _Scope) -> None:
        """Batch a task scope's buffered events into the global list.

        One lock acquisition per task instead of one per event.
        """
        buf = scope.buf
        if not buf:
            return
        scope.buf = []
        with self._lock:
            self._events.extend(buf)

    def _flush_local(self) -> None:
        """Flush the calling thread's open task scope, if any (read path)."""
        scope = self._thread().scope
        if scope is not None:
            self._flush_scope(scope)

    # -- public emit API ----------------------------------------------------

    def event(self, name: str, *, vt: Optional[_dt.datetime] = None, **attrs) -> None:
        """Emit one event in the current scope (no-op when disabled)."""
        if not self.enabled:
            return
        state = self._thread()
        spans = state.spans
        self._emit(
            name,
            state.scope or self._stage or self._run_scope,
            None,
            vt,
            spans[-1] if spans else None,
            None,
            attrs,
        )

    def span(self, name: str, **attrs):
        """Context manager: emits ``<name>.begin`` / ``<name>.end``.

        The span id is derived from the scope's span counter, so ids
        nest deterministically (``s0.t3#1`` parented by ``s0.t3#0``).
        """
        return _SpanContext(self, name, attrs)

    # -- stage / task scopes -------------------------------------------------

    def begin_stage(self, stage: str, **attrs) -> None:
        """Open a stage scope; subsequent tasks sort under its ordinal."""
        if not self.enabled:
            return
        with self._lock:
            ordinal = self._stages_begun
            self._stages_begun += 1
        scope = _Scope(f"s{ordinal}", ordinal, _LANE_BEGIN)
        self._stage = scope
        self._emit(
            "stage.begin", scope, None, None, None, None, dict(attrs, stage=stage)
        )
        if self.sink is not None:
            self.sink.enter(scope.sid, "stage", stage, None)

    def end_stage(self, **attrs) -> None:
        if not self.enabled:
            return
        scope = self._stage
        if scope is None:
            return
        if self.sink is not None:
            self.sink.exit(scope.sid)
        self._emit("stage.end", scope, _LANE_END, None, None, None, attrs)
        self._stage = None

    def begin_task(
        self,
        index: int,
        probe: str,
        *,
        vt: Optional[_dt.datetime] = None,
        **attrs,
    ) -> None:
        """Open a task scope under the current stage.

        ``probe`` is the stable probe id (``<suite>/<ip>``) carried by
        every event emitted while this task runs; ``vt`` is the task's
        assigned virtual timeslot.
        """
        if not self.enabled:
            return
        stage = self._stage
        stage_ord = stage.stage_ord if stage is not None else self._stages_begun
        sid = f"s{stage_ord}.t{index}" if stage is not None else f"t{index}"
        scope = _Scope(sid, stage_ord, index, probe, shared=False)
        self._thread().scope = scope
        self._emit("task.begin", scope, None, vt, None, None, attrs)
        if self.sink is not None:
            self.sink.enter(sid, "task", "task", probe)

    def end_task(self, *, vt: Optional[_dt.datetime] = None, **attrs) -> None:
        """Emit ``task.end`` and fall back to the stage scope."""
        if not self.enabled:
            return
        state = self._thread()
        scope = state.scope
        if scope is not None:
            if self.sink is not None:
                self.sink.exit(scope.sid)
            self._emit("task.end", scope, None, vt, None, None, attrs)
            self._flush_scope(scope)
        state.scope = None

    def drop_task(self) -> None:
        """Abandon the task scope without an event (exception unwind).

        Events the task already emitted are kept (flushed), exactly as
        they were when emission wrote straight to the global list.
        """
        state = self._thread()
        scope = state.scope
        if scope is not None:
            if self.sink is not None:
                self.sink.discard(scope.sid)
            self._flush_scope(scope)
        state.scope = None

    # -- checkpoint support ---------------------------------------------------

    def open_stage_ordinal(self) -> int:
        """The ordinal of the open stage (or of the next stage to begin)."""
        scope = self._stage
        return scope.stage_ord if scope is not None else self._stages_begun

    def seed_stage_ordinal(self, ordinal: int) -> None:
        """Pin the next stage ordinal.

        A resumed run's tracer begins its first stage at the ordinal the
        checkpoint recorded, so task scope ids (``s<stage>.t<task>``) and
        sort keys continue the interrupted run's numbering exactly.
        """
        with self._lock:
            self._stages_begun = ordinal

    def event_count(self) -> int:
        self._flush_local()
        with self._lock:
            return len(self._events)

    def events_since(self, start: int) -> List[TraceEvent]:
        """Events emitted at positions ``start..`` (emission order)."""
        self._flush_local()
        with self._lock:
            return self._events[start:]

    def ingest(self, events: List[TraceEvent]) -> None:
        """Adopt events traced by an earlier process (a checkpoint segment).

        Each event keeps its canonical key, so ingested events sort
        exactly where they did in the run that emitted them.
        """
        if not self.enabled or not events:
            return
        with self._lock:
            self._events.extend(events)

    def stitch(
        self,
        segments: Iterable[List[TraceEvent]],
        *,
        stages_begun: Optional[int] = None,
    ) -> None:
        """Rebuild a trace prefix from persisted checkpoint segments.

        A checkpointed run stores the trace as delta segments (the
        events emitted since the previous checkpoint); ingesting them in
        checkpoint order reproduces the original emission order, and
        distinct events never share a canonical key, so the stitched
        trace exports byte-identical to the uninterrupted one.
        ``stages_begun`` then re-seeds stage numbering so the resumed
        run's stages continue the ordinals where the checkpoint stopped,
        and the run scope's sequence (events emitted outside any stage)
        continues after the run-scope events of the prefix.
        """
        run_events = 0
        for segment in segments:
            self.ingest(segment)
            run_events += sum(1 for event in segment if event.scope == "run")
        with self._lock:
            self._run_scope.seq += run_events
        if stages_begun is not None:
            self.seed_stage_ordinal(stages_begun)

    # -- export ---------------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        self._flush_local()
        with self._lock:
            return list(self._events)

    def canonical_events(self) -> List[TraceEvent]:
        """Events in canonical order: stage ordinal, task index, sequence.

        A fresh list of the stored events themselves: consumers read
        them (:class:`~repro.obs.analyze.TraceAnalysis` analyses this
        list directly) and must not mutate an event's ``attrs``.
        """
        events = self.events()
        events.sort(key=_BY_KEY)
        return events

    def export_jsonl(self) -> str:
        """The canonical JSONL trace (byte-identical across runs of a seed)."""
        vt_cache: Dict[_dt.datetime, str] = {}
        return "\n".join([render_event(e, vt_cache) for e in self.canonical_events()])

    def write_jsonl(self, path: str) -> int:
        """Write the canonical trace to ``path``; returns the event count.

        The count comes from the canonical snapshot (taken under
        ``_lock`` by :meth:`events`), never from an unlocked read of
        ``_events``, so it always matches what was written.  Lines are
        rendered and written :data:`_WRITE_CHUNK` events at a time.
        """
        events = self.canonical_events()
        vt_cache: Dict[_dt.datetime, str] = {}
        with open(path, "w") as handle:
            for start in range(0, len(events), _WRITE_CHUNK):
                chunk = events[start:start + _WRITE_CHUNK]
                handle.write(
                    "".join([render_event(e, vt_cache) + "\n" for e in chunk])
                )
        return len(events)


class _SpanContext:
    """The context manager behind :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attrs", "_sid", "_parent")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._sid: Optional[str] = None
        self._parent: Optional[str] = None

    def __enter__(self) -> Optional[str]:
        tracer = self._tracer
        if not tracer.enabled:
            return None
        state = tracer._thread()
        scope = state.scope or tracer._stage or tracer._run_scope
        if scope.shared:
            with tracer._lock:
                self._sid = f"{scope.sid}#{scope.spans}"
                scope.spans += 1
        else:
            # Task scopes are single-threaded; no lock needed.
            self._sid = f"{scope.sid}#{scope.spans}"
            scope.spans += 1
        stack = state.spans
        self._parent = stack[-1] if stack else None
        tracer._emit(
            f"{self._name}.begin", scope, None, None, self._sid, self._parent,
            self._attrs,
        )
        stack.append(self._sid)
        if tracer.sink is not None:
            tracer.sink.enter(self._sid, "span", self._name, scope.probe)
        return self._sid

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        if self._sid is None:
            return
        if tracer.sink is not None:
            tracer.sink.exit(self._sid)
        state = tracer._thread()
        stack = state.spans
        if stack and stack[-1] == self._sid:
            stack.pop()
        tracer._emit(
            f"{self._name}.end",
            state.scope or tracer._stage or tracer._run_scope,
            None,
            None,
            self._sid,
            self._parent,
            None,
        )
