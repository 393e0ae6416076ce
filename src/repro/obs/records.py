"""Parsed trace records: the input side of trace analysis for files.

The tracer (:mod:`repro.obs.trace`) *produces* canonical JSONL; this
module turns that JSONL back into typed records the analysis toolkit
(:mod:`repro.obs.analyze`) and the determinism diff
(:mod:`repro.obs.diff`) consume.  A :class:`ParsedEvent` mirrors the
exported payload of :class:`~repro.obs.trace.TraceEvent` field for
field, plus its position in the canonical order, so "event 1234 of the
file" and "event 1234 of the tracer" always name the same record.
Analysing a live tracer needs no records at all:
:meth:`~repro.obs.analyze.TraceAnalysis.from_tracer` reads the tracer's
own events; only the diff, which reports positions, numbers them
(:func:`from_tracer`).

Round-trip fidelity matters more than convenience here: the determinism
contract is *byte* identity of the export, so :meth:`ParsedEvent.to_json`
re-serializes through the tracer's own renderer
(:func:`~repro.obs.trace.render_event`), and the diff compares those
strings rather than parsed floats or datetimes.
"""

from __future__ import annotations

import datetime as _dt
import json
import re
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from .trace import Tracer, render_event

_SCOPE_RE = re.compile(r"^(?:s(?P<stage>\d+))?(?:(?<=\d)\.)?(?:t(?P<task>\d+))?$")


class TraceFormatError(ValueError):
    """A trace file line that is not a valid canonical trace record."""


class ParsedEvent(NamedTuple):
    """One canonical trace record, as loaded from JSONL or a tracer.

    ``index`` is the 0-based position in canonical order; the fields
    after it are those of :class:`~repro.obs.trace.TraceEvent`, in the
    same order (so ``ParsedEvent(i, *event[:8])`` adapts one).
    """

    index: int
    name: str
    vt: Optional[_dt.datetime]
    scope: str
    seq: int
    span: Optional[str]
    parent: Optional[str]
    probe: Optional[str]
    attrs: Dict[str, object]

    def to_json(self) -> str:
        """The canonical serialization (byte-identical to the export)."""
        return render_event(self, {})


def split_scope(scope: str) -> Tuple[Optional[int], Optional[int]]:
    """``"s3.t12"`` → ``(3, 12)``; ``"s3"`` → ``(3, None)``; else Nones."""
    if scope == "run":
        return None, None
    match = _SCOPE_RE.match(scope)
    if match is None:
        return None, None
    stage, task = match.group("stage"), match.group("task")
    return (
        int(stage) if stage is not None else None,
        int(task) if task is not None else None,
    )


def _parse_vt(raw: Optional[str]) -> Optional[_dt.datetime]:
    if raw is None:
        return None
    return _dt.datetime.fromisoformat(raw)


def parse_jsonl(text: str) -> List[ParsedEvent]:
    """Parse a canonical JSONL trace; raises :class:`TraceFormatError`."""
    events: List[ParsedEvent] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            event = ParsedEvent(
                index=len(events),
                name=payload["name"],
                vt=_parse_vt(payload["vt"]),
                scope=payload["scope"],
                seq=payload["seq"],
                span=payload.get("span"),
                parent=payload.get("parent"),
                probe=payload.get("probe"),
                attrs=payload.get("attrs") or {},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"line {lineno}: not a canonical trace record ({exc})"
            ) from exc
        events.append(event)
    return events


def load_jsonl(path: str) -> List[ParsedEvent]:
    """Load a trace file written by ``--trace`` / ``Tracer.write_jsonl``."""
    with open(path) as handle:
        return parse_jsonl(handle.read())


@dataclass(frozen=True)
class PerfRecord:
    """One wall-clock sideband record (``perf.jsonl``).

    ``sid`` is the tracer-assigned id the record joins the canonical
    trace on: a span id (``s<stage>.t<task>#<n>``, matching the trace's
    ``span`` field), a task scope (``s<stage>.t<task>``) or a stage
    scope (``s<stage>``), disambiguated by ``kind``.  ``t0`` is seconds
    since the recorder's epoch; ``wall`` is the measured
    ``perf_counter`` duration.  Wall values are intentionally absent
    from :class:`ParsedEvent` — they live only here, in the sideband.
    """

    index: int
    kind: str
    sid: str
    name: str
    probe: Optional[str]
    t0: float
    wall: float


def parse_perf_jsonl(text: str) -> List[PerfRecord]:
    """Parse a ``perf.jsonl`` stream; raises :class:`TraceFormatError`."""
    records: List[PerfRecord] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            record = PerfRecord(
                index=len(records),
                kind=payload["kind"],
                sid=payload["sid"],
                name=payload["name"],
                probe=payload.get("probe"),
                t0=float(payload["t0"]),
                wall=float(payload["wall"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"line {lineno}: not a perf sideband record ({exc})"
            ) from exc
        records.append(record)
    return records


def from_tracer(tracer: Tracer) -> List[ParsedEvent]:
    """Number a live tracer's canonical events without a serialize round.

    The records share each event's ``attrs`` dict rather than copying
    it: no consumer (the diff, the analysis) mutates attrs.
    """
    return [ParsedEvent(i, *e[:8]) for i, e in enumerate(tracer.canonical_events())]
