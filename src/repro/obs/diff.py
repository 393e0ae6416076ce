"""Determinism diff: pinpoint the first divergence between two traces.

The repo's central invariant is that the canonical trace for a given
seed is *byte*-identical across runs and across a checkpoint resume
(``tests/store/test_resume.py``).  When that invariant breaks,
"the files differ" is useless at half a million events; this module
turns the failure into an actionable pointer — the first divergent
event's position, scope, ``seq``, a field-level delta (including a
per-key attrs delta), and the shared events leading up to it.

Two entry points:

- :func:`diff_events` / :func:`diff_files` return a
  :class:`TraceDivergence` (or ``None`` when the traces are identical);
- :func:`assert_traces_identical` raises ``AssertionError`` carrying the
  rendered pointer, for use inside tests exactly where a bare
  ``assert a == b`` used to be.

Comparison happens on each event's canonical serialization
(:meth:`~repro.obs.records.ParsedEvent.to_json`), so "diff says
identical" and "the exported files are byte-identical" are the same
statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .records import ParsedEvent, from_tracer, load_jsonl
from .trace import Tracer

#: Top-level fields compared (and reported) before the attrs delta.
_FIELDS = ("name", "vt", "scope", "seq", "span", "parent", "probe")

TraceLike = Union[Sequence[ParsedEvent], Tracer, str]


@dataclass(frozen=True)
class TraceDivergence:
    """The first point where two canonical traces stop agreeing."""

    index: int
    left: Optional[ParsedEvent]
    right: Optional[ParsedEvent]
    #: shared events immediately before the divergence, oldest first.
    context: List[ParsedEvent] = field(default_factory=list)
    #: top-level fields whose values differ.
    fields: List[str] = field(default_factory=list)
    #: attrs key → (left value or None, right value or None).
    attrs_delta: Dict[str, Tuple[object, object]] = field(default_factory=dict)

    def render(self, left_label: str = "left", right_label: str = "right") -> str:
        lines = [f"first divergence at event {self.index}"]
        anchor = self.left or self.right
        if anchor is not None:
            lines[0] += f" (scope={anchor.scope}, seq={anchor.seq})"
        if self.context:
            lines.append("  shared context:")
            for event in self.context:
                lines.append(f"    [{event.index}] {_describe(event)}")
        if self.left is None:
            lines.append(f"  {left_label}: <trace ends here>")
        else:
            lines.append(f"  {left_label}:  [{self.left.index}] {_describe(self.left)}")
        if self.right is None:
            lines.append(f"  {right_label}: <trace ends here>")
        else:
            lines.append(
                f"  {right_label}: [{self.right.index}] {_describe(self.right)}"
            )
        if self.fields:
            lines.append(f"  differing fields: {', '.join(self.fields)}")
        for key in sorted(self.attrs_delta):
            left_value, right_value = self.attrs_delta[key]
            lines.append(
                f"  attrs[{key!r}]: {left_label}={left_value!r} "
                f"{right_label}={right_value!r}"
            )
        return "\n".join(lines)


def _describe(event: ParsedEvent) -> str:
    stamp = event.vt.isoformat() if event.vt is not None else "-"
    return (
        f"{event.name} scope={event.scope} seq={event.seq} "
        f"vt={stamp} probe={event.probe or '-'}"
    )


def _field_value(event: ParsedEvent, name: str) -> object:
    value = getattr(event, name)
    if name == "vt":
        return value.isoformat() if value is not None else None
    return value


def _delta(left: ParsedEvent, right: ParsedEvent) -> Tuple[List[str], Dict]:
    fields = [
        name
        for name in _FIELDS
        if _field_value(left, name) != _field_value(right, name)
    ]
    attrs_delta: Dict[str, Tuple[object, object]] = {}
    for key in sorted(set(left.attrs) | set(right.attrs)):
        left_value = left.attrs.get(key)
        right_value = right.attrs.get(key)
        if left_value != right_value:
            attrs_delta[key] = (left_value, right_value)
    if attrs_delta:
        fields.append("attrs")
    return fields, attrs_delta


def _as_events(trace: TraceLike) -> List[ParsedEvent]:
    if isinstance(trace, Tracer):
        return from_tracer(trace)
    if isinstance(trace, str):
        return load_jsonl(trace)
    return list(trace)


def diff_events(
    left: TraceLike, right: TraceLike, *, context: int = 3
) -> Optional[TraceDivergence]:
    """First divergence between two traces, or ``None`` when identical.

    Accepts parsed event lists, live tracers, or file paths; events are
    compared on their canonical serialization, so the result is exactly
    the byte-identity check with a usable error report.
    """
    left_events = _as_events(left)
    right_events = _as_events(right)
    shared = min(len(left_events), len(right_events))
    for i in range(shared):
        if left_events[i].to_json() == right_events[i].to_json():
            continue
        fields, attrs_delta = _delta(left_events[i], right_events[i])
        return TraceDivergence(
            index=i,
            left=left_events[i],
            right=right_events[i],
            context=left_events[max(0, i - context): i],
            fields=fields,
            attrs_delta=attrs_delta,
        )
    if len(left_events) != len(right_events):
        longer = left_events if len(left_events) > len(right_events) else right_events
        return TraceDivergence(
            index=shared,
            left=left_events[shared] if len(left_events) > shared else None,
            right=right_events[shared] if len(right_events) > shared else None,
            context=longer[max(0, shared - context): shared],
        )
    return None


def diff_files(
    left_path: str, right_path: str, *, context: int = 3
) -> Optional[TraceDivergence]:
    """Diff two ``--trace`` JSONL files (thin wrapper over the above)."""
    return diff_events(left_path, right_path, context=context)


def assert_traces_identical(
    left: TraceLike,
    right: TraceLike,
    *,
    context: int = 3,
    left_label: str = "left",
    right_label: str = "right",
) -> None:
    """Raise ``AssertionError`` with a divergence pointer unless identical."""
    divergence = diff_events(left, right, context=context)
    if divergence is not None:
        raise AssertionError(
            "traces diverge:\n" + divergence.render(left_label, right_label)
        )
