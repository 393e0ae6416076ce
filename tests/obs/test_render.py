"""The trace renderer (`repro.obs.trace.render_event`) against its oracle.

Every exported trace line — ``Tracer.write_jsonl``/``export_jsonl``,
``TraceEvent.to_json`` and ``ParsedEvent.to_json`` — is spelled by
``render_event``.  The determinism contract is byte identity, so the
renderer must equal, for every event, what the plain spelling
``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` of the
event's payload gives: escapes, key order, number formats and ISO
stamps included.  That spelling is kept here as the oracle.
"""

from __future__ import annotations

import datetime as _dt
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.records import ParsedEvent
from repro.obs.trace import TraceEvent, render_event


def oracle(event) -> str:
    payload = {
        "name": event.name,
        "vt": event.vt.isoformat() if event.vt is not None else None,
        "scope": event.scope,
        "seq": event.seq,
        "span": event.span,
        "parent": event.parent,
        "probe": event.probe,
        "attrs": event.attrs,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


UTC = _dt.timezone.utc

#: strings rich in what JSON must escape: quotes, backslashes, control
#: and non-ASCII characters (including astral ones, written as pairs).
texts = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\t é☃😀'),
        st.characters(),
    ),
    max_size=12,
)
optional_texts = st.none() | texts
floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-7, 1e16, 1.5, -2.25e300]),
    st.floats(),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**100), max_value=2**100),
    floats,
    texts,
)
attr_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)
offsets = st.builds(
    _dt.timezone,
    st.timedeltas(
        min_value=_dt.timedelta(hours=-23, minutes=-59),
        max_value=_dt.timedelta(hours=23, minutes=59),
    ),
)
datetimes = st.datetimes(timezones=st.none() | st.just(UTC) | offsets)
stamps = st.one_of(
    st.none(),
    datetimes,
    datetimes.map(lambda vt: vt.replace(microsecond=0)),
)
trace_events = st.builds(
    TraceEvent,
    name=texts,
    vt=stamps,
    scope=texts,
    seq=st.integers(min_value=0, max_value=2**70),
    span=optional_texts,
    parent=optional_texts,
    probe=optional_texts,
    attrs=st.dictionaries(texts, attr_values, max_size=5),
    key=st.just((0, 0, 0)),
)


class TestRenderEvent:
    @settings(max_examples=150, deadline=None)
    @given(event=trace_events)
    @example(
        event=TraceEvent(
            "stage.begin", None, "s0", 0, None, None, None, {}, (0, -1, 0)
        )
    )
    def test_matches_json_dumps(self, event):
        assert render_event(event, {}) == oracle(event)
        assert event.to_json() == oracle(event)

    @settings(max_examples=40, deadline=None)
    @given(events=st.lists(trace_events, max_size=10))
    def test_one_stamp_cache_across_a_write(self, events):
        cache = {}
        assert [render_event(e, cache) for e in events] == [
            oracle(e) for e in events
        ]

    @settings(max_examples=50, deadline=None)
    @given(event=trace_events, index=st.integers(min_value=0))
    def test_parsed_event_renders_like_its_trace_event(self, event, index):
        parsed = ParsedEvent(index, *event[:8])
        assert parsed.to_json() == render_event(event, {}) == oracle(event)

    def test_equal_instants_in_other_zones_keep_their_own_stamps(self):
        utc = _dt.datetime(2021, 10, 11, 12, 0, tzinfo=UTC)
        plus2 = utc.astimezone(_dt.timezone(_dt.timedelta(hours=2)))
        naive = utc.replace(tzinfo=None)
        assert utc == plus2
        events = [
            TraceEvent("e", vt, "run", i, None, None, None, {}, (0, -2, i))
            for i, vt in enumerate([utc, plus2, naive, utc, plus2])
        ]
        cache = {}
        assert [render_event(e, cache) for e in events] == [
            oracle(e) for e in events
        ]
