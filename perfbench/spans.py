"""Span recording around the program's public layer calls.

Traced runs (``--trace 1``) call :func:`install` before the world is
built.  It replaces each layer entry point named in :data:`CALLS` with a
wrapper that records one span per call: ``(id, name, start, end,
parent, unit, nested)``.  ``unit`` is the probe id (one per
``VulnerabilityDetector.detect``) or the serve request id, inherited by
every span below it; ``nested`` marks a span with an ancestor of the
same name, so inclusive layer time counts only the outermost call.
Spans stay in memory and are written as JSONL when the process ends.

Nothing here runs in an untraced run: the end-to-end metrics are
measured with every wrapper off.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

#: (span name, module, class, method).  A class whose subclasses
#: override the method gets every override wrapped under the same name.
CALLS = (
    ("core.resolve", "repro.core.campaign", "MeasurementCampaign", "resolve_domain_ips"),
    ("core.resolve", "repro.core.campaign", "MeasurementCampaign", "resolve_ips"),
    ("core.detect", "repro.core.detector", "VulnerabilityDetector", "detect"),
    ("exec.run_stage", "repro.exec.engine", "ProbeExecutor", "run_stage"),
    ("smtp.probe", "repro.smtp.client", "SmtpClient", "probe"),
    ("spf.check_host", "repro.spf.evaluator", "SpfEvaluator", "check_host"),
    ("libspf2.expand", "repro.spf.implementations", "MacroExpansionBehavior", "expand"),
    ("dns.resolver", "repro.dns.resolver", "CachingResolver", "query"),
    ("dns.responder", "repro.dns.server", "SpfTestResponder", "query"),
    ("dns.fleet", "repro.internet.mta_fleet", "FleetDnsBackend", "query"),
    ("internet.server_at", "repro.smtp.transport", "Network", "server_at"),
    ("obs.trace_write", "repro.obs.trace", "Tracer", "write_jsonl"),
    ("obs.analyze", "repro.obs.analyze", "TraceAnalysis", "from_tracer"),
    ("store.checkpoint", "repro.store.runstore", "CheckpointWriter", "after_initial"),
    ("store.checkpoint", "repro.store.runstore", "CheckpointWriter", "after_round"),
    ("store.load", "repro.store.runstore", "RunStore", "load_latest"),
    ("serve.submit", "repro.serve.service", "ScanService", "submit"),
    ("serve.execute", "repro.serve.service", "ScanService", "_execute"),
    ("serve.dispatch.probe", "repro.api", "RunHandle", "probe"),
    ("serve.dispatch.census_row", "repro.api", "RunHandle", "census_row"),
    ("serve.dispatch.patch_status_since", "repro.api", "RunHandle", "patch_status_since"),
    ("serve.dispatch.status", "repro.api", "RunHandle", "status"),
)

#: The payload key a traced load generator stamps on each request so
#: daemon-side spans can be joined to client round trips.
RID_KEY = "bench_rid"


def _request_unit(name, args):
    """A new unit id for spans that start a probe or a serve request."""
    if name == "serve.submit":
        payload = args[2] if len(args) > 2 else None
        return ("r", payload.get(RID_KEY)) if isinstance(payload, dict) else None
    if name == "serve.execute":
        payload = getattr(args[1], "payload", None)
        return ("r", payload.get(RID_KEY)) if isinstance(payload, dict) else None
    return None


class SpanRecorder:
    """In-memory span store plus the per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans = []
        self.outcomes = defaultdict(int)
        self.handles = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.active = defaultdict(int)
        return stack

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own call into a layer."""
        stack = self._stack()
        active = self._local.active
        parent, unit = stack[-1] if stack else (0, None)
        sid = next(self._ids)
        nested = active[name] > 0
        stack.append((sid, unit))
        active[name] += 1
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            active[name] -= 1
            stack.pop()
            self.spans.append((sid, name, start, end, parent, unit, nested))

    def wrap(self, owner, attr, name) -> None:
        raw = owner.__dict__[attr]
        rebind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        func = raw.__func__ if rebind else raw
        recorder = self
        probe = name == "core.detect"
        starts_unit = name in ("serve.submit", "serve.execute")
        keeps_handle = name == "serve.dispatch.status"
        loads = name == "store.load"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            active = recorder._local.active
            parent, unit = stack[-1] if stack else (0, None)
            sid = next(recorder._ids)
            if probe:
                unit = ("p", sid)
            elif starts_unit:
                unit = _request_unit(name, args) or unit
            elif keeps_handle and not recorder.handles:
                recorder.handles.append(args[0])
            nested = active[name] > 0
            stack.append((sid, unit))
            active[name] += 1
            start = time.monotonic()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.monotonic()
                active[name] -= 1
                stack.pop()
                recorder.spans.append((sid, name, start, end, parent, unit, nested))
            if probe:
                recorder.outcomes["probes"] += 1
                if result.outcome.spf_measured:
                    recorder.outcomes["conclusive"] += 1
            elif loads:
                recorder.outcomes["checkpoints_loaded"] += len(result.entries)
            return result

        setattr(owner, attr, rebind(wrapper) if rebind else wrapper)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for sid, name, start, end, parent, unit, nested in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": sid, "name": name, "start": start, "end": end,
                            "parent": parent, "unit": list(unit) if unit else None,
                            "nested": nested,
                        },
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")


def read_jsonl(path: str):
    """Span tuples back from :meth:`SpanRecorder.write_jsonl`."""
    out = []
    with open(path) as handle:
        for line in handle:
            s = json.loads(line)
            unit = tuple(s["unit"]) if s["unit"] else None
            out.append(
                (s["id"], s["name"], s["start"], s["end"], s["parent"], unit, s["nested"])
            )
    return out


def _overrides(cls, attr):
    """``cls`` and every subclass that defines ``attr`` itself."""
    seen, todo, out = set(), [cls], []
    while todo:
        klass = todo.pop()
        if klass in seen:
            continue
        seen.add(klass)
        if attr in klass.__dict__:
            out.append(klass)
        todo.extend(klass.__subclasses__())
    return out


def install() -> SpanRecorder:
    """Wrap every call in :data:`CALLS`; returns the recorder."""
    importlib.import_module("repro.exec")  # registers every executor subclass
    recorder = SpanRecorder()
    for name, module, cls_name, attr in CALLS:
        cls = getattr(importlib.import_module(module), cls_name)
        for owner in _overrides(cls, attr):
            recorder.wrap(owner, attr, name)
    return recorder


def summarize(spans, *, window=None):
    """Additive per-layer sums over ``spans`` (optionally a time window).

    Returns a flat dict of counts and seconds that add up across
    processes (:func:`combine`); ratios are formed later by the caller.
    ``self_s.<layer>`` is each layer's self time: span duration minus
    the part its direct children cover.
    """
    if window is not None:
        lo, hi = window
        spans = [s for s in spans if lo <= s[2] and s[3] <= hi]
    child_time = defaultdict(float)
    for sid, name, start, end, parent, unit, nested in spans:
        child_time[parent] += end - start
    out = defaultdict(float)
    for sid, name, start, end, parent, unit, nested in spans:
        duration = end - start
        layer = name.split(".", 1)[0]
        out["spans"] += 1
        out[f"self_s.{layer}"] += duration - child_time.get(sid, 0.0)
        if not nested:
            out[f"calls.{name}"] += 1
            out[f"time_s.{name}"] += duration
    return dict(out)


def combine(parts):
    """Sum additive dicts from several processes or legs."""
    out = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            out[key] += value
    return dict(out)
