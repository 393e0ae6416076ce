"""The scan service core: admission, dispatch, and latency accounting.

:class:`ScanService` turns a resident :class:`repro.api.RunHandle` into
a request-serving engine.  The design splits into three small pieces:

- **Admission.**  Requests enter a bounded queue
  (``queue_depth``); a full queue is answered ``429 overloaded``
  immediately rather than building unbounded backlog, and a service
  whose dispatcher is not running (never started, or stopped) answers
  ``503`` at once.  Probe requests additionally pass per-tenant rate
  limiting *before* they are queued, reusing
  :class:`repro.core.ethics.EthicsControls` verbatim: each
  tenant gets its own controls instance, so one tenant re-probing a
  target inside the minimum reconnect wait (or exceeding the
  concurrency cap) is refused with ``429`` + ``Retry-After`` without
  affecting anyone else.  The ethics machinery that keeps the *campaign*
  polite toward remote servers is exactly the machinery that keeps
  *tenants* polite toward the service.

- **Dispatch.**  A single dispatcher thread owns the world: every
  world-touching request is executed serially against the handle, in
  admission order.  This is a determinism decision, not a throughput
  shortcut — the virtual clock, label allocator, and DNS caches must
  advance in one well-defined order for probe results (and their trace
  events) to stay byte-identical to batch runs of the same probes.
  ``run_status`` bypasses the queue entirely (it only reads counters),
  so health checks stay responsive under load.

- **Accounting.**  Every request records its wall-clock latency and
  outcome.  The retained samples are kept in ascending order, so
  :meth:`stats` / ``run_status`` read exact percentiles by rank
  (:func:`repro.obs.metrics.sorted_percentile`, the nearest-rank
  definition behind :func:`~repro.obs.metrics.exact_percentile` and
  :class:`~repro.obs.metrics.Histogram` too) instead of sorting every
  sample per call.  Latencies are also mirrored into the handle's
  observation metrics registry when one is attached, and rolled into
  performance-ledger records by :mod:`repro.serve.loadtest`.
"""

from __future__ import annotations

import bisect
import datetime as _dt
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..api import ProbeRequest, RunHandle
from ..core.ethics import EthicsControls, EthicsViolation
from ..errors import ReproError
from ..obs.metrics import sorted_percentile

#: Methods the service answers; ``run_status`` never queues.
METHODS = (
    "probe_domain",
    "check_mta",
    "spf_census_row",
    "patch_status_since",
    "run_status",
)

#: Methods that contact remote addresses and therefore pass the
#: per-tenant ethics admission gate (reads are bounded by the queue).
PROBE_METHODS = ("probe_domain", "check_mta")


@dataclass
class _Pending:
    """One admitted request riding the dispatch queue."""

    method: str
    payload: dict
    tenant: str
    #: the ethics-admission key to release on completion (``None`` for
    #: read methods, which never touched the limiter).
    release_key: Optional[str] = None
    done: threading.Event = field(default_factory=threading.Event)
    status: int = 500
    body: dict = field(default_factory=dict)


class ScanService:
    """A request-serving front over one resident :class:`RunHandle`."""

    def __init__(
        self,
        handle: RunHandle,
        *,
        queue_depth: int = 64,
        tenant_limits: Optional[Callable[[], EthicsControls]] = None,
        request_timeout: float = 300.0,
    ) -> None:
        self.handle = handle
        self.queue_depth = queue_depth
        self.request_timeout = request_timeout
        self._queue: "queue.Queue[Optional[_Pending]]" = queue.Queue(
            maxsize=queue_depth
        )
        #: per-tenant rate limiters, created on first contact.
        self._limits_factory = tenant_limits or EthicsControls
        self._limiters: Dict[str, EthicsControls] = {}
        self._guard = threading.Lock()
        # -- accounting (guarded by _guard) --
        #: every recorded latency (ms), all methods, in ascending order.
        self._latencies: List[float] = []
        self._counts: Dict[str, int] = {}
        self._rejected_queue = 0
        self._rejected_ratelimit = 0
        self._errors = 0
        self._started_at = time.time()
        self._thread: Optional[threading.Thread] = None
        self._stopping = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ScanService":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting work, drain the queue, and stop (idempotent)."""
        with self._guard:
            thread = self._thread
            if thread is None or self._stopping:
                return
            # Set under the guard ``submit`` enqueues under, so nothing
            # can be queued behind the sentinel.
            self._stopping = True
        # The blocking put waits outside the guard: the draining
        # dispatcher takes it.
        self._queue.put(None)
        thread.join()
        with self._guard:
            self._thread = None
            self._stopping = False

    def __enter__(self) -> "ScanService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- admission ------------------------------------------------------------

    def _limiter(self, tenant: str) -> EthicsControls:
        with self._guard:
            limiter = self._limiters.get(tenant)
            if limiter is None:
                limiter = self._limiters[tenant] = self._limits_factory()
            return limiter

    def _admit_probe(
        self, tenant: str, target: str
    ) -> Tuple[Optional[str], Optional[dict]]:
        """Ethics admission for a probe; returns (release_key, refusal)."""
        limiter = self._limiter(tenant)
        now = _dt.datetime.now(tz=_dt.timezone.utc)
        try:
            limiter.connection_opened(target, now)
        except EthicsViolation as violation:
            earliest = limiter.earliest_recontact(target)
            retry_after = 1.0
            if earliest is not None and earliest > now:
                retry_after = (earliest - now).total_seconds()
            return None, {
                "error": f"rate limited: {violation}",
                "reason": "rate-limit",
                "tenant": tenant,
                "retry_after": round(retry_after, 3),
            }
        return target, None

    def submit(
        self, method: str, payload: dict, tenant: str = "public"
    ) -> Tuple[int, dict]:
        """Admit, execute, and answer one request (blocking).

        Returns ``(http_status, body)``.  Callers (the HTTP layer, the
        in-process client used by tests) block until the dispatcher has
        answered; admission failures return immediately.
        """
        started = time.perf_counter()
        if method not in METHODS:
            return 404, {
                "error": f"unknown method {method!r}",
                "methods": list(METHODS),
            }
        if method == "run_status":
            # Pure counter read: never queues, stays responsive under load.
            status, body = 200, self.run_status()
            self._record(method, started, status)
            return status, body

        if method == "patch_status_since":
            since = payload.get("since", 0)
            if since.__class__ is not int or since < 0:
                return 400, {
                    "error": f"'since' must be an integer >= 0, not {since!r}"
                }

        release_key: Optional[str] = None
        if method in PROBE_METHODS:
            target = str(payload.get("target", ""))
            if not target:
                return 400, {"error": "probe request needs a target"}
            release_key, refusal = self._admit_probe(tenant, target)
            if refusal is not None:
                with self._guard:
                    self._rejected_ratelimit += 1
                return 429, refusal

        pending = _Pending(
            method=method, payload=payload, tenant=tenant,
            release_key=release_key,
        )
        refusal = self._enqueue(pending)
        if refusal is not None:
            if release_key is not None:
                self._limiter(tenant).connection_closed()
            return refusal
        if not pending.done.wait(timeout=self.request_timeout):
            # The dispatcher will still finish the work and release the
            # limiter slot; the client just stops waiting.
            return 504, {"error": "request timed out in the dispatch queue"}
        self._record(method, started, pending.status)
        return pending.status, pending.body

    def _enqueue(self, pending: _Pending) -> Optional[Tuple[int, dict]]:
        """Queue ``pending`` for the dispatcher, or return the refusal.

        A service with no dispatcher running (never started, stopping
        or stopped) answers 503 at once instead of leaving the caller to
        wait out ``request_timeout`` for work nothing will do.
        """
        with self._guard:
            if self._thread is None or self._stopping:
                return 503, {
                    "error": "service is not running",
                    "reason": "stopped",
                }
            try:
                self._queue.put_nowait(pending)
            except queue.Full:
                self._rejected_queue += 1
                return 429, {
                    "error": (
                        f"service overloaded (queue depth {self.queue_depth})"
                    ),
                    "reason": "queue-full",
                    "retry_after": 1.0,
                }
        return None

    # -- dispatch -------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            pending = self._queue.get()
            if pending is None:
                return
            try:
                pending.status, pending.body = self._execute(pending)
            except Exception:
                with self._guard:
                    self._errors += 1
                pending.status = 500
                pending.body = {
                    "error": "internal error",
                    "detail": traceback.format_exc(limit=5),
                }
            finally:
                if pending.release_key is not None:
                    self._limiter(pending.tenant).connection_closed()
                pending.done.set()

    def _execute(self, pending: _Pending) -> Tuple[int, dict]:
        method, payload = pending.method, pending.payload
        try:
            if method in PROBE_METHODS:
                request = ProbeRequest(
                    kind=method,
                    target=str(payload["target"]),
                    tenant=pending.tenant,
                )
                return 200, self.handle.probe(request).to_dict()
            if method == "spf_census_row":
                return 200, self.handle.census_row(str(payload.get("target", "")))
            # patch_status_since (``since`` was checked at admission)
            return 200, self.handle.patch_status_since(
                str(payload.get("target", "")), payload.get("since", 0)
            )
        except ReproError as error:
            # Domain-level refusals (unknown domain, initial sweep not
            # run yet, ...) are client errors, not service failures.
            return 404, {"error": str(error)}

    # -- accounting -----------------------------------------------------------

    def _record(self, method: str, started: float, status: int) -> None:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with self._guard:
            # (5xx outcomes are counted where they arise — the dispatch
            # loop — so a failed request is never double-counted here.)
            self._counts[method] = self._counts.get(method, 0) + 1
            bisect.insort(self._latencies, elapsed_ms)
        observation = self.handle.simulation.observation
        if observation is not None:
            observation.metrics.counter("serve.requests").inc(key=method)
            observation.metrics.histogram("serve.request_ms").observe(elapsed_ms)

    def latencies_ms(self) -> List[float]:
        """Every recorded request latency (milliseconds), all methods, in
        ascending order."""
        with self._guard:
            return list(self._latencies)

    def stats(self) -> dict:
        """Request counters and exact latency percentiles."""
        with self._guard:
            ordered = self._latencies
            out = {
                "requests": sum(self._counts.values()),
                "by_method": dict(sorted(self._counts.items())),
                "rejected_queue_full": self._rejected_queue,
                "rejected_rate_limit": self._rejected_ratelimit,
                "errors": self._errors,
                "queue_depth": self.queue_depth,
                "queued_now": self._queue.qsize(),
                "uptime_seconds": round(time.time() - self._started_at, 3),
            }
            if ordered:
                out["latency_ms"] = {
                    "count": len(ordered),
                    "p50": round(sorted_percentile(ordered, 0.50), 3),
                    "p90": round(sorted_percentile(ordered, 0.90), 3),
                    "p99": round(sorted_percentile(ordered, 0.99), 3),
                    "max": round(ordered[-1], 3),
                }
        return out

    def run_status(self) -> dict:
        """The handle's run snapshot plus service-side counters."""
        status = self.handle.status()
        status["service"] = self.stats()
        return status
