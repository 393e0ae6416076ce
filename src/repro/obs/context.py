"""The ambient observation context.

Instrumentation sits on hot paths (every SMTP reply, every DNS query,
every macro expansion), so the layer must cost nothing when nobody is
watching.  The whole mechanism is one module-level global: components
read :data:`ACTIVE` — a single attribute load — and skip all work when
it is ``None``.  No observation object is ever threaded through
constructors, which is what lets the deepest layers (the libSPF2 port,
the RFC 7208 engine built per-validation inside an MTA) emit events
without any API change.

The global is process-wide on purpose: one observation spans one
campaign run.  The :class:`~repro.obs.trace.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry` behind it are themselves
thread-safe.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .metrics import MetricsRegistry
from .trace import Tracer


class Observation:
    """One campaign run's tracer + metrics registry, as a unit."""

    def __init__(
        self,
        *,
        trace: bool = False,
        clock=None,
    ) -> None:
        self.tracer = Tracer(enabled=trace, clock=clock)
        self.metrics = MetricsRegistry()
        #: the attached wall-clock sideband recorder, or ``None``
        #: (:class:`repro.obs.perf.PerfRecorder`, via :meth:`attach_perf`).
        self.perf = None

    def attach_perf(self, recorder) -> None:
        """Attach a wall-clock sideband recorder as the tracer's sink.

        Span wall-timing rides the tracer's span boundaries, so the
        tracer must be enabled for the recorder to see anything — the
        CLI turns tracing on whenever ``--perf`` is given.  The recorder
        only ever *receives* ids from the tracer; nothing it does can
        alter a trace event, which is the structural guarantee behind
        the byte-neutrality tests.
        """
        self.perf = recorder
        self.tracer.sink = recorder

    def bind_clock(self, clock) -> None:
        """Point trace timestamps at a simulation clock callable.

        For a campaign this is the :class:`~repro.exec.ClockRouter`, so
        events emitted while a probe is in flight are stamped with that
        probe's virtual timeslot — identically in every run.
        """
        self.tracer.clock = clock

    def to_dict(self) -> dict:
        """JSON-ready snapshot (the ``--metrics-out`` payload core)."""
        return {
            "metrics": self.metrics.to_dict(),
            "trace_events": self.tracer.event_count(),
        }


#: The active observation, or ``None`` (the default: observability off).
ACTIVE: Optional[Observation] = None


def activate(observation: Observation) -> Observation:
    """Install ``observation`` as the process-wide active context."""
    global ACTIVE
    ACTIVE = observation
    return observation


@contextmanager
def observing(observation: Observation) -> Iterator[Observation]:
    """Activate ``observation`` for the duration of a block."""
    global ACTIVE
    previous = ACTIVE
    activate(observation)
    try:
        yield observation
    finally:
        ACTIVE = previous
