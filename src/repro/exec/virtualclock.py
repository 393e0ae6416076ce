"""Task-local simulated time.

The execution engine assigns every probe task a fixed virtual timeslot
(``stage_base + index * SECONDS_PER_PROBE``).  While the task runs, all
its time reads and waits go through a :class:`VirtualClock` seeded at
that slot — greylist backoff and ethics pacing advance the task's own
cursor, never the shared :class:`~repro.clock.SimulatedClock`.  Because
the slot is a function of the task's *index*, not of execution order,
every component that reads time during a probe (SMTP servers, the query
log, ethics accounting) observes identical instants in every run,
including a run resumed from a checkpoint.

:class:`ClockRouter` is the seam: it is the clock callable handed to the
network, resolvers, and query log, and it answers with the executing
task's virtual time when a probe is in flight (tracked per thread) and
with the shared clock otherwise.
"""

from __future__ import annotations

import datetime as _dt
import threading
from typing import List, Optional

from ..clock import SimulatedClock
from ..errors import SimulationError


class VirtualClock:
    """A monotonically advancing, task-local time cursor."""

    __slots__ = ("_now",)

    def __init__(self, start: _dt.datetime) -> None:
        self._now = start

    @property
    def now(self) -> _dt.datetime:
        return self._now

    def advance_seconds(self, seconds: float) -> _dt.datetime:
        if seconds < 0:
            raise SimulationError("cannot move a virtual clock backwards")
        self._now += _dt.timedelta(seconds=seconds)
        return self._now

    def reset(self, start: _dt.datetime) -> None:
        """Re-seed the cursor for the next task's timeslot."""
        self._now = start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now.isoformat()})"


class ClockRouter:
    """Routes time reads to the in-flight task's virtual clock.

    Callable (returns the current instant), so it drops in anywhere a
    ``clock`` callback is expected.  Overrides are pushed per thread.
    """

    def __init__(self, shared: SimulatedClock) -> None:
        self.shared = shared
        self._local = threading.local()

    def _stack(self) -> List[VirtualClock]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def push(self, clock: VirtualClock) -> None:
        """Make ``clock`` the current thread's time source."""
        self._stack().append(clock)

    def pop(self) -> VirtualClock:
        stack = self._stack()
        if not stack:
            raise SimulationError("no virtual clock to pop")
        return stack.pop()

    def active(self) -> Optional[VirtualClock]:
        stack = self._stack()
        return stack[-1] if stack else None

    def __call__(self) -> _dt.datetime:
        clock = self.active()
        return clock.now if clock is not None else self.shared.now
