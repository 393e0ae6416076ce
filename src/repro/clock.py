"""A deterministic simulated clock.

Every time-dependent component in the reproduction (SMTP rate limiting,
greylisting, longitudinal measurement scheduling, patch events) reads time
from a :class:`SimulatedClock` instead of the wall clock, which makes full
four-month measurement campaigns run in milliseconds and reproducibly.

Times are modeled as :class:`datetime.datetime` values in UTC.  The paper's
timeline constants are exposed as module-level attributes so experiment code
and tests can reference the same dates as the paper:

>>> from repro.clock import PUBLIC_DISCLOSURE
>>> PUBLIC_DISCLOSURE.isoformat()
'2022-01-19T00:00:00+00:00'
"""

from __future__ import annotations

import datetime as _dt
from typing import Callable, List, Optional, Tuple

from .errors import SimulationError

UTC = _dt.timezone.utc


def utc(year: int, month: int, day: int, hour: int = 0, minute: int = 0) -> _dt.datetime:
    """Build a timezone-aware UTC datetime."""
    return _dt.datetime(year, month, day, hour, minute, tzinfo=UTC)


#: The paper's measurement / disclosure timeline (Section 5.3 and 6.4).
INITIAL_MEASUREMENT = utc(2021, 10, 11)
LONGITUDINAL_START = utc(2021, 10, 26)
PRIVATE_NOTIFICATION = utc(2021, 11, 15)
MEASUREMENTS_PAUSED = utc(2021, 11, 30)
MEASUREMENTS_RESUMED = utc(2022, 1, 15)
PUBLIC_DISCLOSURE = utc(2022, 1, 19)
FINAL_MEASUREMENT = utc(2022, 2, 14)
PACKAGE_MANAGER_NOTIFICATION = utc(2021, 10, 1)

#: CVE identifiers assigned at public disclosure.
CVE_IDS = ("CVE-2021-33912", "CVE-2021-33913")


class SimulatedClock:
    """A monotonically advancing simulated clock.

    The clock starts at ``start`` and only moves forward, via
    :meth:`advance` or :meth:`advance_to`.  Components can register
    callbacks to be fired when the clock passes a given instant, which is
    how scheduled events (patch releases, disclosure dates) are driven.
    """

    def __init__(self, start: _dt.datetime = INITIAL_MEASUREMENT) -> None:
        if start.tzinfo is None:
            raise SimulationError("clock start time must be timezone-aware")
        self._now = start
        self._callbacks: List[Tuple[_dt.datetime, Callable[[_dt.datetime], None]]] = []

    @property
    def now(self) -> _dt.datetime:
        """The current simulated instant."""
        return self._now

    def advance(self, delta: _dt.timedelta) -> _dt.datetime:
        """Move the clock forward by ``delta`` and fire due callbacks."""
        if delta < _dt.timedelta(0):
            raise SimulationError("cannot move the simulated clock backwards")
        return self.advance_to(self._now + delta)

    def advance_seconds(self, seconds: float) -> _dt.datetime:
        """Convenience: advance by a (non-negative) number of seconds."""
        return self.advance(_dt.timedelta(seconds=seconds))

    def advance_to(self, when: _dt.datetime) -> _dt.datetime:
        """Move the clock forward to ``when`` and fire due callbacks.

        Callbacks are fired in chronological order, each observing the
        instant it was scheduled for.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot move the simulated clock backwards ({when} < {self._now})"
            )
        due = sorted(
            (cb for cb in self._callbacks if cb[0] <= when), key=lambda cb: cb[0]
        )
        for at, fn in due:
            self._callbacks.remove((at, fn))
            self._now = max(self._now, at)
            fn(at)
        self._now = when
        return self._now

    def schedule(self, when: _dt.datetime, fn: Callable[[_dt.datetime], None]) -> None:
        """Register ``fn`` to run when the clock reaches ``when``.

        Scheduling an instant that has already passed fires immediately.
        """
        if when <= self._now:
            fn(when)
        else:
            self._callbacks.append((when, fn))

    def pending(self) -> int:
        """Number of callbacks not yet fired."""
        return len(self._callbacks)

    def next_scheduled(
        self, *, until: Optional[_dt.datetime] = None
    ) -> Optional[_dt.datetime]:
        """The earliest pending callback instant (optionally capped).

        Returns ``None`` if nothing is scheduled, or nothing is scheduled
        at or before ``until``.  A checkpoint restore uses it to drain
        every callback that is already due.
        """
        earliest: Optional[_dt.datetime] = None
        for at, _fn in self._callbacks:
            if until is not None and at > until:
                continue
            if earliest is None or at < earliest:
                earliest = at
        return earliest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedClock(now={self._now.isoformat()})"
