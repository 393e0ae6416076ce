"""The measurement's self-imposed ethical limits (paper Section 6.1).

The paper's controls, all enforced here so tests can verify them:

- duplicate IP addresses are tested once per round;
- at most 250 simulated-concurrent outgoing SMTP connections;
- a minimum 90-second wait between connections to the same address (or
  to addresses sharing an email domain);
- an 8-minute wait before retrying a greylisted server;
- after the initial sweep, only addresses found vulnerable or
  inconclusive-but-remeasurable are contacted again.

Violations raise :class:`EthicsViolation` — the measurement code treats
these limits as invariants, not suggestions.
"""

from __future__ import annotations

import datetime as _dt
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..errors import ReproError


class EthicsViolation(ReproError):
    """A measurement action would have broken the self-imposed limits."""


@dataclass
class EthicsControls:
    """Tracks and enforces the measurement limits."""

    max_concurrent_connections: int = 250
    min_reconnect_wait: _dt.timedelta = _dt.timedelta(seconds=90)
    greylist_wait: _dt.timedelta = _dt.timedelta(minutes=8)

    _last_contact: Dict[str, _dt.datetime] = field(default_factory=dict)
    _active: int = 0
    peak_concurrency: int = 0
    connections_opened: int = 0
    #: The ledger is shared by every probe; the lock keeps the
    #: accounting exact across threads.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # -- connection accounting ------------------------------------------------

    def connection_opened(self, ip: str, now: _dt.datetime) -> None:
        """Record an outgoing connection; enforces concurrency and waits."""
        with self._lock:
            if self._active >= self.max_concurrent_connections:
                raise EthicsViolation(
                    f"concurrency cap exceeded ({self.max_concurrent_connections})"
                )
            last = self._last_contact.get(ip)
            if last is not None and now - last < self.min_reconnect_wait:
                raise EthicsViolation(
                    f"reconnected to {ip} after "
                    f"{(now - last).total_seconds():.0f}s (< 90s)"
                )
            self._active += 1
            self.peak_concurrency = max(self.peak_concurrency, self._active)
            self.connections_opened += 1
            self._last_contact[ip] = now

    def connection_closed(self) -> None:
        with self._lock:
            if self._active <= 0:
                raise EthicsViolation("closing a connection that was never opened")
            self._active -= 1

    # -- wait computation ------------------------------------------------------

    def earliest_recontact(self, ip: str, *, greylisted: bool = False) -> Optional[_dt.datetime]:
        """When ``ip`` may next be contacted (None = immediately)."""
        last = self._last_contact.get(ip)
        if last is None:
            return None
        wait = self.greylist_wait if greylisted else self.min_reconnect_wait
        return last + wait

    def reset_round(self) -> None:
        """Start a new measurement round (waits persist; counters reset)."""
        self._active = 0


def dedupe_ips(ip_lists: Dict[str, list]) -> Dict[str, list]:
    """domain → ips, inverted to unique ip → domains (tested once each)."""
    by_ip: Dict[str, list] = {}
    for domain, ips in ip_lists.items():
        for ip in ips:
            by_ip.setdefault(ip, []).append(domain)
    return by_ip
