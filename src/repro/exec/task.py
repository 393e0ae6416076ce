"""The unit of work the execution engine schedules.

A :class:`ProbeTask` is *what* to probe — one mail-server address, the
test-suite label its DNS evidence files under, the probe method that
worked last time (if any), and a domain the server hosts mail for (the
RCPT TO target).  *How* the probe runs — at which simulated instant,
with which id labels — is the executor's business.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.detector import ProbeMethod


@dataclass(frozen=True)
class ProbeTask:
    """One address to probe within a measurement stage."""

    ip: str
    suite: str
    preferred_method: Optional[ProbeMethod] = None
    recipient_domain: Optional[str] = None
