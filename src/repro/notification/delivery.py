"""Notification delivery, open simulation, and patch coupling.

Delivery rules from the paper (Section 7.7):

- one email per hosting target: a domain with several vulnerable
  addresses gets one email, and several vulnerable domains behind the
  same MX records share one email;
- 31.6% of notifications bounced (modeled by each hosting unit's
  ``accepts_postmaster`` flag);
- 12% of delivered notifications were opened (tracking-pixel lower
  bound), opens spread over the weeks after sending;
- opening barely moved patching: 9 of 512 openers patched between the
  private notification and public disclosure (the coupling lives in
  :meth:`repro.internet.patching.PatchBehaviorModel.on_notification_opened`).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..clock import PUBLIC_DISCLOSURE, SimulatedClock
from ..internet.mta_fleet import HostingUnit, MtaFleet
from ..internet.patching import PatchBehaviorModel
from ..internet.rng import SeededRng
from ..smtp.transport import Network
from .composer import NotificationEmail, compose_notification
from .tracking import TrackingServer


@dataclass
class NotificationRecord:
    """One notification email's fate."""

    unit_id: int
    domain: str  # the representative domain the email was addressed to
    covered_domains: List[str]
    email: NotificationEmail
    delivered: bool
    opened_at: Optional[_dt.datetime] = None

    @property
    def opened(self) -> bool:
        return self.opened_at is not None


@dataclass
class NotificationReport:
    """The paper's Section 7.7 funnel."""

    sent_at: _dt.datetime
    records: List[NotificationRecord] = field(default_factory=list)

    @property
    def sent(self) -> int:
        return len(self.records)

    @property
    def bounced(self) -> int:
        return sum(1 for r in self.records if not r.delivered)

    @property
    def delivered(self) -> int:
        return sum(1 for r in self.records if r.delivered)

    @property
    def opened(self) -> int:
        return sum(1 for r in self.records if r.opened)

    def opened_unit_ids(self) -> List[int]:
        return [r.unit_id for r in self.records if r.opened]

    def delivered_unit_ids(self) -> List[int]:
        return [r.unit_id for r in self.records if r.delivered]

    def bounced_unit_ids(self) -> List[int]:
        return [r.unit_id for r in self.records if not r.delivered]


class NotificationCampaign:
    """Sends the private notifications and simulates recipient behavior."""

    def __init__(
        self,
        fleet: MtaFleet,
        patch_model: PatchBehaviorModel,
        network: Network,
        clock: SimulatedClock,
        *,
        seed: int = 0,
        open_probability: float = 0.12,
        mean_open_delay_days: float = 7.0,
    ) -> None:
        self.fleet = fleet
        self.patch_model = patch_model
        self.network = network
        self.clock = clock
        self.tracking = TrackingServer()
        self.open_probability = open_probability
        self.mean_open_delay_days = mean_open_delay_days
        self._rng = SeededRng(seed).fork("notification")
        self._token_counter = 0

    def _next_token(self) -> str:
        self._token_counter += 1
        return f"t{self._token_counter:08d}"

    def send_notifications(
        self, vulnerable_domains: Sequence[str], when: _dt.datetime
    ) -> NotificationReport:
        """Send one deduplicated notification per hosting target.

        Opens are scheduled on the simulation clock; each open registers
        with the tracking server and nudges the patch model.
        """
        report = NotificationReport(sent_at=when)
        by_unit: Dict[int, List[str]] = {}
        units: Dict[int, HostingUnit] = {}
        for name in vulnerable_domains:
            unit = self.fleet.unit_for_domain(name)
            if unit is None:
                continue
            by_unit.setdefault(unit.unit_id, []).append(name)
            units[unit.unit_id] = unit

        for unit_id, names in sorted(by_unit.items()):
            unit = units[unit_id]
            representative = sorted(names)[0]
            token = self._next_token()
            email = compose_notification(representative, token)
            self.tracking.register(token, representative)
            record = NotificationRecord(
                unit_id=unit_id,
                domain=representative,
                covered_domains=sorted(names),
                email=email,
                delivered=unit.accepts_postmaster,
            )
            report.records.append(record)
            if record.delivered:
                self._schedule_open(record, unit, when)
        return report

    def _schedule_open(
        self, record: NotificationRecord, unit: HostingUnit, sent_at: _dt.datetime
    ) -> None:
        if not self._rng.bernoulli(self.open_probability):
            return
        delay_days = self._rng.exponential_days(self.mean_open_delay_days)
        open_at = sent_at + _dt.timedelta(days=delay_days)
        if open_at >= PUBLIC_DISCLOSURE:
            # Opens after public disclosure exist but are not part of the
            # paper's between-disclosures funnel; clamp to just before.
            open_at = PUBLIC_DISCLOSURE - _dt.timedelta(days=1)

        def do_open(when: _dt.datetime, record=record, unit=unit) -> None:
            record.opened_at = when
            self.tracking.fetch_pixel(record.email.tracking_token, when)
            # A plan rewrite needs no (re)scheduling: the next touch of
            # any of the unit's servers reads the updated plan.
            self.patch_model.on_notification_opened(unit, when)

        self.clock.schedule(open_at, do_open)
