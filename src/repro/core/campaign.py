"""The full measurement campaign (paper Sections 5.3 and 7).

Timeline (all dates from :mod:`repro.clock`):

- **2021-10-11** — initial measurement of every domain in both sets:
  MX/A resolution, IP deduplication, NoMsg-then-BlankMsg detection;
- **2021-10-26 → 2021-11-30** — first longitudinal window, a round every
  2 days over the vulnerable + re-measurable addresses;
- **2021-11-15** — private notification (via a pluggable notifier);
- **2022-01-15 → 2022-02-14** — second window (public disclosure falls on
  2022-01-19, driven by the patch-behavior model, not the campaign);
- **final snapshot** — re-resolves MX records (catching servers that
  moved) and re-measures every initially vulnerable domain.

The domain→IP mapping is resolved once, before the initial measurement,
and *frozen* for the longitudinal rounds — exactly the paper's
methodology, and the reason its snapshot disagreed slightly with the
longitudinal series for domains that changed MX records mid-campaign.
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from .. import clock as clockmod
from ..clock import SimulatedClock
from ..dns.name import Name
from ..dns.resolver import CachingResolver, StubResolver
from ..dns.server import SpfTestResponder
from ..errors import CampaignError, ResolutionError, SimulationError
from ..exec import (
    ClockRouter,
    ExecutionEnvironment,
    ProbeExecutor,
    ProbeTask,
    RetryPolicy,
)
from ..internet.mta_fleet import MtaFleet
from ..internet.population import Domain, DomainPopulation
from ..smtp.transport import Network
from .detector import (
    DetectionOutcome,
    DetectionResult,
    ProbeMethod,
)
from .ethics import EthicsControls
from .fingerprint import ExpansionBehavior
from .labels import LabelAllocator


class DomainStatus(enum.Enum):
    """Domain-level classification (paper Section 5.1 rules)."""

    VULNERABLE = "vulnerable"
    PATCHED = "patched"
    NOT_VULNERABLE = "not-vulnerable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign-level knobs."""

    base_domain: str = "spf-test.dns-lab.org"
    probe_client_ip: str = "198.51.100.7"
    round_interval: _dt.timedelta = _dt.timedelta(days=2)
    #: Simulated seconds budgeted per probe for clock advancement.
    seconds_per_probe: float = 0.25
    initial_measurement: _dt.datetime = clockmod.INITIAL_MEASUREMENT
    window1_start: _dt.datetime = clockmod.LONGITUDINAL_START
    window1_end: _dt.datetime = clockmod.MEASUREMENTS_PAUSED
    notification_date: _dt.datetime = clockmod.PRIVATE_NOTIFICATION
    window2_start: _dt.datetime = clockmod.MEASUREMENTS_RESUMED
    window2_end: _dt.datetime = clockmod.FINAL_MEASUREMENT


@dataclass
class IpInitialRecord:
    """One address's initial-measurement outcome."""

    ip: str
    result: DetectionResult

    @property
    def outcome(self) -> DetectionOutcome:
        return self.result.outcome

    @property
    def behaviors(self) -> Set[ExpansionBehavior]:
        return self.result.behaviors


@dataclass
class InitialMeasurement:
    """The initial sweep's full results."""

    date: _dt.datetime
    domain_ips: Dict[str, List[str]]  # frozen domain -> address mapping
    ip_records: Dict[str, IpInitialRecord]
    domain_status: Dict[str, DomainStatus]

    def vulnerable_ips(self) -> List[str]:
        return [
            ip
            for ip, record in self.ip_records.items()
            if record.outcome == DetectionOutcome.VULNERABLE
        ]

    def remeasurable_ips(self) -> List[str]:
        """Inconclusive addresses that showed *some* SPF activity."""
        return [
            ip
            for ip, record in self.ip_records.items()
            if not record.outcome.spf_measured
            and record.outcome
            not in (DetectionOutcome.REFUSED,)
            and record.result.queries_observed > 0
        ]

    def vulnerable_domains(self) -> List[str]:
        return [
            name
            for name, status in self.domain_status.items()
            if status == DomainStatus.VULNERABLE
        ]


@dataclass
class MeasurementRound:
    """One longitudinal round over the tracked addresses."""

    date: _dt.datetime
    results: Dict[str, DetectionOutcome]
    methods: Dict[str, Optional[ProbeMethod]] = field(default_factory=dict)


@dataclass
class CampaignResult:
    """Everything a full campaign produced."""

    initial: InitialMeasurement
    rounds: List[MeasurementRound]
    snapshot_status: Dict[str, DomainStatus]
    snapshot_date: Optional[_dt.datetime] = None
    notification_report: Optional[object] = None


#: Called at the notification date with the measured-vulnerable domains.
NotifierFn = Callable[[Sequence[str], _dt.datetime], object]


class MeasurementCampaign:
    """Drives the whole measurement against a generated Internet."""

    def __init__(
        self,
        population: DomainPopulation,
        fleet: MtaFleet,
        *,
        config: Optional[CampaignConfig] = None,
        clock: Optional[SimulatedClock] = None,
        notifier: Optional[NotifierFn] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.population = population
        self.fleet = fleet
        self.config = config or CampaignConfig()
        self.clock = clock or SimulatedClock(start=self.config.initial_measurement)
        self.notifier = notifier

        base = Name.from_text(self.config.base_domain)
        self.responder = SpfTestResponder(base)
        # Every time read below the campaign goes through the router, so
        # probes observe their task's virtual timeslot (see repro.exec).
        self.clock_router = ClockRouter(self.clock)
        self.resolver = CachingResolver(clock=self.clock_router)
        self.resolver.register(base, self.responder)
        self.resolver.register(Name.root(), self.fleet.dns_backend)

        self.network: Network = fleet.build_network(self.clock_router, self.resolver)
        self.labels = LabelAllocator(base)
        self.ethics = EthicsControls()
        self._stub = StubResolver(
            self.resolver, identity="measurement", clock=self.clock_router
        )
        self.env = ExecutionEnvironment(
            clock=self.clock,
            network=self.network,
            responder=self.responder,
            labels=self.labels,
            ethics=self.ethics,
            client_ip=self.config.probe_client_ip,
            seconds_per_probe=self.config.seconds_per_probe,
            router=self.clock_router,
        )
        self.executor = ProbeExecutor(self.env, retry=retry)
        #: preferred probe method per address, learned at initial time.
        self._preferred: Dict[str, ProbeMethod] = {}
        #: a representative hosted domain per address (RCPT TO targets).
        self._ip_domain: Dict[str, str] = {}
        self.initial: Optional[InitialMeasurement] = None
        #: longitudinal rounds completed so far, in schedule order.
        self.rounds: List[MeasurementRound] = []
        #: what the notifier returned (``None`` until it has run).
        self.notification_report: Optional[object] = None
        #: virtual instant at which the notifier ran (``None`` until it
        #: has); checkpoints persist it so a resume can replay the
        #: notification at the exact clock reading the original run used.
        self._notified_clock: Optional[_dt.datetime] = None

    @property
    def notified(self) -> bool:
        """Whether the private notification has gone out."""
        return self._notified_clock is not None

    # -- resolution -----------------------------------------------------------

    def resolve_domain_ips(self, domains: Optional[Sequence[Domain]] = None) -> Dict[str, List[str]]:
        """MX → A resolution for every domain (RFC 5321 target selection)."""
        mapping: Dict[str, List[str]] = {}
        for domain in domains if domains is not None else self.population.domains:
            mapping[domain.name] = self._resolve_one(domain.name)
        return mapping

    def _resolve_one(self, domain_name: str) -> List[str]:
        try:
            exchanges = self._stub.get_mx(domain_name)
            if exchanges:
                addresses: List[str] = []
                for _, exchange in exchanges:
                    addresses.extend(
                        str(a) for a in self._stub.get_addresses(exchange, want_ipv6=False)
                    )
                return addresses
            # No MX: fall back to the domain's own A record (RFC 5321).
            return [
                str(a) for a in self._stub.get_addresses(domain_name, want_ipv6=False)
            ]
        except ResolutionError:
            return []

    def resolve_ips(self, domain_name: str) -> List[str]:
        """Public single-domain MX→A resolution (RFC 5321 target selection).

        The same resolution path :meth:`run_initial` and the final
        snapshot use, so API/daemon callers and batch runs agree on a
        domain's address list.
        """
        return self._resolve_one(domain_name)

    def recipient_domain(self, ip: str, default: Optional[str] = None) -> Optional[str]:
        """The representative hosted domain used as an address's RCPT TO
        target (learned at initial-measurement time), or ``default``."""
        return self._ip_domain.get(ip, default)

    # -- probe dispatch ------------------------------------------------------------

    def probe_ips(
        self,
        stage: str,
        ips: Sequence[str],
        *,
        use_preferred: bool = True,
        recipient_domains: Optional[Dict[str, str]] = None,
    ) -> Dict[str, DetectionResult]:
        """Run one stage's work list through the execution engine.

        This is the single home of the measurement loops' bookkeeping:
        suite allocation, preferred-method learning, and per-probe clock
        advancement (the executor's clock-advance protocol).  The batch
        stages, :class:`repro.api.RunHandle` and the serve daemon all
        dispatch here, so they produce byte-identical task trace events
        for the same probes.
        """
        suite = self.labels.new_suite()
        recipients = recipient_domains if recipient_domains is not None else self._ip_domain
        tasks = [
            ProbeTask(
                ip=ip,
                suite=suite,
                preferred_method=self._preferred.get(ip) if use_preferred else None,
                recipient_domain=recipients.get(ip),
            )
            for ip in ips
        ]
        results = self.executor.run_stage(stage, tasks)
        out: Dict[str, DetectionResult] = {}
        for task, result in zip(tasks, results):
            if result.successful_method is not None:
                self._preferred[task.ip] = result.successful_method
            out[task.ip] = result
        return out

    def _require_initial(self) -> InitialMeasurement:
        if self.initial is None:
            raise CampaignError(
                "the initial measurement has not run yet — call run_initial() "
                "(or run()) before longitudinal rounds or the final snapshot"
            )
        return self.initial

    # -- initial measurement ------------------------------------------------------

    def run_initial(self) -> InitialMeasurement:
        """The 2021-10-11 sweep over both domain sets."""
        self.clock.advance_to(max(self.clock.now, self.config.initial_measurement))
        domain_ips = self.resolve_domain_ips()

        unique_ips: List[str] = []
        seen: Set[str] = set()
        for name, ips in domain_ips.items():
            for ip in ips:
                if ip not in seen:
                    seen.add(ip)
                    unique_ips.append(ip)
                    self._ip_domain[ip] = name

        results = self.probe_ips("initial", unique_ips)
        ip_records = {
            ip: IpInitialRecord(ip=ip, result=result)
            for ip, result in results.items()
        }

        domain_status = {
            name: self._domain_status_from_ips(ips, ip_records)
            for name, ips in domain_ips.items()
        }
        self.initial = InitialMeasurement(
            date=self.config.initial_measurement,
            domain_ips=domain_ips,
            ip_records=ip_records,
            domain_status=domain_status,
        )
        return self.initial

    @staticmethod
    def _domain_status_from_ips(
        ips: List[str], records: Dict[str, IpInitialRecord]
    ) -> DomainStatus:
        """A domain is vulnerable if *any* of its addresses is."""
        outcomes = [records[ip].outcome for ip in ips if ip in records]
        if any(o == DetectionOutcome.VULNERABLE for o in outcomes):
            return DomainStatus.VULNERABLE
        if any(o.spf_measured for o in outcomes):
            return DomainStatus.NOT_VULNERABLE
        return DomainStatus.UNKNOWN

    # -- longitudinal rounds ------------------------------------------------------

    def tracked_ips(self) -> List[str]:
        """Addresses contacted after the initial sweep (Section 6.1)."""
        initial = self._require_initial()
        return initial.vulnerable_ips() + initial.remeasurable_ips()

    def run_round(self, date: _dt.datetime, tracked: Sequence[str]) -> MeasurementRound:
        """One longitudinal measurement round."""
        self.clock.advance_to(max(self.clock.now, date))
        self.ethics.reset_round()
        probe_results = self.probe_ips(f"round {date.date().isoformat()}", tracked)
        results = {ip: r.outcome for ip, r in probe_results.items()}
        methods = {ip: r.successful_method for ip, r in probe_results.items()}
        return MeasurementRound(date=date, results=results, methods=methods)

    def round_dates(self) -> List[_dt.datetime]:
        """Every scheduled longitudinal round date (both windows)."""
        dates: List[_dt.datetime] = []
        for start, end in (
            (self.config.window1_start, self.config.window1_end),
            (self.config.window2_start, self.config.window2_end),
        ):
            current = start
            while current <= end:
                dates.append(current)
                current += self.config.round_interval
        return dates

    def advance_rounds(
        self, count: Optional[int] = None, *, store=None
    ) -> List[MeasurementRound]:
        """Run the next ``count`` scheduled rounds (all remaining if None).

        The one loop over the timeline: batch runs, resumed runs and
        :meth:`repro.api.RunHandle.advance_rounds` all come through
        here, so the notifier fires before the first round dated on or
        after the notification date however the rounds are driven.
        ``store`` is an optional checkpoint writer (duck-typed:
        ``after_round(campaign)``, see
        :class:`repro.store.CheckpointWriter`), invoked after every
        completed round.  Returns the rounds this call completed; a
        negative ``count`` is a :class:`SimulationError` (0 runs none).
        """
        if count is not None and count < 0:
            raise SimulationError(
                f"cannot advance {count} rounds: count must be >= 0"
            )
        initial = self._require_initial()
        tracked = self.tracked_ips()
        done = len(self.rounds)
        dates = self.round_dates()[done:]
        if count is not None:
            dates = dates[:count]
        for date in dates:
            if (
                not self.notified
                and self.notifier is not None
                and date >= self.config.notification_date
            ):
                self.clock.advance_to(max(self.clock.now, self.config.notification_date))
                self._notified_clock = self.clock.now
                self.notification_report = self.notifier(
                    initial.vulnerable_domains(), self.config.notification_date
                )
            self.rounds.append(self.run_round(date, tracked))
            if store is not None:
                store.after_round(self)
        return self.rounds[done:]

    # -- full run -----------------------------------------------------------------

    def run(self, *, store=None) -> CampaignResult:
        """Execute the rest of the campaign timeline, then the snapshot.

        A fresh campaign starts with the initial sweep; one that already
        ran it (and perhaps some rounds, or was restored from a
        checkpoint) continues with the remaining rounds.  ``store`` is
        an optional checkpoint writer (duck-typed: ``after_initial`` /
        ``after_round``, see :class:`repro.store.CheckpointWriter`); it
        is invoked after the initial sweep and after every completed
        round, so a killed run can be resumed.
        """
        if self.initial is None:
            self.run_initial()
            if store is not None:
                store.after_initial(self)
        self.advance_rounds(store=store)
        snapshot_date = self.config.window2_end
        return CampaignResult(
            initial=self.initial,
            rounds=list(self.rounds),
            snapshot_status=self.run_snapshot(snapshot_date),
            snapshot_date=snapshot_date,
            notification_report=self.notification_report,
        )

    # -- final snapshot --------------------------------------------------------------

    def run_snapshot(self, date: _dt.datetime) -> Dict[str, DomainStatus]:
        """Re-resolve MX records and re-measure initially vulnerable domains.

        Fresh resolution picks up servers that moved mid-campaign, which
        is why the paper's snapshot concluded on domains the longitudinal
        series had lost (Section 7.2).
        """
        initial = self._require_initial()
        self.clock.advance_to(max(self.clock.now, date))
        self.resolver.flush()  # pick up moved MX/A data
        vulnerable = initial.vulnerable_domains()

        # Fresh resolution first; duplicate addresses are probed once.
        domain_ips: Dict[str, List[str]] = {}
        unique_ips: List[str] = []
        recipients: Dict[str, str] = {}
        for name in vulnerable:
            ips = self._resolve_one(name)
            domain_ips[name] = ips
            for ip in ips:
                if ip not in recipients:
                    recipients[ip] = self._ip_domain.get(ip, name)
                    unique_ips.append(ip)

        results = self.probe_ips(
            "snapshot", unique_ips, recipient_domains=recipients
        )
        return {
            name: self._snapshot_status([results[ip].outcome for ip in ips])
            for name, ips in domain_ips.items()
        }

    @staticmethod
    def _snapshot_status(outcomes: List[DetectionOutcome]) -> DomainStatus:
        if any(o == DetectionOutcome.VULNERABLE for o in outcomes):
            return DomainStatus.VULNERABLE
        if any(o.spf_measured for o in outcomes):
            return DomainStatus.PATCHED  # conclusive and none vulnerable
        return DomainStatus.UNKNOWN
