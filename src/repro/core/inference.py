"""Inference rules for rounds with missing results (paper Section 7.6).

Not every tracked address answers every round (blacklisting, moves,
outages).  The paper bridges the gaps with two rules, both resting on the
assumption that MTAs do not regress after patching:

1. an address measured **vulnerable** at time *t* is inferred vulnerable
   for every time before *t* (back to the start of measurements);
2. an address measured **patched** at time *t* is inferred patched for
   every time after *t*.

Rounds where neither measurement nor inference applies are inconclusive.
Domain-level status aggregates over the domain's initially vulnerable
addresses: vulnerable while any is vulnerable, patched when all are.

An engine answers each (address, date) and (domain, date) query once:
the first query at a date fills that date's row for every tracked
address or domain, and every later query and round summary reads it.
"""

from __future__ import annotations

import datetime as _dt
import enum
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .campaign import InitialMeasurement, MeasurementRound
from .detector import DetectionOutcome


class InferredStatus(enum.Enum):
    VULNERABLE = "vulnerable"
    PATCHED = "patched"
    INCONCLUSIVE = "inconclusive"


class Provenance(enum.Enum):
    MEASURED = "measured"
    INFERRED = "inferred"
    NONE = "none"


#: Every (status, provenance) answer a query can give; an engine's rows
#: hold the index into this tuple.
_ANSWERS: Tuple[Tuple[InferredStatus, Provenance], ...] = (
    (InferredStatus.VULNERABLE, Provenance.MEASURED),
    (InferredStatus.VULNERABLE, Provenance.INFERRED),
    (InferredStatus.PATCHED, Provenance.MEASURED),
    (InferredStatus.PATCHED, Provenance.INFERRED),
    (InferredStatus.INCONCLUSIVE, Provenance.NONE),
)
_ANSWER_CODE = {answer: code for code, answer in enumerate(_ANSWERS)}
(
    _VULNERABLE_MEASURED,
    _VULNERABLE_INFERRED,
    _PATCHED_MEASURED,
    _PATCHED_INFERRED,
    _INCONCLUSIVE,
) = range(len(_ANSWERS))


@dataclass
class IpTimeline:
    """One address's observation history and inference bounds."""

    ip: str
    observations: List[Tuple[_dt.datetime, DetectionOutcome]] = field(default_factory=list)
    last_vulnerable: Optional[_dt.datetime] = None
    first_patched: Optional[_dt.datetime] = None
    #: date → the first outcome observed at it (what :meth:`status_at` reads).
    _measured: Dict[_dt.datetime, DetectionOutcome] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for date, outcome in self.observations:
            self._measured.setdefault(date, outcome)

    def observe(self, date: _dt.datetime, outcome: DetectionOutcome) -> None:
        self.observations.append((date, outcome))
        self._measured.setdefault(date, outcome)
        if outcome == DetectionOutcome.VULNERABLE:
            if self.last_vulnerable is None or date > self.last_vulnerable:
                self.last_vulnerable = date
        elif outcome.spf_measured:  # compliant or erroneous-non-vulnerable
            if self.first_patched is None or date < self.first_patched:
                self.first_patched = date

    def status_at(self, date: _dt.datetime) -> Tuple[InferredStatus, Provenance]:
        """Status and how we know it, at one instant."""
        measured = self._measured.get(date)
        if measured is not None and measured.spf_measured:
            status = (
                InferredStatus.VULNERABLE
                if measured == DetectionOutcome.VULNERABLE
                else InferredStatus.PATCHED
            )
            return status, Provenance.MEASURED
        if self.last_vulnerable is not None and date <= self.last_vulnerable:
            return InferredStatus.VULNERABLE, Provenance.INFERRED
        if self.first_patched is not None and date >= self.first_patched:
            return InferredStatus.PATCHED, Provenance.INFERRED
        return InferredStatus.INCONCLUSIVE, Provenance.NONE


@dataclass
class RoundSummary:
    """Aggregated counts for one round date (Figures 5-8 series)."""

    date: _dt.datetime
    total: int
    measured: int
    inferred: int
    inconclusive: int
    vulnerable: int
    patched: int

    @property
    def conclusive(self) -> int:
        return self.measured + self.inferred

    @property
    def vulnerable_fraction(self) -> float:
        """Vulnerable share among status-determinable items."""
        determinable = self.vulnerable + self.patched
        return self.vulnerable / determinable if determinable else 0.0


class InferenceEngine:
    """Builds timelines from campaign output and answers status queries."""

    def __init__(
        self,
        initial: InitialMeasurement,
        rounds: Sequence[MeasurementRound],
    ) -> None:
        self.initial = initial
        self.rounds = list(rounds)
        self.timelines: Dict[str, IpTimeline] = {}

        for ip in initial.vulnerable_ips():
            timeline = IpTimeline(ip=ip)
            timeline.observe(initial.date, DetectionOutcome.VULNERABLE)
            self.timelines[ip] = timeline

        for round_ in self.rounds:
            for ip, outcome in round_.results.items():
                if ip in self.timelines:
                    self.timelines[ip].observe(round_.date, outcome)

        #: initially vulnerable domains → their initially vulnerable IPs.
        self.domain_vulnerable_ips: Dict[str, List[str]] = {}
        vulnerable_ip_set = set(self.timelines)
        for name in initial.vulnerable_domains():
            self.domain_vulnerable_ips[name] = [
                ip for ip in initial.domain_ips.get(name, []) if ip in vulnerable_ip_set
            ]
        #: date → answer code per tracked address / initially vulnerable domain.
        self._ip_rows: Dict[_dt.datetime, Dict[str, int]] = {}
        self._domain_rows: Dict[_dt.datetime, Dict[str, int]] = {}

    # -- status rows ----------------------------------------------------------------

    def _ip_row(self, date: _dt.datetime) -> Dict[str, int]:
        """Every tracked address's answer code at ``date``."""
        row = self._ip_rows.get(date)
        if row is None:
            row = self._ip_rows[date] = {
                ip: _ANSWER_CODE[timeline.status_at(date)]
                for ip, timeline in self.timelines.items()
            }
        return row

    def _domain_row(self, date: _dt.datetime) -> Dict[str, int]:
        """Every initially vulnerable domain's answer code at ``date``."""
        row = self._domain_rows.get(date)
        if row is None:
            ip_row = self._ip_row(date)
            row = self._domain_rows[date] = {}
            for name, ips in self.domain_vulnerable_ips.items():
                codes = [ip_row[ip] for ip in ips]
                if _VULNERABLE_MEASURED in codes:
                    code = _VULNERABLE_MEASURED
                elif _VULNERABLE_INFERRED in codes:
                    code = _VULNERABLE_INFERRED
                elif not codes or _INCONCLUSIVE in codes:
                    code = _INCONCLUSIVE
                elif _PATCHED_INFERRED in codes:
                    code = _PATCHED_INFERRED
                else:
                    code = _PATCHED_MEASURED
                row[name] = code
        return row

    # -- status queries ---------------------------------------------------------

    def ip_status(self, ip: str, date: _dt.datetime) -> Tuple[InferredStatus, Provenance]:
        return _ANSWERS[self._ip_row(date).get(ip, _INCONCLUSIVE)]

    def domain_status(self, name: str, date: _dt.datetime) -> Tuple[InferredStatus, Provenance]:
        """Vulnerable while any initially vulnerable IP is; patched when
        all are; inconclusive otherwise."""
        return _ANSWERS[self._domain_row(date).get(name, _INCONCLUSIVE)]

    # -- aggregation ----------------------------------------------------------------

    def round_summaries_ips(self) -> List[RoundSummary]:
        return [
            self._summarize(
                round_.date,
                Counter(self._ip_row(round_.date).values()),
                len(self.timelines),
            )
            for round_ in self.rounds
        ]

    def round_summaries_domains(
        self, names: Optional[Iterable[str]] = None
    ) -> List[RoundSummary]:
        domain_names = list(names) if names is not None else list(self.domain_vulnerable_ips)
        summaries = []
        for round_ in self.rounds:
            row = self._domain_row(round_.date)
            codes = Counter(map(row.get, domain_names, repeat(_INCONCLUSIVE)))
            summaries.append(self._summarize(round_.date, codes, len(domain_names)))
        return summaries

    @staticmethod
    def _summarize(
        date: _dt.datetime, codes: Dict[int, int], total: int
    ) -> RoundSummary:
        """One round's counts from how many items got each answer code."""
        vulnerable_measured = codes.get(_VULNERABLE_MEASURED, 0)
        vulnerable_inferred = codes.get(_VULNERABLE_INFERRED, 0)
        patched_measured = codes.get(_PATCHED_MEASURED, 0)
        patched_inferred = codes.get(_PATCHED_INFERRED, 0)
        return RoundSummary(
            date=date,
            total=total,
            measured=vulnerable_measured + patched_measured,
            inferred=vulnerable_inferred + patched_inferred,
            inconclusive=codes.get(_INCONCLUSIVE, 0),
            vulnerable=vulnerable_measured + vulnerable_inferred,
            patched=patched_measured + patched_inferred,
        )
