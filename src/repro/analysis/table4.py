"""Table 4 — initial SPF results breakdown.

Among conclusively SPF-measured addresses (and their domains), how many
ran vulnerable libSPF2, how many mis-expanded macros in other ways, and
how many were RFC-compliant.  The paper's headline: ~1 in 6 measured
Alexa addresses vulnerable, ~1 in 10 for the 2-Week MX set, with roughly
a quarter / a sixth expanding macros incorrectly in some way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from ..core.campaign import DomainStatus, InitialMeasurement
from ..core.detector import DetectionOutcome
from ..internet.population import DomainPopulation, DomainSet
from .formatting import count_pct, render_table

_GROUPS: Tuple[Tuple[str, DomainSet], ...] = (
    ("Alexa Top List", DomainSet.ALEXA_TOP_LIST),
    ("2-Week MX", DomainSet.TWO_WEEK_MX),
)


@dataclass
class Table4Row:
    group: str
    #: address-level counts
    ips_measured: int
    ips_vulnerable: int
    ips_erroneous: int  # erroneous but not vulnerable
    ips_compliant: int
    #: domain-level counts
    domains_measured: int
    domains_vulnerable: int


def _group_ips(initial: InitialMeasurement, names: Sequence[str]) -> List[str]:
    ips: List[str] = []
    seen: Set[str] = set()
    for name in names:
        for ip in initial.domain_ips.get(name, []):
            if ip not in seen:
                seen.add(ip)
                ips.append(ip)
    return ips


def build_table4(
    population: DomainPopulation, initial: InitialMeasurement
) -> List[Table4Row]:
    rows: List[Table4Row] = []
    groups = list(_GROUPS) + [("Combined", DomainSet.ALEXA_TOP_LIST | DomainSet.TWO_WEEK_MX)]
    for group_name, domain_set in groups:
        names = population.names_in_set(domain_set)
        ips = _group_ips(initial, names)
        measured = [
            ip for ip in ips if initial.ip_records[ip].outcome.spf_measured
        ]
        vulnerable = [
            ip
            for ip in measured
            if initial.ip_records[ip].outcome == DetectionOutcome.VULNERABLE
        ]
        erroneous = [
            ip
            for ip in measured
            if initial.ip_records[ip].outcome == DetectionOutcome.ERRONEOUS
        ]
        domains_measured = sum(
            1
            for name in names
            if initial.domain_status.get(name)
            in (DomainStatus.VULNERABLE, DomainStatus.NOT_VULNERABLE)
        )
        domains_vulnerable = sum(
            1
            for name in names
            if initial.domain_status.get(name) == DomainStatus.VULNERABLE
        )
        rows.append(
            Table4Row(
                group=group_name,
                ips_measured=len(measured),
                ips_vulnerable=len(vulnerable),
                ips_erroneous=len(erroneous),
                ips_compliant=len(measured) - len(vulnerable) - len(erroneous),
                domains_measured=domains_measured,
                domains_vulnerable=domains_vulnerable,
            )
        )
    return rows


def render_table4(rows: List[Table4Row]) -> str:
    headers = [
        "Group",
        "IPs measured",
        "Vulnerable",
        "Erroneous*",
        "Compliant",
        "Domains measured",
        "Domains vulnerable",
    ]
    body = [
        [
            r.group,
            f"{r.ips_measured:,}",
            count_pct(r.ips_vulnerable, r.ips_measured),
            count_pct(r.ips_erroneous, r.ips_measured),
            count_pct(r.ips_compliant, r.ips_measured),
            f"{r.domains_measured:,}",
            count_pct(r.domains_vulnerable, r.domains_measured),
        ]
        for r in rows
    ]
    table = render_table(headers, body, title="Table 4: SPF initial results breakdown")
    return table + "\n*Erroneous macro expansion, but not vulnerable"
