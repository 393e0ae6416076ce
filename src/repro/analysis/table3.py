"""Table 3 — NoMsg/BlankMsg test outcomes by domain set.

The buckets, per the paper's accounting (disjoint within each test):

- **Connection Refused** — the address accepted no TCP connection;
- **NoMsg Test** — everything that connected;

  - *SMTP Failure* — the dialogue broke without SPF evidence,
  - *SPF Measured* — conclusive macro-expansion queries observed,
  - *SPF Not Measured* — dialogue fine, no SPF activity;
- **BlankMsg Test** — the SPF-Not-Measured remainder, re-probed with an
  empty message, with the same three sub-buckets;
- **Total SPF Measured** — conclusive from either test.

Domain-level counts aggregate over each domain's addresses: a domain is
refused only if *all* its addresses refused, and measured if *any* was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.campaign import InitialMeasurement
from ..core.detector import DetectionOutcome, ProbeMethod
from ..internet.population import DomainPopulation, DomainSet
from .formatting import count_pct, render_table

_GROUPS: Tuple[Tuple[str, DomainSet], ...] = (
    ("Alexa Top List", DomainSet.ALEXA_TOP_LIST),
    ("2-Week MX", DomainSet.TWO_WEEK_MX),
    ("Top Email Providers", DomainSet.TOP_EMAIL_PROVIDERS),
)


@dataclass
class OutcomeBuckets:
    """One unit of Table 3 accounting (addresses or domains)."""

    total: int = 0
    refused: int = 0
    nomsg_tested: int = 0
    nomsg_failure: int = 0
    nomsg_measured: int = 0
    nomsg_not_measured: int = 0
    blankmsg_tested: int = 0
    blankmsg_failure: int = 0
    blankmsg_measured: int = 0
    blankmsg_not_measured: int = 0
    total_measured: int = 0


@dataclass
class Table3Column:
    group: str
    addresses: OutcomeBuckets
    domains: OutcomeBuckets


def _ip_buckets(initial: InitialMeasurement, ips: Sequence[str]) -> OutcomeBuckets:
    buckets = OutcomeBuckets(total=len(ips))
    for ip in ips:
        record = initial.ip_records.get(ip)
        if record is None:
            continue
        outcome = record.outcome
        nomsg = record.result.method_outcomes.get(ProbeMethod.NOMSG)
        blankmsg = record.result.method_outcomes.get(ProbeMethod.BLANKMSG)
        if outcome == DetectionOutcome.REFUSED:
            buckets.refused += 1
            continue
        buckets.nomsg_tested += 1
        if nomsg is not None and nomsg.spf_measured:
            buckets.nomsg_measured += 1
        elif nomsg == DetectionOutcome.NO_SPF:
            buckets.nomsg_not_measured += 1
        else:
            buckets.nomsg_failure += 1
            continue
        if nomsg == DetectionOutcome.NO_SPF:
            buckets.blankmsg_tested += 1
            if blankmsg is not None and blankmsg.spf_measured:
                buckets.blankmsg_measured += 1
            elif blankmsg == DetectionOutcome.NO_SPF or blankmsg is None:
                buckets.blankmsg_not_measured += 1
            else:
                buckets.blankmsg_failure += 1
    buckets.total_measured = buckets.nomsg_measured + buckets.blankmsg_measured
    return buckets


def _domain_buckets(
    initial: InitialMeasurement, names: Sequence[str]
) -> OutcomeBuckets:
    buckets = OutcomeBuckets(total=len(names))
    for name in names:
        ips = initial.domain_ips.get(name, [])
        records = [initial.ip_records[ip] for ip in ips if ip in initial.ip_records]
        if not records:
            buckets.refused += 1
            continue
        outcomes = [r.outcome for r in records]
        if all(o == DetectionOutcome.REFUSED for o in outcomes):
            buckets.refused += 1
            continue
        buckets.nomsg_tested += 1
        nomsgs = [
            r.result.method_outcomes.get(ProbeMethod.NOMSG)
            for r in records
            if r.outcome != DetectionOutcome.REFUSED
        ]
        blanks = [
            r.result.method_outcomes.get(ProbeMethod.BLANKMSG) for r in records
        ]
        if any(o is not None and o.spf_measured for o in nomsgs):
            buckets.nomsg_measured += 1
        elif any(o == DetectionOutcome.NO_SPF for o in nomsgs):
            buckets.nomsg_not_measured += 1
        else:
            buckets.nomsg_failure += 1
            continue
        if any(o == DetectionOutcome.NO_SPF for o in nomsgs):
            buckets.blankmsg_tested += 1
            if any(o is not None and o.spf_measured for o in blanks):
                buckets.blankmsg_measured += 1
            elif all(o is None or o == DetectionOutcome.NO_SPF for o in blanks):
                buckets.blankmsg_not_measured += 1
            else:
                buckets.blankmsg_failure += 1
        if any(
            r.outcome.spf_measured for r in records
        ):
            buckets.total_measured += 1
    return buckets


def build_table3(
    population: DomainPopulation, initial: InitialMeasurement
) -> List[Table3Column]:
    columns: List[Table3Column] = []
    for group_name, domain_set in _GROUPS:
        names = population.names_in_set(domain_set)
        ip_set: List[str] = []
        seen: Set[str] = set()
        for name in names:
            for ip in initial.domain_ips.get(name, []):
                if ip not in seen:
                    seen.add(ip)
                    ip_set.append(ip)
        columns.append(
            Table3Column(
                group=group_name,
                addresses=_ip_buckets(initial, ip_set),
                domains=_domain_buckets(initial, names),
            )
        )
    return columns


_ROWS: Tuple[Tuple[str, str, str], ...] = (
    # (label, attribute, denominator attribute)
    ("Total Tested", "total", "total"),
    ("Connection Refused", "refused", "total"),
    ("NoMsg Test", "nomsg_tested", "total"),
    ("  SMTP Failure", "nomsg_failure", "nomsg_tested"),
    ("  SPF Measured", "nomsg_measured", "nomsg_tested"),
    ("  SPF Not Measured", "nomsg_not_measured", "nomsg_tested"),
    ("BlankMsg Test", "blankmsg_tested", "total"),
    ("  SMTP Failure", "blankmsg_failure", "blankmsg_tested"),
    ("  SPF Measured", "blankmsg_measured", "blankmsg_tested"),
    ("  SPF Not Measured", "blankmsg_not_measured", "blankmsg_tested"),
    ("Total SPF Measured", "total_measured", "total"),
)


def render_table3(columns: List[Table3Column]) -> str:
    headers = [""]
    for column in columns:
        headers.extend([f"{column.group} domains", f"{column.group} addrs"])
    body: List[List[str]] = []
    for label, attribute, denominator in _ROWS:
        row = [label]
        for column in columns:
            for buckets in (column.domains, column.addresses):
                row.append(
                    count_pct(
                        getattr(buckets, attribute), getattr(buckets, denominator)
                    )
                )
        body.append(row)
    return render_table(
        headers, body, title="Table 3: NoMsg/BlankMsg test outcomes by domain set"
    )
