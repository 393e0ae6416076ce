"""The paper's reported values, encoded as comparison targets.

Each target carries the value the paper reports, the tolerance band a
simulated reproduction is expected to land in (the substrate is a
simulator, so *shape* is the contract, not digits), and where in the
paper it comes from.  A target measures a run through the artifacts
built from it (:class:`repro.analysis.BuiltArtifacts`), so the report
scores every claim from the same tables and figures it prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..simulation import Simulation
from . import BuiltArtifacts


@dataclass(frozen=True)
class PaperTarget:
    """One checkable claim from the paper."""

    key: str
    description: str
    paper_value: float
    band: Tuple[float, float]  # acceptable simulated range
    source: str  # table/figure/section
    #: Extracts the measured value from a completed run's artifacts.
    measure: Callable[[BuiltArtifacts], Optional[float]]

    def evaluate(self, built: BuiltArtifacts) -> "TargetResult":
        measured = self.measure(built)
        if measured is None:
            return TargetResult(self, None, False)
        low, high = self.band
        return TargetResult(self, measured, low <= measured <= high)


@dataclass(frozen=True)
class TargetResult:
    target: PaperTarget
    measured: Optional[float]
    within_band: bool


def _vulnerable_ip_share(built: BuiltArtifacts) -> Optional[float]:
    combined = built["table4"][-1]
    if not combined.ips_measured:
        return None
    return combined.ips_vulnerable / combined.ips_measured


def _erroneous_ip_share(built: BuiltArtifacts) -> Optional[float]:
    combined = built["table4"][-1]
    if not combined.ips_measured:
        return None
    return (combined.ips_vulnerable + combined.ips_erroneous) / combined.ips_measured


def _vulnerable_domain_share(built: BuiltArtifacts) -> Optional[float]:
    alexa = built["table4"][0]
    if not alexa.domains_measured:
        return None
    return alexa.domains_vulnerable / alexa.domains_measured


def _measured_ip_share_alexa(built: BuiltArtifacts) -> Optional[float]:
    alexa = built["table3"][0]
    return alexa.addresses.total_measured / alexa.addresses.total


def _measured_domain_share_alexa(built: BuiltArtifacts) -> Optional[float]:
    alexa = built["table3"][0]
    return alexa.domains.total_measured / alexa.domains.total


def _refused_ip_share_alexa(built: BuiltArtifacts) -> Optional[float]:
    alexa = built["table3"][0]
    return alexa.addresses.refused / alexa.addresses.total


def _still_vulnerable(built: BuiltArtifacts) -> Optional[float]:
    return built["figure7"].final_vulnerable_fraction()


def _patched_domain_share(built: BuiltArtifacts) -> Optional[float]:
    rows = built["figure2"]
    return rows[0].patched_fraction if rows[0].total else None


def _bounce_rate(built: BuiltArtifacts) -> Optional[float]:
    report = built.sim.notification_report
    if report is None or not report.sent:
        return None
    return report.bounced / report.sent


def _open_rate(built: BuiltArtifacts) -> Optional[float]:
    report = built.sim.notification_report
    if report is None or not report.delivered:
        return None
    return report.opened / report.delivered


def _multi_pattern_share(built: BuiltArtifacts) -> Optional[float]:
    table = built["table7"]
    if not table.total_measured:
        return None
    return table.multiple_patterns / table.total_measured


PAPER_TARGETS: List[PaperTarget] = [
    PaperTarget(
        key="vulnerable-ip-share",
        description="vulnerable share of SPF-measured addresses (combined)",
        paper_value=0.173,
        band=(0.10, 0.28),
        source="Table 4 / §7.1 ('1 in every 6')",
        measure=_vulnerable_ip_share,
    ),
    PaperTarget(
        key="erroneous-ip-share",
        description="addresses mis-expanding macros in any way",
        paper_value=0.24,
        band=(0.12, 0.38),
        source="§7.1 ('close to a quarter')",
        measure=_erroneous_ip_share,
    ),
    PaperTarget(
        key="vulnerable-domain-share",
        description="vulnerable share of SPF-measured Alexa domains",
        paper_value=0.087,
        band=(0.03, 0.16),
        source="§8 (18,733 of 214,802)",
        measure=_vulnerable_domain_share,
    ),
    PaperTarget(
        key="refused-ip-share-alexa",
        description="Alexa addresses refusing TCP connections",
        paper_value=0.47,
        band=(0.37, 0.57),
        source="Table 3",
        measure=_refused_ip_share_alexa,
    ),
    PaperTarget(
        key="measured-ip-share-alexa",
        description="Alexa addresses conclusively SPF-measured",
        paper_value=0.23,
        band=(0.13, 0.33),
        source="Table 3",
        measure=_measured_ip_share_alexa,
    ),
    PaperTarget(
        key="measured-domain-share-alexa",
        description="Alexa domains conclusively SPF-measured",
        paper_value=0.48,
        band=(0.35, 0.60),
        source="Table 3",
        measure=_measured_domain_share_alexa,
    ),
    PaperTarget(
        key="still-vulnerable-at-end",
        description="inferable domains still vulnerable at study end",
        paper_value=0.80,
        band=(0.62, 0.95),
        source="Figure 7 / §7.6",
        measure=_still_vulnerable,
    ),
    PaperTarget(
        key="patched-domain-share",
        description="initially vulnerable domains patched by February",
        paper_value=0.15,
        band=(0.04, 0.30),
        source="Figure 2 / §7.2",
        measure=_patched_domain_share,
    ),
    PaperTarget(
        key="notification-bounce-rate",
        description="private notifications returned undelivered",
        paper_value=0.316,
        band=(0.18, 0.45),
        source="§7.7",
        measure=_bounce_rate,
    ),
    PaperTarget(
        key="notification-open-rate",
        description="delivered notifications opened (pixel lower bound)",
        paper_value=0.12,
        band=(0.03, 0.28),
        source="§7.7",
        measure=_open_rate,
    ),
    PaperTarget(
        key="multi-pattern-share",
        description="measured addresses showing 2+ expansion patterns",
        paper_value=0.06,
        band=(0.01, 0.14),
        source="§7.9",
        measure=_multi_pattern_share,
    ),
]


def score_targets(built: BuiltArtifacts) -> List[TargetResult]:
    """Check every encoded paper claim against one run's built artifacts."""
    return [target.evaluate(built) for target in PAPER_TARGETS]


def evaluate_targets(sim: Simulation) -> List[TargetResult]:
    """Check every encoded paper claim against a completed run."""
    return score_targets(BuiltArtifacts(sim))
