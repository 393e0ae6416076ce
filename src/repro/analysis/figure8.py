"""Figure 8 — conclusive results over time, Alexa Top 1000 only.

The paper's most prominent outlier: 28 of the top 1000 domains were
initially vulnerable, conclusive measurements for many of them dried up
around mid-November (blacklisting/moves), the longitudinal series showed
no patching at all, and only the final snapshot — with freshly resolved
addresses — could settle most of them (a handful patched).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.campaign import DomainStatus
from ..core.inference import RoundSummary
from ..internet.population import DomainSet
from ..simulation import Simulation
from .formatting import render_table
from .status import vulnerable_in_set


@dataclass
class Figure8:
    series: List[RoundSummary]
    initially_vulnerable: int
    snapshot_patched: int
    snapshot_vulnerable: int
    snapshot_unknown: int


def build_figure8(sim: Simulation) -> Figure8:
    result = sim.run()
    engine = sim.inference()
    names = vulnerable_in_set(sim, DomainSet.ALEXA_1000)
    series = engine.round_summaries_domains(names)
    snapshot = {name: result.snapshot_status.get(name) for name in names}
    return Figure8(
        series=series,
        initially_vulnerable=len(names),
        snapshot_patched=sum(1 for s in snapshot.values() if s == DomainStatus.PATCHED),
        snapshot_vulnerable=sum(
            1 for s in snapshot.values() if s == DomainStatus.VULNERABLE
        ),
        snapshot_unknown=sum(
            1
            for s in snapshot.values()
            if s not in (DomainStatus.PATCHED, DomainStatus.VULNERABLE)
        ),
    )


def render_figure8(figure: Figure8) -> str:
    headers = ["Date", "Measured", "Inferred", "Inconclusive", "Vulnerable", "Patched"]
    body = [
        [
            s.date.date().isoformat(),
            f"{s.measured:,}",
            f"{s.inferred:,}",
            f"{s.inconclusive:,}",
            f"{s.vulnerable:,}",
            f"{s.patched:,}",
        ]
        for s in figure.series
    ]
    rendered = render_table(
        headers,
        body,
        title="Figure 8: Conclusive results over time (Alexa Top 1000)",
    )
    return rendered + (
        f"\nInitially vulnerable top-1000 domains: {figure.initially_vulnerable}"
        f"\nFinal snapshot: {figure.snapshot_patched} patched, "
        f"{figure.snapshot_vulnerable} vulnerable, {figure.snapshot_unknown} unknown"
    )
