"""Figure 6 — vulnerability rates per domain list, first window.

For each round of the first measurement window, the share of
status-determinable domains still vulnerable, per domain set.  Expected
shape: the 2-Week MX set sheds ~10% and the Alexa Top List ~4% across
the window, with most of that movement *before* the private notification
(proactive patching).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..clock import MEASUREMENTS_PAUSED, PRIVATE_NOTIFICATION
from ..core.inference import InferenceEngine, RoundSummary
from ..internet.population import DomainSet
from ..simulation import Simulation
from .formatting import render_table
from .status import vulnerable_in_set

_SETS: Tuple[Tuple[str, DomainSet], ...] = (
    ("Alexa Top List", DomainSet.ALEXA_TOP_LIST),
    ("Alexa 1000", DomainSet.ALEXA_1000),
    ("2-Week MX", DomainSet.TWO_WEEK_MX),
)


@dataclass
class VulnerabilitySeries:
    group: str
    points: List[RoundSummary]

    def rate_at(self, index: int) -> float:
        return self.points[index].vulnerable_fraction


@dataclass
class Figure6:
    series: List[VulnerabilitySeries]
    notification_date: _dt.datetime


def _series_for(
    sim: Simulation,
    engine: InferenceEngine,
    cutoff: Optional[_dt.datetime],
) -> List[VulnerabilitySeries]:
    out: List[VulnerabilitySeries] = []
    for group_name, domain_set in _SETS:
        summaries = engine.round_summaries_domains(vulnerable_in_set(sim, domain_set))
        if cutoff is not None:
            summaries = [s for s in summaries if s.date <= cutoff]
        out.append(VulnerabilitySeries(group=group_name, points=summaries))
    return out


def build_figure6(sim: Simulation) -> Figure6:
    engine = sim.inference()
    return Figure6(
        series=_series_for(sim, engine, MEASUREMENTS_PAUSED),
        notification_date=PRIVATE_NOTIFICATION,
    )


def render_vulnerability_series(series: List[VulnerabilitySeries], title: str) -> str:
    from .formatting import sparkline

    if not series or not series[0].points:
        return f"{title}\n(no rounds)"
    headers = ["Date"] + [s.group for s in series]
    body = []
    for i, point in enumerate(series[0].points):
        row = [point.date.date().isoformat()]
        for s in series:
            summary = s.points[i]
            determinable = summary.vulnerable + summary.patched
            row.append(
                f"{100.0 * summary.vulnerable / determinable:.1f}%"
                if determinable
                else "-"
            )
        body.append(row)
    rendered = render_table(headers, body, title=title)
    sparks = []
    for s in series:
        rates = [
            p.vulnerable / (p.vulnerable + p.patched)
            for p in s.points
            if (p.vulnerable + p.patched)
        ]
        sparks.append(f"  {s.group:<16} [{sparkline(rates, low=0.0, high=1.0)}]")
    return rendered + "\n" + "\n".join(["Vulnerable-share sparklines (0-100%):"] + sparks)


def render_figure6(figure: Figure6) -> str:
    rendered = render_vulnerability_series(
        figure.series,
        "Figure 6: Vulnerability rate per domain list (first window)",
    )
    return rendered + (
        f"\nPrivate notification sent: {figure.notification_date.date().isoformat()}"
    )
