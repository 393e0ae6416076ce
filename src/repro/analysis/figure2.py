"""Figure 2 — overarching trends in domains patched.

The final (February) distribution of initially vulnerable domains across
patched / vulnerable / unknown, for each domain group.  The paper's
headline shape: ~15% patched overall, the Alexa Top 1000 patching least
(<10%), and the 2-Week MX set carrying the most inconclusive results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.campaign import DomainStatus
from ..internet.population import DomainSet
from ..simulation import Simulation
from .formatting import pct, render_table
from .status import final_domain_status, vulnerable_in_set

_GROUPS: Tuple[Tuple[str, Optional[DomainSet]], ...] = (
    ("All domains", None),
    ("Alexa Top List", DomainSet.ALEXA_TOP_LIST),
    ("Alexa 1000", DomainSet.ALEXA_1000),
    ("2-Week MX", DomainSet.TWO_WEEK_MX),
)


@dataclass
class Figure2Row:
    group: str
    total: int
    patched: int
    vulnerable: int
    unknown: int

    @property
    def patched_fraction(self) -> float:
        return self.patched / self.total if self.total else 0.0


def build_figure2(sim: Simulation) -> List[Figure2Row]:
    result = sim.run()
    status = final_domain_status(sim)
    rows: List[Figure2Row] = []
    for group_name, domain_set in _GROUPS:
        names = (
            result.initial.vulnerable_domains()
            if domain_set is None
            else vulnerable_in_set(sim, domain_set)
        )
        patched = sum(1 for n in names if status.get(n) == DomainStatus.PATCHED)
        vulnerable = sum(1 for n in names if status.get(n) == DomainStatus.VULNERABLE)
        rows.append(
            Figure2Row(
                group=group_name,
                total=len(names),
                patched=patched,
                vulnerable=vulnerable,
                unknown=len(names) - patched - vulnerable,
            )
        )
    return rows


def render_figure2(rows: List[Figure2Row]) -> str:
    headers = ["Group", "Initially vulnerable", "Patched", "Vulnerable", "Unknown"]
    body = [
        [
            r.group,
            f"{r.total:,}",
            f"{r.patched:,} ({pct(r.patched, r.total)})",
            f"{r.vulnerable:,} ({pct(r.vulnerable, r.total)})",
            f"{r.unknown:,} ({pct(r.unknown, r.total)})",
        ]
        for r in rows
    ]
    return render_table(
        headers, body, title="Figure 2: Final vulnerability distribution (Feb 2022)"
    )
