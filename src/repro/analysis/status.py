"""Shared status helpers for the analysis builders.

Final (end-of-study) status combines the longitudinal inference with the
final snapshot, exactly as the paper does: the snapshot — which
re-resolved MX records — settles domains the longitudinal series lost.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.campaign import DomainStatus
from ..core.inference import InferredStatus
from ..internet.population import DomainSet
from ..simulation import Simulation


def vulnerable_in_set(sim: Simulation, domain_set: DomainSet) -> List[str]:
    """The initially vulnerable domains that belong to ``domain_set``, in
    ``InitialMeasurement.vulnerable_domains()`` order."""
    members = set(sim.population.names_in_set(domain_set))
    return [
        name for name in sim.inference().domain_vulnerable_ips if name in members
    ]


def final_domain_status(sim: Simulation) -> Dict[str, DomainStatus]:
    """name → final status for every initially vulnerable domain."""
    result = sim.run()
    engine = sim.inference()
    last_date = result.rounds[-1].date if result.rounds else result.initial.date

    status: Dict[str, DomainStatus] = {}
    for name in result.initial.vulnerable_domains():
        snapshot = result.snapshot_status.get(name)
        if snapshot in (DomainStatus.VULNERABLE, DomainStatus.PATCHED):
            status[name] = snapshot
            continue
        inferred, _ = engine.domain_status(name, last_date)
        if inferred == InferredStatus.VULNERABLE:
            status[name] = DomainStatus.VULNERABLE
        elif inferred == InferredStatus.PATCHED:
            status[name] = DomainStatus.PATCHED
        else:
            status[name] = DomainStatus.UNKNOWN
    return status


def final_ip_status(sim: Simulation) -> Dict[str, Optional[bool]]:
    """ip → True (patched) / False (still vulnerable) / None (unknown),
    over the initially vulnerable addresses."""
    result = sim.run()
    engine = sim.inference()
    last_date = result.rounds[-1].date if result.rounds else result.initial.date
    out: Dict[str, Optional[bool]] = {}
    for ip in result.initial.vulnerable_ips():
        inferred, _ = engine.ip_status(ip, last_date)
        if inferred == InferredStatus.PATCHED:
            out[ip] = True
        elif inferred == InferredStatus.VULNERABLE:
            out[ip] = False
        else:
            out[ip] = None
    return out
