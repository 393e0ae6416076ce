"""Section 7.7 — the private-notification funnel.

The paper's numbers: 6,488 notifications sent, 31.6% bounced, 12% of
delivered opened (tracking-pixel lower bound), 177 openers eventually
patched, but only 9 patched *between* private and public disclosure —
private disclosure at scale was minimally effective.  Of the domains
whose notification bounced, 37 still patched before public disclosure
(package-manager updates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..clock import PUBLIC_DISCLOSURE
from ..simulation import Simulation
from .formatting import pct, render_table


@dataclass
class NotificationFunnel:
    sent: int
    bounced: int
    delivered: int
    opened: int
    openers_patched_eventually: int
    openers_patched_before_disclosure: int
    bounced_patched_before_disclosure: int


def build_notification_funnel(sim: Simulation) -> Optional[NotificationFunnel]:
    sim.run()
    report = sim.notification_report
    if report is None:
        return None

    opened_units = report.opened_unit_ids()
    bounced_units = report.bounced_unit_ids()
    # Only the notified units' plans are read, never the whole fleet's:
    # a plan is a pure function of its unit (a unit that is not
    # vulnerable never patches), and plan_for returns the plan a
    # notification rewrote.
    plans = {
        unit_id: sim.patch_model.plan_for(sim.fleet.unit_at(unit_id))
        for unit_id in (*opened_units, *bounced_units)
    }

    def patched_eventually(unit_id: int) -> bool:
        return plans[unit_id].patches

    def patched_before_disclosure(unit_id: int) -> bool:
        plan = plans[unit_id]
        return (
            plan.patch_date is not None
            and report.sent_at <= plan.patch_date < PUBLIC_DISCLOSURE
        )

    return NotificationFunnel(
        sent=report.sent,
        bounced=report.bounced,
        delivered=report.delivered,
        opened=report.opened,
        openers_patched_eventually=sum(
            1 for unit_id in opened_units if patched_eventually(unit_id)
        ),
        openers_patched_before_disclosure=sum(
            1 for unit_id in opened_units if patched_before_disclosure(unit_id)
        ),
        bounced_patched_before_disclosure=sum(
            1 for unit_id in bounced_units if patched_before_disclosure(unit_id)
        ),
    )


def render_notification_funnel(funnel: Optional[NotificationFunnel]) -> str:
    if funnel is None:
        return "Notification funnel: (no notification campaign was run)"
    headers = ["Stage", "Count", "Share"]
    body = [
        ["Notifications sent", f"{funnel.sent:,}", "100%"],
        ["Returned undelivered", f"{funnel.bounced:,}", pct(funnel.bounced, funnel.sent)],
        ["Delivered", f"{funnel.delivered:,}", pct(funnel.delivered, funnel.sent)],
        ["Opened (pixel lower bound)", f"{funnel.opened:,}", pct(funnel.opened, funnel.delivered)],
        [
            "Openers patched eventually",
            f"{funnel.openers_patched_eventually:,}",
            pct(funnel.openers_patched_eventually, funnel.opened),
        ],
        [
            "Openers patched before public disclosure",
            f"{funnel.openers_patched_before_disclosure:,}",
            pct(funnel.openers_patched_before_disclosure, funnel.opened),
        ],
        [
            "Bounced yet patched before disclosure",
            f"{funnel.bounced_patched_before_disclosure:,}",
            pct(funnel.bounced_patched_before_disclosure, funnel.bounced),
        ],
    ]
    return render_table(
        headers, body, title="Section 7.7: Private-notification funnel"
    )
