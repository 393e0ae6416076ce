"""The patch-behavior model.

Decides, for every vulnerable hosting unit, *whether*, *when*, and *why*
it replaces its vulnerable libSPF2 — reproducing the paper's observed
dynamics (Sections 7.2-7.8):

- a **proactive** contingent patches in the first measurement window,
  before any notification (dominated by .za: 98% of its eventual patchers
  moved in October/November);
- **package-manager** subscribers patch shortly after their distribution
  ships a fix (Table 6 — Debian's fix landed the day after public
  disclosure and drives the visible post-disclosure drop);
- **private notification** has a barely measurable effect (9 of 512
  openers patched between private and public disclosure);
- the **public disclosure** correlates with the largest wave;
- roughly 80% of initially vulnerable units never patch at all, and the
  Alexa Top 1000 patches least.

Plans are sampled lazily from a per-unit RNG fork (``unit-{unit_id}``),
so any unit's fate is answerable on first touch without walking the
fleet, and cached; a plan takes effect through the network's
sync-on-touch path — every ``server_at`` brings the server's patched
state up to the clock — rather than through scheduled callbacks, which
keeps snapshot restores consistent by construction.
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..clock import (
    INITIAL_MEASUREMENT,
    PRIVATE_NOTIFICATION,
    PUBLIC_DISCLOSURE,
    FINAL_MEASUREMENT,
    SimulatedClock,
)
from ..smtp.transport import Network
from .mta_fleet import HostingUnit, MtaFleet
from .package_managers import PACKAGE_MANAGER_TIMELINE, UNMANAGED_SHARE
from .population import DomainSet
from .rng import SeededRng
from .tld import PROACTIVE_PATCH_TLDS, TLD_PATCH_RATES


class PatchTrigger(enum.Enum):
    """Why a unit patched (or didn't)."""

    NONE = "none"
    PROACTIVE = "proactive"
    PACKAGE_MANAGER = "package-manager"
    PRIVATE_NOTIFICATION = "private-notification"
    PUBLIC_DISCLOSURE = "public-disclosure"


@dataclass
class PatchPlan:
    """One unit's sampled patching fate."""

    unit_id: int
    patch_date: Optional[_dt.datetime]
    trigger: PatchTrigger
    package_manager: Optional[str] = None

    @property
    def patches(self) -> bool:
        return self.patch_date is not None

    def patched_by(self, when: _dt.datetime) -> bool:
        return self.patch_date is not None and self.patch_date <= when


class PatchBehaviorModel:
    """Samples and applies patch plans for a fleet's vulnerable units."""

    def __init__(
        self,
        *,
        seed: int = 0,
        base_patch_probability: float = 0.17,
        alexa_1000_multiplier: float = 0.40,
        provider_patch_probability: float = 0.0,
        notification_response_probability: float = 0.02,
    ) -> None:
        #: Sequential stream for the notification coupling (opens arrive
        #: in event order, which every run replays identically).
        self._rng = SeededRng(seed).fork("patching")
        #: Root for per-unit plan forks — plans are a function of
        #: (seed, unit_id), independent of sampling order.
        self._plan_root = SeededRng(seed).fork("patch-plans")
        self.base_patch_probability = base_patch_probability
        self.alexa_1000_multiplier = alexa_1000_multiplier
        self.provider_patch_probability = provider_patch_probability
        #: P(an opener patches *because of* the private notification).
        self.notification_response_probability = notification_response_probability
        self._plans: Dict[int, PatchPlan] = {}
        self._fleet: Optional[MtaFleet] = None

    def bind_fleet(self, fleet: MtaFleet) -> None:
        """Let :meth:`plans` enumerate the fleet's vulnerable units."""
        self._fleet = fleet

    # -- plan sampling -------------------------------------------------------

    def plan_for(self, unit: HostingUnit) -> PatchPlan:
        """The unit's (cached) patch plan."""
        plan = self._plans.get(unit.unit_id)
        if plan is None:
            plan = self._sample_plan(
                unit, self._plan_root.fork(f"unit-{unit.unit_id}")
            )
            self._plans[unit.unit_id] = plan
        return plan

    def plans(self) -> List[PatchPlan]:
        """Every plan the model would act on.

        Bound to a fleet, this enumerates the vulnerable units' plans
        (sampling any not yet touched) plus any cached plan the
        notification coupling rewrote; unbound models report only what
        they have sampled so far.
        """
        if self._fleet is None:
            return list(self._plans.values())
        for unit in self._fleet.vulnerable_units():
            self.plan_for(unit)
        return list(self._plans.values())

    def _patch_probability(self, unit: HostingUnit) -> float:
        tld = unit.primary_tld
        probability = TLD_PATCH_RATES.get(tld)
        if probability is None:
            probability = self.base_patch_probability
        if any(d.in_set(DomainSet.TOP_EMAIL_PROVIDERS) for d in unit.domains):
            return self.provider_patch_probability
        if any(d.in_set(DomainSet.ALEXA_1000) for d in unit.domains):
            probability *= self.alexa_1000_multiplier
        # Small operators patch more readily than big shared hosts — the
        # paper measured 24% of vulnerable MTAs but only 13% of vulnerable
        # domains patched, which requires exactly this size skew.
        if len(unit.domains) <= 2:
            probability *= 1.15
        elif len(unit.domains) > 20:
            probability *= 0.40
        return min(probability, 0.95)

    def _sample_plan(self, unit: HostingUnit, rng: SeededRng) -> PatchPlan:
        if not unit.is_vulnerable:
            return PatchPlan(unit.unit_id, None, PatchTrigger.NONE)
        if not rng.bernoulli(self._patch_probability(unit)):
            return PatchPlan(unit.unit_id, None, PatchTrigger.NONE)

        tld = unit.primary_tld

        # The unit *will* patch; sample how.  Conditioning the mechanism
        # on the decision keeps final patch rates pinned to the Table 5
        # TLD targets.

        # Proactive TLD communities (.za, .gr) patch early, unprompted.
        proactive_share = PROACTIVE_PATCH_TLDS.get(tld)
        if proactive_share is not None and rng.bernoulli(proactive_share):
            date = INITIAL_MEASUREMENT + _dt.timedelta(
                days=rng.uniform(4.0, 35.0)
            )
            return PatchPlan(unit.unit_id, date, PatchTrigger.PROACTIVE)

        # Package-manager subscribers ride their distribution's update.
        # Units still vulnerable at the initial measurement cannot have
        # patched earlier, so release + uptake lag is clamped into the
        # measurement window (RedHat/Gentoo shipped folded fixes *before*
        # October 11 — their slow-updating subscribers are the early-
        # window patching the paper attributes to proactive monitoring).
        manager = self._sample_patched_manager(rng)
        if manager is not None:
            record = next(r for r in PACKAGE_MANAGER_TIMELINE if r.name == manager)
            assert record.cve_33912_patch is not None
            date = record.cve_33912_patch + _dt.timedelta(
                days=rng.exponential_days(12.0)
            )
            if date <= INITIAL_MEASUREMENT:
                # Slow updaters of distributions that shipped before the
                # campaign: their uptake spreads across the first window
                # (the paper's pre-notification patching).
                date = INITIAL_MEASUREMENT + _dt.timedelta(
                    days=rng.uniform(5.0, 45.0)
                )
            return PatchPlan(
                unit.unit_id, date, PatchTrigger.PACKAGE_MANAGER,
                package_manager=manager,
            )

        # Unmanaged: a modest proactive share patches inside the first
        # measurement window (before any notification — the paper's
        # October/November wave); the rest follow disclosure.
        if rng.bernoulli(0.30):
            date = INITIAL_MEASUREMENT + _dt.timedelta(days=rng.uniform(4.0, 34.0))
            return PatchPlan(unit.unit_id, date, PatchTrigger.PROACTIVE)
        date = PUBLIC_DISCLOSURE + _dt.timedelta(days=rng.exponential_days(9.0))
        return PatchPlan(unit.unit_id, date, PatchTrigger.PUBLIC_DISCLOSURE)

    def _sample_patched_manager(self, rng: SeededRng) -> Optional[str]:
        """A package manager that shipped a fix, or None for unmanaged.

        Managers that never shipped contribute their weight to the
        unmanaged pool: their subscribers can only patch by hand.
        """
        outcomes = [
            (r.name, r.deployment_share)
            for r in PACKAGE_MANAGER_TIMELINE
            if r.cve_33912_patch is not None
        ]
        never = sum(
            r.deployment_share
            for r in PACKAGE_MANAGER_TIMELINE
            if r.cve_33912_patch is None
        )
        outcomes.append((None, UNMANAGED_SHARE + never))
        return rng.categorical(outcomes)

    # -- notification coupling --------------------------------------------------

    def on_notification_opened(self, unit: HostingUnit, when: _dt.datetime) -> bool:
        """An operator opened the private notification email.

        With small probability, a unit that was not otherwise going to
        patch (or was going to patch only after public disclosure) patches
        in response.  Returns True if the plan changed.
        """
        plan = self.plan_for(unit)
        if plan.patched_by(when):
            return False
        if not self._rng.bernoulli(self.notification_response_probability):
            return False
        date = when + _dt.timedelta(days=self._rng.exponential_days(12.0))
        if date >= PUBLIC_DISCLOSURE:
            # Slow responders are indistinguishable from disclosure-driven
            # patchers; leave the original plan in place.
            return False
        self._plans[unit.unit_id] = PatchPlan(
            unit.unit_id, date, PatchTrigger.PRIVATE_NOTIFICATION
        )
        return True

    # -- application ----------------------------------------------------------------

    def apply(
        self, fleet: MtaFleet, network: Network, clock: SimulatedClock
    ) -> int:
        """Wire this model into a fleet's network.

        No clock events are scheduled: the network applies
        ``server.patch()`` through its sync-on-touch path, asking this
        model (via :meth:`PatchPlan.patched_by`) whenever a vulnerable
        server is touched.  Returns the number of vulnerable units whose
        plan eventually patches — the count the old scheduler reported.
        """
        self.bind_fleet(fleet)
        if hasattr(network, "bind_patch_model"):
            network.bind_patch_model(self)
        planned = 0
        for unit in fleet.vulnerable_units():
            if self.plan_for(unit).patches:
                planned += 1
        return planned
