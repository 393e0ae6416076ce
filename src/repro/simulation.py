"""One-call assembly of the complete SPFail experiment.

:class:`Simulation` wires every subsystem together in the right order:

1. generate the domain population (:mod:`repro.internet.population`),
2. build and configure the MTA fleet (:mod:`repro.internet.mta_fleet`),
3. assign geography (:mod:`repro.internet.geo`),
4. construct the measurement campaign — which wires up the (lazy) SMTP
   network and DNS plumbing (:mod:`repro.core.campaign`),
5. bind the patch model so mid-campaign dynamics (patches, address
   moves) fold into servers as they are touched,
6. attach the private-notification machinery.

``Simulation.build(config=RunConfig(scale=...)).run()`` reproduces the
paper's entire four-month study; every analysis table/figure builder
consumes the returned artifacts.  A run checkpointed into a
:class:`repro.store.RunStore` can be reconstructed mid-timeline with
:meth:`Simulation.resume` and continued to a byte-identical finish.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .api import RunConfig
from .clock import SimulatedClock
from .collector import collector_paused
from .core.campaign import CampaignResult, MeasurementCampaign
from .core.inference import InferenceEngine
from .internet.geo import GeoDatabase, assign_geography
from .internet.mta_fleet import MtaFleet, build_fleet
from .internet.patching import PatchBehaviorModel
from .internet.population import DomainPopulation, generate_population
from .notification.delivery import NotificationCampaign, NotificationReport
from .obs import Observation, observing


@dataclass
class Simulation:
    """A fully wired SPFail experiment."""

    population: DomainPopulation
    fleet: MtaFleet
    geography: GeoDatabase
    clock: SimulatedClock
    patch_model: PatchBehaviorModel
    campaign: MeasurementCampaign
    notification: NotificationCampaign
    observation: Optional[Observation] = None
    result: Optional[CampaignResult] = None
    #: the config this simulation was built from (always set by ``build``).
    config: Optional[RunConfig] = None
    #: checkpoint provenance when this simulation was reconstructed by
    #: :meth:`resume` (a :class:`repro.store.RunProvenance`), else None;
    #: a store writer attached to the run continues its chain.
    provenance: Optional[object] = None
    #: the engine :meth:`inference` handed out, with the result it reads.
    _inference: Optional[Tuple[CampaignResult, InferenceEngine]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        config: Optional[RunConfig] = None,
        *,
        observation: Optional[Observation] = None,
    ) -> "Simulation":
        """Assemble (but do not run) a complete experiment.

        ``config`` is one frozen, serializable :class:`~repro.api.RunConfig`
        describing the whole run (the default config when omitted).

        ``observation`` attaches a :class:`repro.obs.Observation`; its
        tracer is bound to the campaign's clock router so every trace
        event carries virtual (simulation) time, and it is activated for
        the duration of :meth:`run`.  It stays a live keyword (not part
        of the config) because it is a stateful sink, not a description
        of the run; ``config.trace`` records whether hosts should attach
        a tracing observation when they rebuild from the config.
        """
        if config is None:
            config = RunConfig()
        population_config = config.resolved_population()
        campaign_config = config.resolved_campaign()
        seed = config.seed

        population = generate_population(population_config)
        fleet = build_fleet(population)
        geography = assign_geography(fleet, seed=seed)

        clock = SimulatedClock(start=campaign_config.initial_measurement)
        patch_model = PatchBehaviorModel(seed=seed)

        campaign = MeasurementCampaign(
            population,
            fleet,
            config=campaign_config,
            clock=clock,
            retry=config.retry,
        )
        notification = NotificationCampaign(
            fleet, patch_model, campaign.network, clock, seed=seed
        )
        campaign.notifier = notification.send_notifications

        # Ground-truth dynamics (patches, address moves) are a function
        # of the clock, folded into servers on touch; binding the patch
        # model is all the wiring they need.
        patch_model.bind_fleet(fleet)
        campaign.network.bind_patch_model(patch_model)

        if observation is not None:
            observation.bind_clock(campaign.clock_router)

        return cls(
            population=population,
            fleet=fleet,
            geography=geography,
            clock=clock,
            patch_model=patch_model,
            campaign=campaign,
            notification=notification,
            observation=observation,
            config=config,
        )

    @classmethod
    def resume(
        cls, state, *, observation: Optional[Observation] = None
    ) -> "Simulation":
        """Reconstruct a checkpointed campaign mid-timeline.

        ``state`` is a loaded :class:`repro.store.RunState`
        (:meth:`repro.store.RunStore.load_latest`; :func:`repro.api.resume`
        also accepts a store or its directory).

        The world is rebuilt from the stored config, the clock is
        fast-forwarded through every scheduled notification event up to
        the checkpoint instant (patch and move effects need no replay —
        they are pure functions of the clock, folded into each server
        on touch), and the snapshotted mutable state is installed on
        top, so :meth:`run` continues with the
        remaining rounds and finishes byte-identical to an uninterrupted
        run.  Like :meth:`run`, the restore pauses automatic garbage
        collection.
        """
        from .store import restore_simulation

        with collector_paused():
            sim = cls.build(config=state.config, observation=observation)
            restore_simulation(sim, state)
        return sim

    def run(self, *, store=None) -> CampaignResult:
        """Execute (or continue) the campaign timeline; caches the result.

        ``store`` is an optional :class:`repro.store.RunStore` (or an
        already-bound :class:`repro.store.CheckpointWriter`): the run
        then checkpoints after the initial sweep and after every
        completed round, and a resumed simulation keeps appending to the
        same run directory.

        Automatic cyclic garbage collection is paused for the run and
        resumed afterwards, even when the run raises
        (:func:`repro.collector.collector_paused`): a run makes no
        reference cycles, so collections during it would only re-walk
        the world.
        """
        if self.result is None:
            writer = store
            if store is not None and hasattr(store, "writer"):
                writer = store.writer(self)
            try:
                with collector_paused(), (
                    observing(self.observation)
                    if self.observation is not None
                    else contextlib.nullcontext()
                ):
                    self.result = self.campaign.run(store=writer)
            finally:
                # A store-built writer holds the single-writer lock;
                # release it even when the run aborted so a later
                # resume is not locked out by a dead run.
                if writer is not store and hasattr(writer, "close"):
                    writer.close()
        return self.result

    def inference(self) -> InferenceEngine:
        """The inference engine over the (run) campaign's rounds.

        One engine per completed run: every caller shares its status
        rows for as long as :attr:`result` is the same object.
        """
        result = self.run()
        if self._inference is None or self._inference[0] is not result:
            self._inference = (result, InferenceEngine(result.initial, result.rounds))
        return self._inference[1]

    @property
    def notification_report(self) -> Optional[NotificationReport]:
        report = self.campaign.notification_report
        return report if isinstance(report, NotificationReport) else None
