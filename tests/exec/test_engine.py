"""Unit tests for the probe-execution engine.

Covers the no-retry methodology against an injected 421 banner failure
and the campaign-ordering guard (``run_snapshot`` before ``run_initial``
must raise :class:`~repro.errors.CampaignError`).
"""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.core.detector import DetectionOutcome
from repro.core.ethics import EthicsControls
from repro.core.labels import LabelAllocator
from repro.dns import CachingResolver, Name, SpfTestResponder, StubResolver
from repro.errors import CampaignError
from repro.exec import (
    SECONDS_PER_PROBE,
    ClockRouter,
    ExecutionEnvironment,
    ProbeExecutor,
    ProbeTask,
)
from repro.simulation import Simulation
from repro.smtp import Network, SmtpServer, SpfStack, SpfTiming
from repro.smtp.policies import FailureStage, ServerPolicy

BASE = "spf-test.dns-lab.org"
IP = "10.9.0.1"


def build_world(policy=None):
    """One vulnerable server behind a fresh router/network/responder."""
    router = ClockRouter(SimulatedClock())
    responder = SpfTestResponder(Name.from_text(BASE))
    resolver = CachingResolver(clock=router)
    resolver.register(BASE, responder)
    network = Network(clock=router)
    network.register(
        SmtpServer(
            IP,
            policy=policy,
            spf_stacks=[SpfStack.named("vulnerable-libspf2", SpfTiming.ON_MAIL_FROM)],
            resolver=StubResolver(resolver, identity=IP, clock=router),
        )
    )
    return ExecutionEnvironment(
        router=router,
        network=network,
        responder=responder,
        labels=LabelAllocator(responder.base),
        ethics=EthicsControls(),
    )


class TestNoRetry:
    def test_broken_dialogue_is_final(self):
        """A 421 banner is SMTP-Failed for the stage, as in the paper's
        method: one probe, no retry, one timeslot of shared time."""
        env = build_world(ServerPolicy(failure_stage=FailureStage.BANNER))
        executor = ProbeExecutor(env)
        suite = env.labels.new_suite()
        base = env.clock.now

        (result,) = executor.run_stage("banner", [ProbeTask(ip=IP, suite=suite)])

        assert result.outcome == DetectionOutcome.SMTP_FAILED
        metrics = executor.metrics.stages[-1]
        assert (metrics.probes_attempted, metrics.retried) == (1, 0)
        assert (env.clock.now - base).total_seconds() == SECONDS_PER_PROBE


class TestCampaignOrderingGuard:
    @pytest.fixture(scope="class")
    def unrun_campaign(self):
        from repro.api import RunConfig

        return Simulation.build(config=RunConfig(scale=0.003)).campaign

    def test_snapshot_before_initial_raises(self, unrun_campaign):
        with pytest.raises(CampaignError, match="run_initial"):
            unrun_campaign.run_snapshot(unrun_campaign.clock.now)

    def test_tracked_ips_before_initial_raises(self, unrun_campaign):
        with pytest.raises(CampaignError, match="run_initial"):
            unrun_campaign.tracked_ips()
