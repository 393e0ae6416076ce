"""Unit tests for the probe-execution engine.

Covers the retry/backoff policy against injected transient 421 failures
and the campaign-ordering guard (``run_snapshot`` before ``run_initial``
must raise :class:`~repro.errors.CampaignError`).
"""

from __future__ import annotations

import datetime as _dt

import pytest

from repro.clock import SimulatedClock
from repro.core.detector import DetectionOutcome
from repro.core.ethics import EthicsControls
from repro.core.labels import LabelAllocator
from repro.dns import CachingResolver, Name, SpfTestResponder, StubResolver
from repro.errors import CampaignError
from repro.exec import (
    ClockRouter,
    ExecutionEnvironment,
    ProbeExecutor,
    ProbeTask,
    RetryPolicy,
)
from repro.simulation import Simulation
from repro.smtp import Network, SmtpServer, SpfStack, SpfTiming
from repro.smtp.policies import FailureStage, ServerPolicy

BASE = "spf-test.dns-lab.org"
IP = "10.9.0.1"


def build_world(policy=None, *, use_router=False):
    """One vulnerable server behind a fresh clock/network/responder."""
    clock = SimulatedClock()
    router = ClockRouter(clock)
    tick = router if use_router else (lambda: clock.now)
    responder = SpfTestResponder(Name.from_text(BASE))
    resolver = CachingResolver(clock=tick)
    resolver.register(BASE, responder)
    network = Network(clock=tick)
    server = SmtpServer(
        IP,
        policy=policy,
        spf_stacks=[SpfStack.named("vulnerable-libspf2", SpfTiming.ON_MAIL_FROM)],
        resolver=StubResolver(resolver, identity=IP, clock=tick),
    )
    network.register(server)
    env = ExecutionEnvironment(
        clock=clock,
        network=network,
        responder=responder,
        labels=LabelAllocator(responder.base),
        ethics=EthicsControls(),
        router=router if use_router else None,
    )
    return env, server


class TestRetryPolicy:
    def test_delay_grows_exponentially(self):
        policy = RetryPolicy(max_retries=3, backoff_seconds=60.0, backoff_factor=2.0)
        assert [policy.delay(a) for a in range(3)] == [60.0, 120.0, 240.0]

    def test_default_is_no_retries(self):
        assert RetryPolicy().max_retries == 0

    def test_retry_recovers_from_transient_421(self):
        """A banner-421 server that heals mid-backoff is still classified."""
        env, server = build_world(ServerPolicy(failure_stage=FailureStage.BANNER))

        def heal(_at):
            server.policy.failure_stage = FailureStage.NONE

        env.clock.schedule(env.clock.now + _dt.timedelta(seconds=30), heal)
        executor = ProbeExecutor(env, retry=RetryPolicy(max_retries=2, backoff_seconds=60.0))
        suite = env.labels.new_suite()

        (result,) = executor.run_stage("retry", [ProbeTask(ip=IP, suite=suite)])

        assert result.outcome == DetectionOutcome.VULNERABLE
        metrics = executor.metrics.stages[-1]
        assert metrics.retried == 1
        assert metrics.probes_attempted == 2

    def test_retry_gives_up_after_bound(self):
        """A server that never heals stays SMTP-Failed after max_retries."""
        env, _server = build_world(ServerPolicy(failure_stage=FailureStage.BANNER))
        executor = ProbeExecutor(env, retry=RetryPolicy(max_retries=2, backoff_seconds=60.0))
        suite = env.labels.new_suite()

        (result,) = executor.run_stage("retry", [ProbeTask(ip=IP, suite=suite)])

        assert result.outcome == DetectionOutcome.SMTP_FAILED
        metrics = executor.metrics.stages[-1]
        assert metrics.retried == 2
        assert metrics.probes_attempted == 3

    def test_no_retry_without_policy(self):
        """The default policy takes the first transient failure as final."""
        env, _server = build_world(ServerPolicy(failure_stage=FailureStage.BANNER))
        executor = ProbeExecutor(env)
        suite = env.labels.new_suite()

        (result,) = executor.run_stage("retry", [ProbeTask(ip=IP, suite=suite)])

        assert result.outcome == DetectionOutcome.SMTP_FAILED
        assert executor.metrics.stages[-1].retried == 0

    def test_virtual_backoff_leaves_shared_clock_alone(self):
        """In router mode, backoff burns task-local time, not shared time."""
        env, _server = build_world(
            ServerPolicy(failure_stage=FailureStage.BANNER), use_router=True
        )
        executor = ProbeExecutor(env, retry=RetryPolicy(max_retries=2, backoff_seconds=60.0))
        suite = env.labels.new_suite()
        base = env.clock.now

        executor.run_stage("retry", [ProbeTask(ip=IP, suite=suite)])

        # The stage spans exactly one timeslot of shared time, regardless
        # of the minutes of backoff the task itself waited through.
        assert (env.clock.now - base).total_seconds() == env.seconds_per_probe


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
