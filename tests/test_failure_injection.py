"""Failure injection: the system must degrade cleanly, never wrongly.

A measurement system's cardinal sin is misclassification under partial
failure — a flaky DNS path or a dying server must yield *inconclusive*
results, never a wrong vulnerable/patched verdict.
"""

import ipaddress

import pytest

from repro.clock import SimulatedClock
from repro.core.detector import DetectionOutcome, VulnerabilityDetector
from repro.core.labels import LabelAllocator
from repro.dns import CachingResolver, Message, Name, Rcode, RRType, SpfTestResponder, StubResolver
from repro.dns.server import DnsBackend
from repro.errors import ReproError, ResolutionError
from repro.smtp import Network, SmtpClient, SmtpServer, SpfStack, SpfTiming
from repro.spf import SpfEvaluator, SpfResult


class FlakyBackend(DnsBackend):
    """Wraps a backend; SERVFAILs every query while ``broken`` is True."""

    def __init__(self, inner):
        self.inner = inner
        self.broken = False

    def query(self, message, *, source="", now=None):
        if self.broken:
            return message.make_response(Rcode.SERVFAIL)
        return self.inner.query(message, source=source, now=now)


@pytest.fixture()
def env():
    clock = SimulatedClock()
    responder = SpfTestResponder(Name.from_text("spf-test.dns-lab.org"))
    flaky = FlakyBackend(responder)
    resolver = CachingResolver(clock=lambda: clock.now)
    resolver.register("spf-test.dns-lab.org", flaky)
    network = Network(clock=lambda: clock.now)
    server = SmtpServer(
        "10.0.0.1",
        spf_stacks=[SpfStack.named("vulnerable-libspf2", SpfTiming.ON_MAIL_FROM)],
        resolver=StubResolver(resolver, identity="10.0.0.1", clock=lambda: clock.now),
    )
    network.register(server)
    labels = LabelAllocator(Name.from_text("spf-test.dns-lab.org"))
    detector = VulnerabilityDetector(
        SmtpClient(network),
        responder,
        labels,
        wait=lambda s: clock.advance_seconds(s),
        now=lambda: clock.now,
    )
    return clock, responder, flaky, detector, labels


class TestDnsOutage:
    def test_outage_never_misclassifies(self, env):
        clock, responder, flaky, detector, labels = env
        flaky.broken = True
        result = detector.detect("10.0.0.1", labels.new_suite())
        # The SPF evaluator gets TEMPERROR; no queries reach the log, so
        # the verdict must be inconclusive-flavored, never 'compliant'.
        assert result.outcome in (
            DetectionOutcome.NO_SPF,
            DetectionOutcome.SMTP_FAILED,
            DetectionOutcome.INCONCLUSIVE,
        )
        assert not result.behaviors

    def test_recovery_after_outage(self, env):
        clock, responder, flaky, detector, labels = env
        flaky.broken = True
        detector.detect("10.0.0.1", labels.new_suite())
        flaky.broken = False
        clock.advance_seconds(120)
        result = detector.detect("10.0.0.1", labels.new_suite())
        assert result.outcome == DetectionOutcome.VULNERABLE


class TestEvaluatorUnderFailure:
    def test_temperror_on_servfail(self):
        clock = SimulatedClock()
        responder = SpfTestResponder(Name.from_text("spf-test.dns-lab.org"))
        flaky = FlakyBackend(responder)
        resolver = CachingResolver(clock=lambda: clock.now)
        resolver.register("spf-test.dns-lab.org", flaky)
        evaluator = SpfEvaluator(StubResolver(resolver, clock=lambda: clock.now))
        flaky.broken = True
        outcome = evaluator.check_host(
            ipaddress.IPv4Address("198.51.100.7"),
            "ab1.s1.spf-test.dns-lab.org",
            "noreply@ab1.s1.spf-test.dns-lab.org",
        )
        assert outcome.result == SpfResult.TEMPERROR

    def test_mid_evaluation_failure(self):
        """The TXT fetch succeeds, then the A lookups start failing."""
        clock = SimulatedClock()
        responder = SpfTestResponder(Name.from_text("spf-test.dns-lab.org"))

        class FailAfterFirst(DnsBackend):
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def query(self, message, *, source="", now=None):
                self.calls += 1
                if self.calls > 1:
                    return message.make_response(Rcode.SERVFAIL)
                return self.inner.query(message, source=source, now=now)

        resolver = CachingResolver(clock=lambda: clock.now)
        resolver.register("spf-test.dns-lab.org", FailAfterFirst(responder))
        evaluator = SpfEvaluator(StubResolver(resolver, clock=lambda: clock.now))
        outcome = evaluator.check_host(
            ipaddress.IPv4Address("198.51.100.7"),
            "ab1.s1.spf-test.dns-lab.org",
            "noreply@ab1.s1.spf-test.dns-lab.org",
        )
        assert outcome.result == SpfResult.TEMPERROR


class TestErrorHierarchy:
    def test_all_domain_errors_are_repro_errors(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, ReproError) or obj is ReproError
