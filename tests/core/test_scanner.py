"""Tests for the operator-facing scanner API."""

import pytest

from repro.clock import SimulatedClock
from repro.core.detector import DetectionOutcome
from repro.core.scanner import SpfVulnerabilityScanner
from repro.dns import (
    A,
    AuthoritativeServer,
    CachingResolver,
    MX,
    Name,
    SpfTestResponder,
    StubResolver,
    Zone,
)
from repro.errors import ResolutionError
from repro.exec import SECONDS_PER_PROBE, ClockRouter
from repro.smtp import (
    GreylistPolicy,
    Network,
    ServerPolicy,
    SmtpServer,
    SpfStack,
    SpfTiming,
)

BASE = "spf-test.dns-lab.org"


def publish(estate_dns, domain, *, mx=None, ips=()):
    """Serve ``domain`` from its own zone: an MX to ``mx`` and/or A records."""
    zone = Zone(domain)
    if mx is not None:
        zone.add(domain, MX(10, mx))
    for ip in ips:
        zone.add(domain, A(ip))
    estate_dns.add_zone(zone)


def build_scanner(servers, *, world_reads_router=True):
    """A scanner over ``servers``, each ``(ip, behavior, timing, policy)``.

    The network and resolvers read the scanner's router, or with
    ``world_reads_router=False`` its shared clock directly.  Returns the
    scanner and the static DNS server the scanned domains are published
    on (:func:`publish`).
    """
    router = ClockRouter(SimulatedClock())
    tick = router if world_reads_router else (lambda: router.shared.now)
    responder = SpfTestResponder(Name.from_text(BASE))
    estate_dns = AuthoritativeServer()
    resolver = CachingResolver(clock=tick)
    resolver.register(BASE, responder)
    resolver.register(Name.root(), estate_dns)
    network = Network(clock=tick)
    for ip, behavior, timing, policy in servers:
        stacks = [] if behavior is None else [SpfStack.named(behavior, timing)]
        network.register(
            SmtpServer(
                ip,
                policy=policy,
                spf_stacks=stacks,
                resolver=StubResolver(resolver, identity=ip, clock=tick),
            )
        )
    scanner = SpfVulnerabilityScanner(
        network,
        responder,
        router=router,
        resolver=StubResolver(resolver, identity="scanner", clock=tick),
    )
    return scanner, estate_dns


@pytest.fixture()
def setup():
    return build_scanner(
        [
            ("10.0.0.1", "vulnerable-libspf2", SpfTiming.ON_MAIL_FROM, None),
            ("10.0.0.2", "rfc-compliant", SpfTiming.ON_MAIL_FROM, None),
            ("10.0.0.3", "no-expansion", SpfTiming.ON_MAIL_FROM, None),
            ("10.0.0.4", None, None, ServerPolicy(refuse_connections=True)),
        ]
    )


class TestScanIps:
    def test_classification(self, setup):
        scanner, _ = setup
        report = scanner.scan_ips(["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"])
        assert report.scanned == 4
        assert report.vulnerable_ips() == ["10.0.0.1"]
        assert report.erroneous_ips() == ["10.0.0.3"]
        assert report.results["10.0.0.2"].outcome == DetectionOutcome.COMPLIANT
        assert report.results["10.0.0.4"].outcome == DetectionOutcome.REFUSED

    def test_duplicates_scanned_once(self, setup):
        scanner, _ = setup
        report = scanner.scan_ips(["10.0.0.1"] * 5)
        assert report.scanned == 1

    def test_outcome_counts(self, setup):
        scanner, _ = setup
        report = scanner.scan_ips(["10.0.0.1", "10.0.0.2"])
        counts = report.outcome_counts()
        assert counts[DetectionOutcome.VULNERABLE] == 1
        assert counts[DetectionOutcome.COMPLIANT] == 1

    def test_summary_names_vulnerable(self, setup):
        scanner, _ = setup
        report = scanner.scan_ips(["10.0.0.1", "10.0.0.2"])
        summary = report.summary()
        assert "10.0.0.1" in summary
        assert "vulnerable-libspf2" in summary
        assert "scanned 2" in summary


class TestScanDomains:
    def test_resolves_and_scans(self, setup):
        scanner, estate_dns = setup
        publish(estate_dns, "victim.example", mx="mx.victim.example")
        publish(estate_dns, "mx.victim.example", ips=["10.0.0.1"])
        publish(estate_dns, "fine.example", mx="mx.fine.example")
        publish(estate_dns, "mx.fine.example", ips=["10.0.0.2"])
        report = scanner.scan_domains(["victim.example", "fine.example"])
        assert report.vulnerable_domains() == ["victim.example"]
        assert report.domain_ips["fine.example"] == ["10.0.0.2"]

    def test_shared_mx_scanned_once(self, setup):
        scanner, estate_dns = setup
        for name in ("a.example", "b.example"):
            publish(estate_dns, name, mx="shared.example")
        publish(estate_dns, "shared.example", ips=["10.0.0.1"])
        report = scanner.scan_domains(["a.example", "b.example"])
        assert report.scanned == 1
        assert report.vulnerable_domains() == ["a.example", "b.example"]

    def test_unresolvable_domain_empty(self, setup):
        scanner, _ = setup
        report = scanner.scan_domains(["ghost.example"])
        assert report.domain_ips["ghost.example"] == []
        assert report.scanned == 0

    def test_requires_resolver(self, setup):
        scanner, _ = setup
        scanner.resolver = None
        with pytest.raises(ResolutionError):
            scanner.scan_domains(["x.example"])


class TestEthics:
    def test_scanner_honors_ethics_limits(self, setup):
        scanner, _ = setup
        scanner.scan_ips(["10.0.0.1", "10.0.0.2"])
        assert scanner.ethics.peak_concurrency <= 250
        assert scanner.ethics.connections_opened >= 2


class TestRoutedClock:
    """The scanner runs on the campaign's time protocol."""

    GREYLISTING = [
        (
            "10.0.0.9",
            "vulnerable-libspf2",
            SpfTiming.ON_DATA_COMMAND,
            ServerPolicy(greylist=GreylistPolicy(enabled=True, retry_after_seconds=300)),
        )
    ]

    def test_greylist_wait_stays_inside_the_probe(self):
        """The detector's greylist retry waits on the task's clock: the
        server sees the wait, and the shared clock moves one slot."""
        scanner, _ = build_scanner(self.GREYLISTING)
        started = scanner.clock.now

        report = scanner.scan_ips(["10.0.0.9"])

        assert report.results["10.0.0.9"].outcome == DetectionOutcome.VULNERABLE
        elapsed = (scanner.clock.now - started).total_seconds()
        assert elapsed == SECONDS_PER_PROBE == 0.25

    def test_world_off_the_router_never_sees_the_wait(self):
        """A world that reads the shared clock instead of the router
        misses the in-probe wait, so greylisting never lifts."""
        scanner, _ = build_scanner(self.GREYLISTING, world_reads_router=False)

        report = scanner.scan_ips(["10.0.0.9"])

        assert report.results["10.0.0.9"].outcome == DetectionOutcome.SMTP_FAILED
