#!/usr/bin/env python3
"""An operator's scan: check *your own* mail domains for the vulnerability.

Demonstrates the downstream-facing :class:`SpfVulnerabilityScanner` API —
the productized form of the paper's technique.  An operator stands up the
measurement DNS responder, points the scanner at their domains, and reads
the per-server verdicts.  The scanned estate's MX and A records live in
one static :class:`Zone` per domain behind an :class:`AuthoritativeServer`,
and every clock below reads one :class:`ClockRouter`, so each probe runs
in its own virtual timeslot.

Run:  python examples/operator_scan.py
"""

from repro.clock import SimulatedClock
from repro.core import SpfVulnerabilityScanner
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
from repro.exec import ClockRouter
from repro.smtp import Network, SmtpServer, SpfStack, SpfTiming


def main() -> None:
    # The network, the resolvers and the scanner all read one router.
    router = ClockRouter(SimulatedClock())

    # The scanner's own infrastructure: the special DNS zone that serves
    # macro-bearing SPF policies and logs what each scanned server asks.
    responder = SpfTestResponder(Name.from_text("spf-test.dns-lab.org"))
    resolver = CachingResolver(clock=router)
    resolver.register("spf-test.dns-lab.org", responder)

    # The operator's estate: three mail domains on three servers, one of
    # them still running the vulnerable libSPF2.
    estate_dns = AuthoritativeServer()
    resolver.register(Name.root(), estate_dns)
    network = Network(clock=router)
    estate = {
        "corp.example": ("10.1.0.1", "patched-libspf2"),
        "shop.example": ("10.1.0.2", "vulnerable-libspf2"),
        "lists.example": ("10.1.0.3", "rfc-compliant"),
    }
    for domain, (ip, behavior) in estate.items():
        zone = Zone(domain)
        zone.add(domain, MX(10, f"mx.{domain}"))
        zone.add(f"mx.{domain}", A(ip))
        estate_dns.add_zone(zone)
        network.register(
            SmtpServer(
                ip,
                spf_stacks=[SpfStack.named(behavior, SpfTiming.ON_MAIL_FROM)],
                resolver=StubResolver(resolver, identity=ip, clock=router),
            )
        )

    scanner = SpfVulnerabilityScanner(
        network,
        responder,
        router=router,
        resolver=StubResolver(resolver, identity="scanner", clock=router),
    )
    report = scanner.scan_domains(sorted(estate))
    print(report.summary())
    print()
    for domain in report.vulnerable_domains():
        print(f"ACTION REQUIRED: {domain} validates SPF with vulnerable libSPF2")
        print("  -> upgrade libSPF2 (CVE-2021-33912 / CVE-2021-33913) or switch libraries")


if __name__ == "__main__":
    main()
