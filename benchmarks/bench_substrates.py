"""Micro-benchmarks for the substrate hot paths.

Not tied to a paper artifact — these quantify the cost of the pieces the
campaign executes hundreds of thousands of times: SPF evaluation, macro
expansion (both engines), and a full probe transaction.
"""

import ipaddress

import pytest

from repro.clock import SimulatedClock
from repro.dns import (
    A,
    AuthoritativeServer,
    CachingResolver,
    Name,
    SpfTestResponder,
    StubResolver,
    TXT,
    Zone,
)
from repro.libspf2.expand import LibSpf2Expander
from repro.smtp import Network, SmtpClient, SmtpServer, SpfStack, SpfTiming, TransactionKind
from repro.spf import SpfEvaluator
from repro.spf.macro import MacroContext, expand_macros


def test_rfc_macro_expansion(benchmark):
    ctx = MacroContext(
        sender="user@example.com",
        domain="ab1.s1.spf-test.dns-lab.org",
        client_ip=ipaddress.IPv4Address("198.51.100.7"),
    )
    out = benchmark(expand_macros, "%{d1r}.ab1.s1.spf-test.dns-lab.org", ctx)
    assert out.startswith("ab1.")


def test_libspf2_vulnerable_expansion(benchmark):
    expander = LibSpf2Expander(patched=False)
    out = benchmark(
        expander.expand,
        "%{d1r}.ab1.s1.spf-test.dns-lab.org",
        lambda letter: "ab1.s1.spf-test.dns-lab.org",
    )
    assert out.output.startswith("org.org.")


def test_spf_check_host(benchmark):
    zone = Zone("example.com")
    zone.add("example.com", TXT("v=spf1 a:mail.example.com ip4:192.0.2.0/24 -all"))
    zone.add("mail", A("198.51.100.25"))
    server = AuthoritativeServer([zone])
    resolver = CachingResolver()
    resolver.register("example.com", server)
    evaluator = SpfEvaluator(StubResolver(resolver))
    ip = ipaddress.IPv4Address("198.51.100.25")
    outcome = benchmark(evaluator.check_host, ip, "example.com", "u@example.com")
    assert str(outcome.result) == "pass"


def test_full_probe_transaction(benchmark):
    clock = SimulatedClock()
    responder = SpfTestResponder(Name.from_text("spf-test.dns-lab.org"))
    resolver = CachingResolver(clock=lambda: clock.now)
    resolver.register("spf-test.dns-lab.org", responder)
    network = Network(clock=lambda: clock.now)
    network.register(
        SmtpServer(
            "10.0.0.1",
            spf_stacks=[SpfStack.named("vulnerable-libspf2", SpfTiming.ON_MAIL_FROM)],
            resolver=StubResolver(resolver, identity="10.0.0.1", clock=lambda: clock.now),
        )
    )
    client = SmtpClient(network)
    counter = [0]

    def probe():
        counter[0] += 1
        return client.probe(
            "10.0.0.1",
            sender=f"noreply@t{counter[0]}.s1.spf-test.dns-lab.org",
            recipient="postmaster@target.example",
            kind=TransactionKind.NOMSG,
        )

    result = benchmark(probe)
    assert result.replies
