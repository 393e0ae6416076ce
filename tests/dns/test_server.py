"""Tests for authoritative servers and the measurement responder."""

import datetime as dt
import ipaddress

import pytest

from repro.dns.message import Message, Rcode
from repro.dns.name import Name
from repro.dns.rdata import A, RRType
from repro.dns.server import (
    ANSWER_ADDRESS,
    AuthoritativeServer,
    SpfTestResponder,
    measurement_policy,
)
from repro.dns.zone import Zone

NOW = dt.datetime(2021, 10, 11, tzinfo=dt.timezone.utc)


def _ask(server, name, rrtype=RRType.A, source="tester"):
    return server.query(
        Message.make_query(Name.from_text(name), rrtype), source=source, now=NOW
    )


@pytest.fixture()
def auth():
    zone = Zone("example.com")
    zone.add("mail", A("192.0.2.25"))
    return AuthoritativeServer([zone])


class TestAuthoritativeServer:
    def test_positive_answer(self, auth):
        response = _ask(auth, "mail.example.com")
        assert response.rcode == Rcode.NOERROR
        assert response.answers[0].rdata.address == ipaddress.IPv4Address("192.0.2.25")

    def test_nxdomain_with_soa(self, auth):
        response = _ask(auth, "none.example.com")
        assert response.rcode == Rcode.NXDOMAIN
        assert response.authority  # SOA for negative caching

    def test_nodata(self, auth):
        response = _ask(auth, "mail.example.com", RRType.TXT)
        assert response.rcode == Rcode.NOERROR
        assert not response.answers
        assert response.authority

    def test_refused_out_of_zone(self, auth):
        assert _ask(auth, "other.org").rcode == Rcode.REFUSED

    def test_multiple_zones_longest_match(self):
        outer = Zone("example.com")
        inner = Zone("sub.example.com")
        inner.add("host", A("192.0.2.9"))
        server = AuthoritativeServer([outer, inner])
        response = _ask(server, "host.sub.example.com")
        assert response.answers


BASE = Name.from_text("spf-test.dns-lab.org")


@pytest.fixture()
def responder():
    return SpfTestResponder(BASE)


class TestSpfTestResponder:
    def test_policy_synthesized_with_labels(self, responder):
        response = _ask(responder, "ab12.suite1.spf-test.dns-lab.org", RRType.TXT)
        policy = response.answers[0].rdata.text
        assert policy == measurement_policy("ab12", "suite1", BASE)
        assert "%{d1r}.ab12.suite1.spf-test.dns-lab.org" in policy
        assert policy.endswith("-all")

    def test_a_answered_for_any_subname(self, responder):
        response = _ask(responder, "x.y.z.ab12.suite1.spf-test.dns-lab.org", RRType.A)
        assert response.answers[0].rdata.address == ipaddress.IPv4Address(ANSWER_ADDRESS)

    def test_aaaa_is_nodata_but_logged(self, responder):
        response = _ask(responder, "q.ab12.suite1.spf-test.dns-lab.org", RRType.AAAA)
        assert not response.answers
        assert any(e.rrtype == RRType.AAAA for e in responder.log)

    def test_no_txt_for_deep_names(self, responder):
        response = _ask(
            responder, "extra.ab12.suite1.spf-test.dns-lab.org", RRType.TXT
        )
        assert not response.answers

    def test_no_txt_for_shallow_names(self, responder):
        response = _ask(responder, "suite1.spf-test.dns-lab.org", RRType.TXT)
        assert not response.answers

    def test_out_of_base_refused_and_not_logged(self, responder):
        response = _ask(responder, "other.org", RRType.A)
        assert response.rcode == Rcode.REFUSED
        assert len(responder.log) == 0

    def test_every_query_logged_with_source(self, responder):
        _ask(responder, "p.ab12.suite1.spf-test.dns-lab.org", source="198.51.100.9")
        entry = list(responder.log)[-1]
        assert entry.source == "198.51.100.9"
        assert entry.timestamp == NOW
