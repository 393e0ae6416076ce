"""Tests for check_host()."""

import ipaddress

import pytest

from repro.dns import (
    A,
    AAAA,
    AuthoritativeServer,
    CachingResolver,
    MX,
    Name,
    PTR,
    StubResolver,
    TXT,
    Zone,
)
from repro.spf import SpfEvaluator, SpfResult
from repro.spf.evaluator import MAX_DNS_MECHANISMS


def build(*zones):
    server = AuthoritativeServer(list(zones))
    resolver = CachingResolver()
    for zone in zones:
        resolver.register(zone.origin, server)
    return SpfEvaluator(StubResolver(resolver)), resolver


def check(evaluator, ip, domain="example.com", sender="user@example.com"):
    return evaluator.check_host(ipaddress.ip_address(ip), domain, sender)


class TestBasicMechanisms:
    def test_no_record_is_none(self):
        zone = Zone("example.com")
        evaluator, _ = build(zone)
        assert check(evaluator, "192.0.2.1").result == SpfResult.NONE

    def test_non_spf_txt_ignored(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("google-site-verification=xyz"))
        evaluator, _ = build(zone)
        assert check(evaluator, "192.0.2.1").result == SpfResult.NONE

    def test_ip4_match(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 ip4:192.0.2.0/24 -all"))
        evaluator, _ = build(zone)
        assert check(evaluator, "192.0.2.200").result == SpfResult.PASS
        assert check(evaluator, "198.51.100.1").result == SpfResult.FAIL

    def test_ip6_match(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 ip6:2001:db8::/32 -all"))
        evaluator, _ = build(zone)
        assert check(evaluator, "2001:db8::5").result == SpfResult.PASS
        assert check(evaluator, "2001:dead::5").result == SpfResult.FAIL

    def test_ip4_never_matches_ipv6_client(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 ip4:0.0.0.0/0 -all"))
        evaluator, _ = build(zone)
        assert check(evaluator, "2001:db8::1").result == SpfResult.FAIL

    def test_a_mechanism(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 a -all"))
        zone.add("example.com", A("192.0.2.10"))
        evaluator, _ = build(zone)
        assert check(evaluator, "192.0.2.10").result == SpfResult.PASS

    def test_a_with_domain_spec(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 a:relay.example.com -all"))
        zone.add("relay", A("192.0.2.11"))
        evaluator, _ = build(zone)
        assert check(evaluator, "192.0.2.11").result == SpfResult.PASS

    def test_a_with_prefix(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 a:relay.example.com/24 -all"))
        zone.add("relay", A("192.0.2.1"))
        evaluator, _ = build(zone)
        assert check(evaluator, "192.0.2.250").result == SpfResult.PASS

    def test_a_matches_aaaa_for_ipv6_client(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 a -all"))
        zone.add("example.com", AAAA("2001:db8::10"))
        evaluator, _ = build(zone)
        assert check(evaluator, "2001:db8::10").result == SpfResult.PASS

    def test_mx_mechanism(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 mx -all"))
        zone.add("example.com", MX(10, "mail.example.com"))
        zone.add("mail", A("192.0.2.30"))
        evaluator, _ = build(zone)
        assert check(evaluator, "192.0.2.30").result == SpfResult.PASS
        assert check(evaluator, "192.0.2.31").result == SpfResult.FAIL

    def test_exists_mechanism(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 exists:flag.example.com -all"))
        zone.add("flag", A("127.0.0.2"))
        evaluator, _ = build(zone)
        assert check(evaluator, "8.8.8.8").result == SpfResult.PASS

    def test_exists_no_answer_no_match(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 exists:missing.example.com ~all"))
        evaluator, _ = build(zone)
        assert check(evaluator, "8.8.8.8").result == SpfResult.SOFTFAIL

    def test_neutral_when_nothing_matches_and_no_all(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 ip4:192.0.2.1"))
        evaluator, _ = build(zone)
        assert check(evaluator, "8.8.8.8").result == SpfResult.NEUTRAL

    def test_first_match_wins(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 ?ip4:192.0.2.1 +ip4:192.0.2.1 -all"))
        evaluator, _ = build(zone)
        assert check(evaluator, "192.0.2.1").result == SpfResult.NEUTRAL

    def test_ptr_mechanism(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 ptr -all"))
        zone.add("host", A("192.0.2.40"))
        reverse = Zone("40.2.0.192.in-addr.arpa")
        reverse.add(
            Name.from_text("40.2.0.192.in-addr.arpa"), PTR("host.example.com")
        )
        evaluator, resolver = build(zone, reverse)
        assert check(evaluator, "192.0.2.40").result == SpfResult.PASS
        # No PTR for other addresses -> no match.
        assert check(evaluator, "192.0.2.41").result == SpfResult.FAIL


class TestIncludeAndRedirect:
    def test_include_pass(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 include:other.org -all"))
        other = Zone("other.org")
        other.add("other.org", TXT("v=spf1 ip4:203.0.113.9 -all"))
        evaluator, _ = build(zone, other)
        assert check(evaluator, "203.0.113.9").result == SpfResult.PASS

    def test_include_fail_does_not_match(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 include:other.org ~all"))
        other = Zone("other.org")
        other.add("other.org", TXT("v=spf1 -all"))
        evaluator, _ = build(zone, other)
        assert check(evaluator, "8.8.8.8").result == SpfResult.SOFTFAIL

    def test_include_missing_record_is_permerror(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 include:other.org -all"))
        other = Zone("other.org")
        evaluator, _ = build(zone, other)
        assert check(evaluator, "8.8.8.8").result == SpfResult.PERMERROR

    def test_redirect_followed(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 redirect=_spf.example.com"))
        zone.add("_spf", TXT("v=spf1 ip4:192.0.2.77 -all"))
        evaluator, _ = build(zone)
        assert check(evaluator, "192.0.2.77").result == SpfResult.PASS
        assert check(evaluator, "8.8.8.8").result == SpfResult.FAIL

    def test_redirect_to_nothing_is_permerror(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 redirect=void.example.com"))
        evaluator, _ = build(zone)
        assert check(evaluator, "8.8.8.8").result == SpfResult.PERMERROR

    def test_redirect_ignored_when_all_present(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 -all redirect=_spf.example.com"))
        evaluator, _ = build(zone)
        assert check(evaluator, "8.8.8.8").result == SpfResult.FAIL

    def test_macro_in_include_target(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 include:%{d2}.inc.example.com -all"))
        zone.add("example.com.inc", TXT("v=spf1 ip4:192.0.2.88 -all"))
        evaluator, _ = build(zone)
        assert check(evaluator, "192.0.2.88").result == SpfResult.PASS


class TestErrors:
    def test_multiple_spf_records_permerror(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 -all"))
        zone.add("example.com", TXT("v=spf1 +all"))
        evaluator, _ = build(zone)
        assert check(evaluator, "8.8.8.8").result == SpfResult.PERMERROR

    def test_syntax_error_permerror(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 bogus:mech -all"))
        evaluator, _ = build(zone)
        assert check(evaluator, "8.8.8.8").result == SpfResult.PERMERROR

    def test_unresolvable_dns_temperror(self):
        zone = Zone("example.com")
        evaluator, _ = build(zone)
        # Query a domain no backend serves.
        assert check(evaluator, "8.8.8.8", domain="other.org").result == SpfResult.TEMPERROR

    @pytest.mark.parametrize("terms", [MAX_DNS_MECHANISMS, MAX_DNS_MECHANISMS + 1])
    def test_lookup_limit_permerror(self, terms):
        # RFC 7208 §4.6.4: ten DNS-querying terms are allowed, the
        # eleventh is a PermError.
        zone = Zone("example.com")
        mechanisms = " ".join(f"a:host{i}.example.com" for i in range(terms))
        zone.add("example.com", TXT(f"v=spf1 {mechanisms} -all"))
        for i in range(terms):
            zone.add(f"host{i}", A(f"198.51.100.{i + 1}"))
        evaluator, _ = build(zone)
        outcome = check(evaluator, "203.0.113.200")
        if terms <= MAX_DNS_MECHANISMS:
            assert outcome.result == SpfResult.FAIL
            assert outcome.dns_mechanism_count == terms
        else:
            assert outcome.result == SpfResult.PERMERROR
            assert outcome.dns_mechanism_count > MAX_DNS_MECHANISMS

    def test_include_self_recursion_limited(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 include:example.com -all"))
        evaluator, _ = build(zone)
        assert check(evaluator, "8.8.8.8").result == SpfResult.PERMERROR

    @pytest.mark.parametrize(
        "voids, result", [(2, SpfResult.FAIL), (3, SpfResult.PERMERROR)]
    )
    def test_void_lookup_limit(self, voids, result):
        # RFC 7208 §4.6.4: two void lookups are allowed, the third is a
        # PermError.
        zone = Zone("example.com")
        mechanisms = " ".join(f"a:v{i}.example.com" for i in range(voids))
        zone.add("example.com", TXT(f"v=spf1 {mechanisms} -all"))
        evaluator, _ = build(zone)
        assert check(evaluator, "8.8.8.8").result == result


class TestOutcomeMetadata:
    def test_matched_mechanism_recorded(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 ip4:192.0.2.1 -all"))
        evaluator, _ = build(zone)
        outcome = check(evaluator, "192.0.2.1")
        assert outcome.matched_mechanism == "ip4:192.0.2.1"

    def test_dns_mechanism_count(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 a mx -all"))
        zone.add("example.com", A("192.0.2.1"))
        zone.add("example.com", MX(10, "m.example.com"))
        zone.add("m", A("192.0.2.2"))
        evaluator, _ = build(zone)
        outcome = check(evaluator, "8.8.8.8")
        assert outcome.dns_mechanism_count == 2

    def test_str(self):
        zone = Zone("example.com")
        zone.add("example.com", TXT("v=spf1 -all"))
        evaluator, _ = build(zone)
        assert "fail" in str(check(evaluator, "8.8.8.8"))
