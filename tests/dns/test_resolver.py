"""Tests for the caching resolver and stub resolver."""

import datetime as dt

import pytest

from repro.clock import SimulatedClock
from repro.dns.message import Message, Rcode
from repro.dns.name import Name
from repro.dns.rdata import A, MX, RRType, TXT
from repro.dns.resolver import CachingResolver, StubResolver
from repro.dns.server import AuthoritativeServer, SpfTestResponder
from repro.dns.zone import Zone
from repro.errors import ResolutionError
from repro.obs import Observation, observing


@pytest.fixture()
def clock():
    return SimulatedClock()


@pytest.fixture()
def setup(clock):
    zone = Zone("example.com")
    zone.add("example.com", TXT("v=spf1 -all"))
    zone.add("example.com", MX(20, "mx2.example.com"))
    zone.add("example.com", MX(10, "mx1.example.com"))
    zone.add("mx1", A("192.0.2.1"))
    zone.add("mx2", A("192.0.2.2"))
    auth = AuthoritativeServer([zone])
    resolver = CachingResolver(clock=lambda: clock.now)
    resolver.register("example.com", auth)
    return resolver, auth


class TestRouting:
    def test_routes_to_registered_backend(self, setup):
        resolver, _ = setup
        response = resolver.query(
            Message.make_query(Name.from_text("mx1.example.com"), RRType.A)
        )
        assert response.answers

    def test_servfail_for_unrouted_name(self, setup):
        resolver, _ = setup
        response = resolver.query(
            Message.make_query(Name.from_text("other.org"), RRType.A)
        )
        assert response.rcode == Rcode.SERVFAIL

    def test_longest_suffix_wins(self, clock):
        broad = SpfTestResponder(Name.from_text("org"))
        narrow = SpfTestResponder(Name.from_text("spf-test.dns-lab.org"))
        resolver = CachingResolver(clock=lambda: clock.now)
        resolver.register("org", broad)
        resolver.register("spf-test.dns-lab.org", narrow)
        resolver.query(
            Message.make_query(
                Name.from_text("x.id1.s1.spf-test.dns-lab.org"), RRType.A
            )
        )
        assert len(narrow.log) == 1
        assert len(broad.log) == 0


class TestCaching:
    def test_positive_cache_hit(self, setup):
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("mx1.example.com"), RRType.A)
        )
        query()
        query()
        assert resolver.cache_hits == 1

    def test_cache_expires_with_ttl(self, setup, clock):
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("mx1.example.com"), RRType.A)
        )
        query()
        clock.advance(dt.timedelta(seconds=301))  # zone default TTL is 300
        query()
        assert resolver.cache_hits == 0

    def test_negative_answers_cached(self, setup):
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("missing.example.com"), RRType.A)
        )
        first = query()
        assert first.rcode == Rcode.NXDOMAIN
        second = query()
        assert second.rcode == Rcode.NXDOMAIN
        assert resolver.cache_hits == 1

    def test_flush_clears_cache(self, setup):
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("mx1.example.com"), RRType.A)
        )
        query()
        resolver.flush()
        query()
        assert resolver.cache_hits == 0

    def test_unique_labels_defeat_caching(self, clock):
        """The measurement-critical property: every probe's unique labels
        guarantee its queries reach the measurement server uncached."""
        responder = SpfTestResponder(Name.from_text("spf-test.dns-lab.org"))
        resolver = CachingResolver(clock=lambda: clock.now)
        resolver.register("spf-test.dns-lab.org", responder)
        for i in range(10):
            resolver.query(
                Message.make_query(
                    Name.from_text(f"id{i}.s1.spf-test.dns-lab.org"), RRType.TXT
                )
            )
        assert len(responder.log) == 10
        assert resolver.cache_hits == 0


class TestCacheCorrectness:
    """Regression tests for the PR-4 cache fixes (authority replay,
    RFC 2308 negative TTLs, exact-expiry boundary, metrics)."""

    def test_entry_dead_at_exact_expiry(self, setup, clock):
        """An entry whose lifetime has fully elapsed must not be served:
        ``expires > timestamp`` is strict, so at exactly TTL seconds the
        resolver goes back to the backend."""
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("mx1.example.com"), RRType.A)
        )
        query()
        clock.advance(dt.timedelta(seconds=300))  # exactly the zone TTL
        query()
        assert resolver.cache_hits == 0

    def test_entry_alive_just_before_expiry(self, setup, clock):
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("mx1.example.com"), RRType.A)
        )
        query()
        clock.advance(dt.timedelta(seconds=299))
        query()
        assert resolver.cache_hits == 1

    def test_negative_ttl_honors_soa_minimum(self, clock):
        """RFC 2308: a negative answer is cacheable for min(SOA TTL,
        SOA.minimum), not a hardwired constant."""
        zone = Zone("example.com")
        zone.add("mx1", A("192.0.2.1"))
        zone.soa.rdata.minimum = 30  # much shorter than NEGATIVE_TTL
        resolver = CachingResolver(clock=lambda: clock.now)
        resolver.register("example.com", AuthoritativeServer([zone]))
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("missing.example.com"), RRType.A)
        )
        query()
        clock.advance(dt.timedelta(seconds=29))
        query()
        assert resolver.cache_hits == 1
        clock.advance(dt.timedelta(seconds=1))  # 30s: past the SOA minimum
        query()
        assert resolver.cache_hits == 1

    def test_negative_ttl_falls_back_without_soa(self, clock):
        """A negative answer with no SOA in the authority section keeps
        the flat NEGATIVE_TTL fallback."""

        class BareBackend:
            def query(self, message, *, source="", now=None):
                return message.make_response(Rcode.NXDOMAIN)

        resolver = CachingResolver(clock=lambda: clock.now)
        resolver.register("bare.org", BareBackend())
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("gone.bare.org"), RRType.A)
        )
        first = query()
        assert not first.answers and not first.authority
        clock.advance(dt.timedelta(seconds=CachingResolver.NEGATIVE_TTL - 1))
        query()
        assert resolver.cache_hits == 1
        clock.advance(dt.timedelta(seconds=1))
        query()
        assert resolver.cache_hits == 1

    def test_zero_ttl_answers_never_cached(self, setup, clock):
        resolver, _ = setup
        zone = Zone("volatile.org", default_ttl=300)
        zone.add("fast", A("192.0.2.9"), ttl=0)
        resolver.register("volatile.org", AuthoritativeServer([zone]))
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("fast.volatile.org"), RRType.A)
        )
        query()
        query()
        assert resolver.cache_hits == 0

    def test_authority_section_replayed_on_hit(self, setup):
        """A cached negative answer must still carry the SOA authority
        record — downstream negative-TTL logic depends on it."""
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("missing.example.com"), RRType.A)
        )
        first = query()
        cached = query()
        assert resolver.cache_hits == 1
        assert cached.authority, "cache hit dropped the authority section"
        assert cached.authority == first.authority
        assert any(rr.rrtype == RRType.SOA for rr in cached.authority)

    def test_cached_response_identical_to_first(self, setup):
        """End to end: the first upstream answer and every cached replay
        of it must agree in every observable field."""
        resolver, _ = setup
        for qname, rrtype in (
            ("mx1.example.com", RRType.A),       # positive
            ("missing.example.com", RRType.A),   # negative
            ("example.com", RRType.MX),          # multi-record
        ):
            query = lambda: resolver.query(
                Message.make_query(Name.from_text(qname), rrtype)
            )
            first, cached = query(), query()
            assert cached.rcode == first.rcode
            assert cached.answers == first.answers
            assert cached.authority == first.authority
            assert cached.question == first.question

    def test_metrics_published_when_observing(self, setup):
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("mx1.example.com"), RRType.A)
        )
        obs = Observation()
        with observing(obs):
            query()
            query()
        queries = obs.metrics.counter("dns.resolver.queries")
        hits = obs.metrics.counter("dns.resolver.cache_hits")
        assert queries.total == 2
        assert queries.by_key().get("A") == 2
        assert hits.total == 1
        assert hits.by_key().get("A") == 1

    def test_metrics_optional_without_observation(self, setup):
        """The resolver must not require an active Observation."""
        resolver, _ = setup
        response = resolver.query(
            Message.make_query(Name.from_text("mx1.example.com"), RRType.A)
        )
        assert response.answers
        assert resolver.query_count == 1


class TestTtlDecay:
    """Regression tests for the PR-9 replay fix: cached records must be
    served with their *remaining* lifetime (RFC 1035 section 3.2.1), not
    the TTL they arrived with."""

    def test_answer_ttl_decays_on_cache_hit(self, setup, clock):
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("mx1.example.com"), RRType.A)
        )
        first = query()
        assert first.answers[0].ttl == 300
        clock.advance(dt.timedelta(seconds=120))
        cached = query()
        assert resolver.cache_hits == 1
        assert cached.answers[0].ttl == 180

    def test_ttl_decays_monotonically_across_hits(self, setup, clock):
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("example.com"), RRType.MX)
        )
        query()
        seen = []
        for _ in range(3):
            clock.advance(dt.timedelta(seconds=90))
            seen.append([rr.ttl for rr in query().answers])
        assert seen == [[210, 210], [120, 120], [30, 30]]
        assert resolver.cache_hits == 3

    def test_last_second_replay_serves_remaining_lifetime(self, setup, clock):
        """Just before expiry the record is alive with exactly 1 s left —
        never the original TTL, and never past its remaining lifetime."""
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("mx2.example.com"), RRType.A)
        )
        query()
        clock.advance(dt.timedelta(seconds=299))
        cached = query()
        assert resolver.cache_hits == 1
        assert cached.answers[0].ttl == 1

    def test_authority_ttl_decays_on_negative_hit(self, setup, clock):
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("missing.example.com"), RRType.A)
        )
        first = query()
        soa_ttl = first.authority[0].ttl
        clock.advance(dt.timedelta(seconds=100))
        cached = query()
        assert resolver.cache_hits == 1
        assert cached.authority[0].ttl == soa_ttl - 100

    def test_zero_elapsed_replay_is_identical(self, setup):
        """With no clock movement the replay is indistinguishable from the
        first answer — decay must not perturb same-instant hits."""
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("mx1.example.com"), RRType.A)
        )
        first, cached = query(), query()
        assert cached.answers == first.answers


class _FlakyBackend:
    """Fails the first ``failures`` queries with ``rcode``, then recovers."""

    def __init__(self, healthy, failures=1, rcode=Rcode.SERVFAIL):
        self.healthy = healthy
        self.failures = failures
        self.rcode = rcode
        self.calls = 0

    def query(self, message, *, source="", now=None):
        self.calls += 1
        if self.calls <= self.failures:
            return message.make_response(self.rcode)
        return self.healthy.query(message, source=source, now=now)


class TestFailurePassthrough:
    """Regression tests for the PR-9 negative-caching fix: RFC 2308
    section 7 — only NXDOMAIN and NOERROR/NODATA are cacheable negatives;
    SERVFAIL and friends signal transient conditions and must pass
    through uncached."""

    @pytest.fixture()
    def flaky(self, clock):
        zone = Zone("example.com")
        zone.add("mx1", A("192.0.2.1"))
        backend = _FlakyBackend(AuthoritativeServer([zone]))
        resolver = CachingResolver(clock=lambda: clock.now)
        resolver.register("example.com", backend)
        return resolver, backend

    def test_servfail_not_cached(self, flaky, clock):
        resolver, backend = flaky
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("mx1.example.com"), RRType.A)
        )
        first = query()
        assert first.rcode == Rcode.SERVFAIL
        clock.advance(dt.timedelta(seconds=1))  # well inside NEGATIVE_TTL
        second = query()
        assert backend.calls == 2, "SERVFAIL was cached and masked recovery"
        assert second.rcode == Rcode.NOERROR
        assert second.answers
        assert resolver.cache_hits == 0

    def test_formerr_not_cached(self, flaky, clock):
        resolver, backend = flaky
        backend.rcode = Rcode.FORMERR
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("mx1.example.com"), RRType.A)
        )
        assert query().rcode == Rcode.FORMERR
        clock.advance(dt.timedelta(seconds=1))
        assert query().rcode == Rcode.NOERROR
        assert backend.calls == 2

    def test_recovered_answer_is_cached_normally(self, flaky, clock):
        resolver, backend = flaky
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("mx1.example.com"), RRType.A)
        )
        query()  # SERVFAIL, uncached
        clock.advance(dt.timedelta(seconds=1))
        query()  # real answer, cached
        query()  # served from cache
        assert backend.calls == 2
        assert resolver.cache_hits == 1

    def test_nodata_negative_still_cached(self, setup, clock):
        """NOERROR with an empty answer section (NODATA) remains a
        cacheable negative — only *failures* pass through."""
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("mx1.example.com"), RRType.TXT)
        )
        first = query()
        assert first.rcode == Rcode.NOERROR and not first.answers
        query()
        assert resolver.cache_hits == 1

    def test_nxdomain_still_cached(self, setup):
        resolver, _ = setup
        query = lambda: resolver.query(
            Message.make_query(Name.from_text("missing.example.com"), RRType.A)
        )
        assert query().rcode == Rcode.NXDOMAIN
        query()
        assert resolver.cache_hits == 1


class TestStubResolver:
    def test_get_txt(self, setup, clock):
        resolver, _ = setup
        stub = StubResolver(resolver, clock=lambda: clock.now)
        assert stub.get_txt("example.com") == ["v=spf1 -all"]

    def test_get_mx_sorted_by_preference(self, setup, clock):
        resolver, _ = setup
        stub = StubResolver(resolver, clock=lambda: clock.now)
        exchanges = stub.get_mx("example.com")
        assert [pref for pref, _ in exchanges] == [10, 20]
        assert exchanges[0][1] == Name.from_text("mx1.example.com")

    def test_get_addresses(self, setup, clock):
        resolver, _ = setup
        stub = StubResolver(resolver, clock=lambda: clock.now)
        addresses = stub.get_addresses("mx1.example.com", want_ipv6=False)
        assert [str(a) for a in addresses] == ["192.0.2.1"]

    def test_nxdomain_returns_empty(self, setup, clock):
        resolver, _ = setup
        stub = StubResolver(resolver, clock=lambda: clock.now)
        assert stub.get_txt("nothing.example.com") == []

    def test_servfail_raises(self, setup, clock):
        resolver, _ = setup
        stub = StubResolver(resolver, clock=lambda: clock.now)
        with pytest.raises(ResolutionError):
            stub.get_txt("unrouted.org")

    def test_identity_reaches_query_log(self, clock):
        responder = SpfTestResponder(Name.from_text("spf-test.dns-lab.org"))
        resolver = CachingResolver(clock=lambda: clock.now)
        resolver.register("spf-test.dns-lab.org", responder)
        stub = StubResolver(resolver, identity="10.9.8.7", clock=lambda: clock.now)
        stub.get_txt("aa.s1.spf-test.dns-lab.org")
        assert list(responder.log)[-1].source == "10.9.8.7"
