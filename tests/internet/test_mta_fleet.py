"""Tests for hosting-fleet generation."""

import collections

import pytest

from repro.clock import SimulatedClock, utc
from repro.dns import CachingResolver, Message, Name, RRType
from repro.internet.mta_fleet import (
    ALEXA_PROFILE,
    TWO_WEEK_PROFILE,
    UnitCategory,
    VULNERABLE_ELIGIBILITY_MAX_DOMAINS,
    _solve_class_probs,
    build_fleet,
)
from repro.internet.population import (
    DomainSet,
    PopulationConfig,
    VULNERABLE_PROVIDER_DOMAINS,
    generate_population,
)
from repro.smtp.policies import SpfTiming


@pytest.fixture(scope="module")
def population():
    return generate_population(PopulationConfig(scale=0.02, seed=11))


@pytest.fixture(scope="module")
def fleet(population):
    return build_fleet(population)


class TestCoverage:
    def test_every_domain_in_exactly_one_unit(self, population, fleet):
        counts = collections.Counter()
        for unit in fleet.units:
            for domain in unit.domains:
                counts[domain.name] += 1
        assert set(counts) == {d.name for d in population.domains}
        assert all(c == 1 for c in counts.values())

    def test_all_ips_unique(self, fleet):
        ips = [ip for unit in fleet.units for ip in unit.all_ips]
        assert len(ips) == len(set(ips))

    def test_lookup_structures_consistent(self, fleet):
        for unit in fleet.units[:100]:
            for domain in unit.domains:
                assert fleet.unit_for_domain(domain.name) is unit
            for ip in unit.all_ips:
                assert fleet.unit_for_ip(ip) is unit
        assert fleet.unit_for_domain("not-generated.example") is None
        assert fleet.unit_for_ip("203.0.113.254") is None

    def test_every_unit_has_an_ip(self, fleet):
        assert all(unit.ips for unit in fleet.units)


class TestDnsBackend:
    def test_mx_resolution_path(self, fleet):
        unit = fleet.units[30]
        domain = unit.domains[0]
        backend = fleet.dns_backend
        mx = backend.query(
            Message.make_query(Name.from_text(domain.name), RRType.MX)
        )
        assert mx.answers
        exchange = mx.answers[0].rdata.exchange
        a = backend.query(Message.make_query(exchange, RRType.A))
        assert {str(rr.rdata.address) for rr in a.answers} == set(unit.ips)

    def test_unknown_domain_nxdomain(self, fleet):
        from repro.dns import Rcode

        response = fleet.dns_backend.query(
            Message.make_query(Name.from_text("not-generated.example"), RRType.MX)
        )
        assert response.rcode == Rcode.NXDOMAIN

    def test_nodata_for_other_types(self, fleet):
        unit = fleet.units[30]
        response = fleet.dns_backend.query(
            Message.make_query(Name.from_text(unit.domains[0].name), RRType.A)
        )
        # The domain has MX but (in this model) no apex A record.
        assert not response.answers


class TestCalibration:
    """The generated fleet must hit the paper's Table 3/4 shape."""

    def test_ip_level_refusal_rate(self, population, fleet):
        alexa = [
            u for u in fleet.units
            if u.domains[0].in_set(DomainSet.ALEXA_TOP_LIST)
            and not u.domains[0].in_set(DomainSet.TOP_EMAIL_PROVIDERS)
        ]
        refused = sum(1 for u in alexa if u.category == UnitCategory.REFUSE)
        assert abs(refused / len(alexa) - ALEXA_PROFILE.ip_targets[UnitCategory.REFUSE]) < 0.05

    def test_domain_level_refusal_rate_lower(self, fleet):
        alexa = [
            u for u in fleet.units
            if u.domains[0].in_set(DomainSet.ALEXA_TOP_LIST)
            and not u.domains[0].in_set(DomainSet.TOP_EMAIL_PROVIDERS)
        ]
        total_domains = sum(len(u.domains) for u in alexa)
        refused_domains = sum(
            len(u.domains) for u in alexa if u.category == UnitCategory.REFUSE
        )
        refused_units = sum(1 for u in alexa if u.category == UnitCategory.REFUSE)
        # Hosting-size structure: domain-level refusal well below IP-level.
        assert refused_domains / total_domains < refused_units / len(alexa)

    def test_vulnerable_rate_among_validating(self, fleet):
        validating = [u for u in fleet.units if u.category.validates_spf]
        vulnerable = [u for u in validating if u.is_vulnerable]
        assert 0.08 < len(vulnerable) / len(validating) < 0.30

    def test_vulnerable_domains_per_ip_near_paper(self, fleet):
        vulnerable = fleet.vulnerable_units()
        domains = sum(len(u.domains) for u in vulnerable)
        ips = sum(len(u.ips) for u in vulnerable)
        # Paper: 18,660 domains on 7,212 addresses ~ 2.6 domains/address.
        assert 1.0 < domains / ips < 5.0

    def test_mega_units_never_vulnerable(self, fleet):
        for unit in fleet.units:
            if len(unit.domains) > VULNERABLE_ELIGIBILITY_MAX_DOMAINS:
                assert not unit.is_vulnerable

    def test_spf_timing_consistent_with_category(self, fleet):
        for unit in fleet.units:
            if unit.category == UnitCategory.SPF_NOMSG:
                assert unit.spf_timing in (
                    SpfTiming.ON_MAIL_FROM, SpfTiming.ON_DATA_COMMAND,
                )
            elif unit.category == UnitCategory.SPF_BLANKMSG:
                assert unit.spf_timing == SpfTiming.AFTER_MESSAGE
            else:
                assert unit.behavior_name is None


class TestSolver:
    def test_exact_solution_recovers_targets(self):
        small, large = _solve_class_probs(
            ALEXA_PROFILE.ip_targets,
            ALEXA_PROFILE.domain_targets,
            unit_share_small=0.9,
            domain_share_small=0.45,
        )
        for category in UnitCategory:
            reconstructed_ip = 0.9 * small[category] + 0.1 * large[category]
            assert abs(reconstructed_ip - ALEXA_PROFILE.ip_targets[category]) < 0.05

    def test_probabilities_are_distributions(self):
        small, large = _solve_class_probs(
            TWO_WEEK_PROFILE.ip_targets,
            TWO_WEEK_PROFILE.domain_targets,
            unit_share_small=0.93,
            domain_share_small=0.55,
        )
        for probs in (small, large):
            assert abs(sum(probs.values()) - 1.0) < 1e-9
            assert all(p >= 0 for p in probs.values())


class TestProviders:
    def test_vulnerable_providers_configured(self, fleet):
        for name in VULNERABLE_PROVIDER_DOMAINS:
            unit = fleet.unit_for_domain(name)
            assert unit.is_vulnerable
            assert unit.category == UnitCategory.SPF_BLANKMSG

    def test_providers_never_refuse(self, fleet):
        providers = [
            u for u in fleet.units
            if u.domains[0].in_set(DomainSet.TOP_EMAIL_PROVIDERS)
        ]
        assert len(providers) == 20
        assert all(u.category != UnitCategory.REFUSE for u in providers)

    def test_providers_multi_homed(self, fleet):
        providers = [
            u for u in fleet.units
            if u.domains[0].in_set(DomainSet.TOP_EMAIL_PROVIDERS)
        ]
        assert all(len(u.ips) >= 2 for u in providers)


class TestNetworkMaterialization:
    def test_servers_match_unit_config(self, population, fleet):
        clock = SimulatedClock()
        resolver = CachingResolver(clock=lambda: clock.now)
        network = fleet.build_network(lambda: clock.now, resolver)
        assert len(network) == sum(len(u.all_ips) for u in fleet.units)
        vulnerable_unit = fleet.vulnerable_units()[0]
        server = network.server_at(vulnerable_unit.ips[0])
        assert server.is_vulnerable

    def test_moves_flip_addresses(self, population):
        fleet = build_fleet(population)
        movers = [u for u in fleet.units if u.moves_at is not None and u.new_ips]
        if not movers:
            pytest.skip("no movers generated at this scale/seed")
        clock = SimulatedClock()
        resolver = CachingResolver(clock=lambda: clock.now)
        network = fleet.build_network(lambda: clock.now, resolver)
        mover = movers[0]
        old_server = network.server_at(mover.ips[0])
        new_server = network.server_at(mover.new_ips[0])
        assert not old_server.policy.refuse_connections or mover.category == UnitCategory.REFUSE
        assert new_server.policy.refuse_connections  # not alive yet
        clock.advance_to(utc(2022, 2, 1))
        # The lazy network folds moves in on touch: re-fetching the
        # servers after advancing the clock observes the flip.
        old_server = network.server_at(mover.ips[0])
        new_server = network.server_at(mover.new_ips[0])
        assert old_server.policy.refuse_connections
        assert not new_server.policy.refuse_connections
        # DNS now points at the new addresses.
        response = fleet.dns_backend.query(
            Message.make_query(Name.from_text(mover.mail_hostname), RRType.A),
            now=clock.now,
        )
        assert {str(rr.rdata.address) for rr in response.answers} == set(mover.new_ips)


class TestUnitCache:
    def test_every_unit_materialized_once_above_the_old_lru_cap(self):
        # Scale 0.12 holds more units than the 16,384-unit LRU that
        # once dropped them between touches.
        fleet = build_fleet(
            generate_population(PopulationConfig(scale=0.12, seed=11))
        )
        assert fleet.unit_count > 16_384
        for _ in range(2):
            for _unit in fleet.units:
                pass
        assert fleet.unit_materializations == fleet.unit_count


class TestDeterminism:
    def test_same_population_same_fleet(self, population):
        a = build_fleet(population)
        b = build_fleet(population)
        assert [u.category for u in a.units] == [u.category for u in b.units]
        assert [u.behavior_name for u in a.units] == [u.behavior_name for u in b.units]
