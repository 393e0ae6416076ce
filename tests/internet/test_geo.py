"""Tests for the geolocation model."""

import pytest

from repro.internet.geo import GeoLocation, assign_geography
from repro.internet.mta_fleet import build_fleet
from repro.internet.population import PopulationConfig, generate_population
from repro.internet.tld import TldModel


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(generate_population(PopulationConfig(scale=0.01, seed=5)))


@pytest.fixture(scope="module")
def geo(fleet):
    return assign_geography(fleet, seed=5)


class TestAssignment:
    def test_every_ip_located(self, fleet, geo):
        for unit in fleet.units:
            for ip in unit.all_ips:
                assert geo.locate(ip) is not None

    def test_cc_tld_units_placed_in_their_country(self, fleet, geo):
        for unit in fleet.units:
            country = TldModel.country_for(unit.primary_tld)
            if country is not None:
                assert unit.country == country
                assert geo.locate(unit.ips[0]).country == country

    def test_generic_tld_units_spread_across_countries(self, fleet, geo):
        com_countries = {
            unit.country for unit in fleet.units if unit.primary_tld == "com"
        }
        assert len(com_countries) >= 5

    def test_jitter_bounded(self, fleet, geo):
        for unit in fleet.units[:100]:
            base_lat, base_lon = TldModel.coords_for_country(unit.country)
            for ip in unit.ips:
                location = geo.locate(ip)
                assert abs(location.latitude - base_lat) <= 4.01
                assert abs(location.longitude - base_lon) <= 4.01

    def test_coordinates_in_valid_range(self, fleet, geo):
        for unit in fleet.units[:200]:
            location = geo.locate(unit.ips[0])
            assert -90 <= location.latitude <= 90
            assert -180 <= location.longitude <= 180

    def test_deterministic(self, fleet):
        a = assign_geography(fleet, seed=5)
        b = assign_geography(fleet, seed=5)
        ip = fleet.units[0].ips[0]
        assert a.locate(ip) == b.locate(ip)


class TestBuckets:
    def test_bucket_math(self):
        location = GeoLocation(latitude=52.5, longitude=13.4, country="Germany")
        assert location.bucket(10.0) == (5, 1)
        assert location.bucket(5.0) == (10, 2)

    def test_negative_coordinates_bucket(self):
        location = GeoLocation(latitude=-26.2, longitude=28.0, country="South Africa")
        assert location.bucket(10.0) == (-3, 2)

    def test_unknown_ips_skipped(self, geo):
        assert geo.locate("203.0.113.254") is None
