"""Tests for repro.dns.zone."""

import ipaddress

import pytest

from repro.dns.name import Name
from repro.dns.rdata import A, RRType, TXT
from repro.dns.zone import LookupStatus, Zone
from repro.errors import DnsError


@pytest.fixture()
def zone():
    z = Zone("example.com")
    z.add("example.com", TXT("v=spf1 -all"))
    z.add("mail", A("192.0.2.25"))
    z.add("mail", A("192.0.2.26"))
    z.add("a.b.deep", A("192.0.2.99"))
    z.add("*.wild", A("192.0.2.77"))
    return z


def _lookup(zone, name, rrtype=RRType.A):
    return zone.lookup(Name.from_text(name), rrtype)


class TestAdd:
    def test_relative_names_resolve_against_origin(self, zone):
        zone.add("ftp", A("192.0.2.1"))
        result = _lookup(zone, "ftp.example.com")
        assert result.status == LookupStatus.SUCCESS
        assert result.records[0].name == Name.from_text("ftp.example.com")

    def test_absolute_names_accepted(self, zone):
        zone.add("ftp.example.com", A("192.0.2.1"))
        assert _lookup(zone, "ftp.example.com").status == LookupStatus.SUCCESS
        assert _lookup(zone, "ftp.example.com.example.com").status == (
            LookupStatus.NXDOMAIN
        )

    def test_out_of_zone_rejected(self, zone):
        with pytest.raises(DnsError):
            zone.add(Name.from_text("other.org"), A("192.0.2.1"))

    def test_apex_soa_synthesized(self, zone):
        assert zone.soa.rrtype == RRType.SOA


class TestLookup:
    def test_exact_match(self, zone):
        result = _lookup(zone, "mail.example.com")
        assert result.status == LookupStatus.SUCCESS
        assert len(result.records) == 2

    def test_case_insensitive(self, zone):
        assert _lookup(zone, "MAIL.Example.COM").status == LookupStatus.SUCCESS

    def test_nodata_for_missing_type(self, zone):
        assert _lookup(zone, "mail.example.com", RRType.MX).status == LookupStatus.NODATA

    def test_nxdomain(self, zone):
        assert _lookup(zone, "missing.example.com").status == LookupStatus.NXDOMAIN

    def test_empty_non_terminal_is_nodata(self, zone):
        # "b.deep.example.com" exists only as an ancestor of a.b.deep.
        assert _lookup(zone, "b.deep.example.com").status == LookupStatus.NODATA

    def test_out_of_zone(self, zone):
        assert _lookup(zone, "elsewhere.org").status == LookupStatus.OUT_OF_ZONE


class TestWildcard:
    def test_wildcard_synthesis(self, zone):
        result = _lookup(zone, "anything.wild.example.com")
        assert result.status == LookupStatus.SUCCESS
        assert result.records[0].name == Name.from_text("anything.wild.example.com")
        assert result.records[0].rdata.address == ipaddress.IPv4Address("192.0.2.77")

    def test_wildcard_multiple_levels(self, zone):
        # Closest-encloser wildcard also covers deeper names here.
        result = _lookup(zone, "x.wild.example.com")
        assert result.status == LookupStatus.SUCCESS

    def test_wildcard_nodata_for_other_type(self, zone):
        result = _lookup(zone, "x.wild.example.com", RRType.MX)
        assert result.status == LookupStatus.NODATA

