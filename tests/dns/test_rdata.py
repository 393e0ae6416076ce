"""Tests for repro.dns.rdata."""

import ipaddress

import pytest

from repro.dns.name import Name
from repro.dns.rdata import (
    A,
    AAAA,
    MX,
    PTR,
    RRType,
    ResourceRecord,
    SOA,
    TXT,
)
from repro.errors import WireFormatError


class TestA:
    def test_text(self):
        assert A("192.0.2.1").address == ipaddress.IPv4Address("192.0.2.1")

    def test_accepts_ipaddress_object(self):
        address = ipaddress.IPv4Address("10.0.0.1")
        assert A(address).address is address

    def test_repr_shows_value(self):
        assert repr(A("192.0.2.1")) == "A(IPv4Address('192.0.2.1'))"


class TestTXT:
    def test_single_string(self):
        assert TXT("v=spf1 -all").text == "v=spf1 -all"

    def test_long_string_split_at_255(self):
        rdata = TXT("x" * 600)
        assert [len(s) for s in rdata.strings] == [255, 255, 90]
        assert rdata.text == "x" * 600

    def test_multiple_strings_concatenated(self):
        assert TXT(["v=spf1 ", "-all"]).text == "v=spf1 -all"


class TestMX:
    def test_fields(self):
        rdata = MX(10, "mail.example.com")
        assert rdata.preference == 10
        assert rdata.exchange == Name.from_text("mail.example.com")

    def test_preference_out_of_range(self):
        with pytest.raises(WireFormatError):
            MX(70000, "mail.example.com")


class TestSOA:
    def test_defaults(self):
        rdata = SOA("ns1.x", "root.x")
        assert rdata.minimum == 300


class TestValueEquality:
    """Record data compares and hashes by its own fields."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: A("192.0.2.1"),
            lambda: AAAA("2001:db8::1"),
            lambda: TXT(["v=spf1 ", "-all"]),
            lambda: MX(10, "mail.example.com"),
            lambda: TXT("x" * 600),
            lambda: MX(20, Name.from_text("Mail.Example.com")),
            lambda: PTR("host.example.org"),
            lambda: SOA("ns1.example.com", "hostmaster.example.com", serial=42),
        ],
    )
    def test_equal_values_are_equal_and_hash_alike(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize(
        "a,b",
        [
            (A("192.0.2.1"), A("192.0.2.2")),
            (TXT(["ab", "c"]), TXT(["a", "bc"])),
            (MX(10, "mx.example.com"), MX(20, "mx.example.com")),
            (MX(10, "mx.example.com"), MX(10, "mx2.example.com")),
            (A("192.0.2.1"), AAAA("::ffff:192.0.2.1")),
            (SOA("ns1.x", "root.x", serial=1), SOA("ns1.x", "root.x", serial=2)),
        ],
    )
    def test_differing_field_or_type_is_unequal(self, a, b):
        assert a != b

    def test_not_equal_to_other_objects(self):
        assert A("192.0.2.1") != "192.0.2.1"


class TestResourceRecord:
    def test_rrtype_delegates_to_rdata(self):
        rr = ResourceRecord(name=Name.from_text("a.com"), rdata=A("192.0.2.1"))
        assert rr.rrtype == RRType.A

    def test_equality_by_value(self):
        a = ResourceRecord(name=Name.from_text("a.com"), rdata=A("192.0.2.1"))
        b = ResourceRecord(name=Name.from_text("A.COM"), rdata=A("192.0.2.1"))
        assert a == b
