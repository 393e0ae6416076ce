"""Tests for the unique label allocator."""

import pytest

from repro.core.labels import LabelAllocator
from repro.dns.name import Name
from repro.errors import SimulationError

BASE = Name.from_text("spf-test.dns-lab.org")


@pytest.fixture()
def allocator():
    return LabelAllocator(BASE)


class TestSuites:
    def test_suites_unique(self, allocator):
        suites = [allocator.new_suite() for _ in range(50)]
        assert len(set(suites)) == 50

    def test_suite_labels_are_dns_safe(self, allocator):
        suite = allocator.new_suite()
        assert suite.isalnum()
        assert suite == suite.lower()


class TestIds:
    def test_ids_unique_within_suite(self, allocator):
        suite = allocator.new_suite()
        ids = [allocator.new_id(suite, f"10.0.0.{i}") for i in range(200)]
        assert len(set(ids)) == 200

    def test_id_length_four_or_five(self, allocator):
        suite = allocator.new_suite()
        for i in range(100):
            assert len(allocator.new_id(suite, "10.0.0.1")) in (4, 5)

    def test_unknown_suite_rejected(self, allocator):
        with pytest.raises(SimulationError):
            allocator.new_id("never-created", "10.0.0.1")

    def test_ip_binding(self, allocator):
        suite = allocator.new_suite()
        test_id = allocator.new_id(suite, "10.1.2.3")
        assert allocator.ip_for(suite, test_id) == "10.1.2.3"
        assert allocator.ip_for(suite, "unknown") is None

    def test_suites_isolated(self, allocator):
        s1 = allocator.new_suite()
        s2 = allocator.new_suite()
        id1 = allocator.new_id(s1, "10.0.0.1")
        id2 = allocator.new_id(s2, "10.0.0.2")
        # Same counter position yields the same label text, but the suite
        # label disambiguates; bindings stay separate.
        assert allocator.ip_for(s1, id1) == "10.0.0.1"
        assert allocator.ip_for(s2, id2) == "10.0.0.2"


class TestMailFrom:
    def test_domain_format(self, allocator):
        suite = allocator.new_suite()
        test_id = allocator.new_id(suite, "10.0.0.1")
        domain = allocator.mail_from_domain(suite, test_id)
        assert domain == f"{test_id}.{suite}.spf-test.dns-lab.org"


class TestReservedBlocks:
    def test_ids_come_from_the_reserved_block(self, allocator):
        suite = allocator.new_suite()
        allocator.reserve_block(suite, 4, 2)
        first = allocator.new_id(suite, "10.0.0.1")
        second = allocator.new_id(suite, "10.0.0.1")
        allocator.release_block()
        # Sequential ids continue above the highest reservation.
        after = allocator.new_id(suite, "10.0.0.2")
        allocator.reserve_block(suite, 4, 2)
        assert allocator.new_id(suite, "10.0.0.1") == first
        assert len({first, second, after}) == 3
        assert allocator.ip_for(suite, after) == "10.0.0.2"

    def test_overrunning_a_block_raises(self, allocator):
        suite = allocator.new_suite()
        allocator.reserve_block(suite, 0, 2)
        allocator.new_id(suite, "10.0.0.1")
        allocator.new_id(suite, "10.0.0.1")
        with pytest.raises(SimulationError, match="exhausted"):
            allocator.new_id(suite, "10.0.0.1")

    def test_block_is_bound_to_its_suite(self, allocator):
        reserved = allocator.new_suite()
        other = allocator.new_suite()
        allocator.reserve_block(reserved, 0, 2)
        with pytest.raises(SimulationError):
            allocator.new_id(other, "10.0.0.1")
