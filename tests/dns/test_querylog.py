"""Tests for the measurement-side query log."""

import datetime as dt

import pytest

from repro.dns.name import Name
from repro.dns.querylog import QueryLog
from repro.dns.rdata import RRType

BASE = Name.from_text("spf-test.dns-lab.org")
T0 = dt.datetime(2021, 10, 11, tzinfo=dt.timezone.utc)


@pytest.fixture()
def log():
    return QueryLog(BASE)


def record(log, name, rrtype=RRType.A, minutes=0, source="resolver"):
    return log.record(
        T0 + dt.timedelta(minutes=minutes), Name.from_text(name), rrtype, source
    )


class TestLabelExtraction:
    def test_id_and_suite_extracted(self, log):
        labels = log.extract_labels(Name.from_text("ab1.s9.spf-test.dns-lab.org"))
        assert labels == ("s9", "ab1")

    def test_prefix_labels_ignored_for_extraction(self, log):
        labels = log.extract_labels(
            Name.from_text("x.y.z.ab1.s9.spf-test.dns-lab.org")
        )
        assert labels == ("s9", "ab1")

    def test_case_normalized(self, log):
        labels = log.extract_labels(Name.from_text("AB1.S9.spf-test.dns-lab.org"))
        assert labels == ("s9", "ab1")

    def test_outside_base_is_none(self, log):
        assert log.extract_labels(Name.from_text("ab1.s9.other.org")) is None

    def test_too_shallow_is_none(self, log):
        assert log.extract_labels(Name.from_text("s9.spf-test.dns-lab.org")) is None


class TestEntriesFor:
    def test_indexed_by_labels(self, log):
        record(log, "ab1.s9.spf-test.dns-lab.org", RRType.TXT)
        record(log, "q.ab1.s9.spf-test.dns-lab.org")
        record(log, "q.zz9.s9.spf-test.dns-lab.org")
        assert len(log.entries_for("s9", "ab1")) == 2
        assert len(log.entries_for("s9", "zz9")) == 1
        assert log.entries_for("s9", "nope") == []

    def test_len_and_iter(self, log):
        record(log, "ab1.s9.spf-test.dns-lab.org")
        record(log, "other.org")  # outside base: stored, unindexed
        assert len(log) == 2
        assert len(list(log)) == 2


class TestExpansionPrefixes:
    def test_prefix_returned_for_address_queries(self, log):
        record(log, "com.com.example.ab1.s9.spf-test.dns-lab.org", RRType.A)
        prefixes = log.expansion_prefixes("s9", "ab1")
        assert [str(p) for p in prefixes] == ["com.com.example"]

    def test_txt_fetch_excluded(self, log):
        record(log, "ab1.s9.spf-test.dns-lab.org", RRType.TXT)
        assert log.expansion_prefixes("s9", "ab1") == []

    def test_bare_policy_name_excluded(self, log):
        # An A query for the policy name itself carries no expansion.
        record(log, "ab1.s9.spf-test.dns-lab.org", RRType.A)
        assert log.expansion_prefixes("s9", "ab1") == []

    def test_aaaa_also_counts(self, log):
        record(log, "x.ab1.s9.spf-test.dns-lab.org", RRType.AAAA)
        assert len(log.expansion_prefixes("s9", "ab1")) == 1

    def test_mx_queries_excluded(self, log):
        record(log, "x.ab1.s9.spf-test.dns-lab.org", RRType.MX)
        assert log.expansion_prefixes("s9", "ab1") == []


class TestPolicyFetch:
    def test_saw_policy_fetch(self, log):
        assert not log.saw_policy_fetch("s9", "ab1")
        record(log, "ab1.s9.spf-test.dns-lab.org", RRType.TXT)
        assert log.saw_policy_fetch("s9", "ab1")

