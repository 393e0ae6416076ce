"""Tests for the inference rules (paper Section 7.6)."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import utc
from repro.core.campaign import (
    DomainStatus,
    InitialMeasurement,
    IpInitialRecord,
    MeasurementRound,
)
from repro.core.detector import DetectionOutcome, DetectionResult
from repro.core.inference import (
    InferenceEngine,
    InferredStatus,
    IpTimeline,
    Provenance,
    RoundSummary,
)

T0 = utc(2021, 10, 11)
R1 = utc(2021, 10, 26)
R2 = utc(2021, 10, 28)
R3 = utc(2021, 10, 30)
R4 = utc(2021, 11, 1)


def make_initial(vulnerable_ips, domain_ips):
    records = {}
    for ips in domain_ips.values():
        for ip in ips:
            outcome = (
                DetectionOutcome.VULNERABLE
                if ip in vulnerable_ips
                else DetectionOutcome.COMPLIANT
            )
            records[ip] = IpInitialRecord(
                ip=ip,
                result=DetectionResult(ip=ip, suite="s", outcome=outcome),
            )
    status = {
        name: (
            DomainStatus.VULNERABLE
            if any(ip in vulnerable_ips for ip in ips)
            else DomainStatus.NOT_VULNERABLE
        )
        for name, ips in domain_ips.items()
    }
    return InitialMeasurement(
        date=T0, domain_ips=domain_ips, ip_records=records, domain_status=status
    )


def rounds(*specs):
    """specs: (date, {ip: outcome})"""
    return [MeasurementRound(date=date, results=dict(res)) for date, res in specs]


class TestIpTimeline:
    def test_rule1_vulnerable_inferred_backwards(self):
        timeline = IpTimeline("10.0.0.1")
        timeline.observe(R3, DetectionOutcome.VULNERABLE)
        status, provenance = timeline.status_at(R1)
        assert status == InferredStatus.VULNERABLE
        assert provenance == Provenance.INFERRED

    def test_rule2_patched_inferred_forwards(self):
        timeline = IpTimeline("10.0.0.1")
        timeline.observe(R1, DetectionOutcome.COMPLIANT)
        status, provenance = timeline.status_at(R4)
        assert status == InferredStatus.PATCHED
        assert provenance == Provenance.INFERRED

    def test_measured_beats_inferred(self):
        timeline = IpTimeline("10.0.0.1")
        timeline.observe(R1, DetectionOutcome.VULNERABLE)
        timeline.observe(R3, DetectionOutcome.VULNERABLE)
        status, provenance = timeline.status_at(R1)
        assert provenance == Provenance.MEASURED

    def test_gap_between_vulnerable_and_patched_inconclusive(self):
        timeline = IpTimeline("10.0.0.1")
        timeline.observe(R1, DetectionOutcome.VULNERABLE)
        timeline.observe(R4, DetectionOutcome.COMPLIANT)
        status, provenance = timeline.status_at(R2)
        assert status == InferredStatus.INCONCLUSIVE

    def test_erroneous_counts_as_patched(self):
        # Switching to a different (broken but not vulnerable) SPF library
        # still ends vulnerability.
        timeline = IpTimeline("10.0.0.1")
        timeline.observe(R2, DetectionOutcome.ERRONEOUS)
        status, _ = timeline.status_at(R3)
        assert status == InferredStatus.PATCHED

    def test_unmeasured_rounds_with_no_observations(self):
        timeline = IpTimeline("10.0.0.1")
        status, provenance = timeline.status_at(R1)
        assert status == InferredStatus.INCONCLUSIVE
        assert provenance == Provenance.NONE

    def test_failed_round_is_not_an_observation(self):
        timeline = IpTimeline("10.0.0.1")
        timeline.observe(R1, DetectionOutcome.VULNERABLE)
        timeline.observe(R2, DetectionOutcome.SMTP_FAILED)
        status, provenance = timeline.status_at(R2)
        # Falls back to rule 1 via the *later*... no later vulnerable here,
        # so only the R1 observation bounds it: R2 is past last_vulnerable.
        assert status == InferredStatus.INCONCLUSIVE


class TestEngineIpLevel:
    def test_initial_measurement_seeds_timelines(self):
        initial = make_initial({"10.0.0.1"}, {"a.com": ["10.0.0.1"]})
        engine = InferenceEngine(initial, [])
        status, _ = engine.ip_status("10.0.0.1", T0)
        assert status == InferredStatus.VULNERABLE

    def test_untracked_ip_inconclusive(self):
        initial = make_initial({"10.0.0.1"}, {"a.com": ["10.0.0.1"]})
        engine = InferenceEngine(initial, [])
        status, _ = engine.ip_status("10.9.9.9", T0)
        assert status == InferredStatus.INCONCLUSIVE

    def test_round_observations_applied(self):
        initial = make_initial({"10.0.0.1"}, {"a.com": ["10.0.0.1"]})
        engine = InferenceEngine(
            initial,
            rounds(
                (R1, {"10.0.0.1": DetectionOutcome.VULNERABLE}),
                (R2, {"10.0.0.1": DetectionOutcome.COMPLIANT}),
            ),
        )
        assert engine.ip_status("10.0.0.1", R1)[0] == InferredStatus.VULNERABLE
        assert engine.ip_status("10.0.0.1", R2)[0] == InferredStatus.PATCHED
        assert engine.ip_status("10.0.0.1", R3)[0] == InferredStatus.PATCHED


class TestEngineDomainLevel:
    def setup_engine(self):
        initial = make_initial(
            {"10.0.0.1", "10.0.0.2"},
            {"a.com": ["10.0.0.1", "10.0.0.2"], "b.com": ["10.0.0.2"]},
        )
        return InferenceEngine(
            initial,
            rounds(
                (R1, {
                    "10.0.0.1": DetectionOutcome.COMPLIANT,
                    "10.0.0.2": DetectionOutcome.VULNERABLE,
                }),
                (R2, {
                    "10.0.0.1": DetectionOutcome.COMPLIANT,
                    "10.0.0.2": DetectionOutcome.COMPLIANT,
                }),
            ),
        )

    def test_domain_vulnerable_while_any_ip_vulnerable(self):
        engine = self.setup_engine()
        assert engine.domain_status("a.com", R1)[0] == InferredStatus.VULNERABLE

    def test_domain_patched_when_all_ips_patched(self):
        engine = self.setup_engine()
        assert engine.domain_status("a.com", R2)[0] == InferredStatus.PATCHED

    def test_domain_with_single_ip_follows_it(self):
        engine = self.setup_engine()
        assert engine.domain_status("b.com", R1)[0] == InferredStatus.VULNERABLE
        assert engine.domain_status("b.com", R2)[0] == InferredStatus.PATCHED

    def test_unknown_domain_inconclusive(self):
        engine = self.setup_engine()
        assert engine.domain_status("zz.com", R1)[0] == InferredStatus.INCONCLUSIVE

    def test_only_initially_vulnerable_ips_considered(self):
        initial = make_initial(
            {"10.0.0.1"}, {"a.com": ["10.0.0.1", "10.0.0.5"]}
        )
        engine = InferenceEngine(initial, [])
        assert engine.domain_vulnerable_ips["a.com"] == ["10.0.0.1"]


class TestSummaries:
    def test_counts_partition(self):
        initial = make_initial(
            {"10.0.0.1", "10.0.0.2", "10.0.0.3"},
            {"a.com": ["10.0.0.1"], "b.com": ["10.0.0.2"], "c.com": ["10.0.0.3"]},
        )
        engine = InferenceEngine(
            initial,
            rounds(
                (R1, {
                    "10.0.0.1": DetectionOutcome.VULNERABLE,
                    "10.0.0.2": DetectionOutcome.SMTP_FAILED,
                }),
                (R2, {
                    "10.0.0.1": DetectionOutcome.COMPLIANT,
                    "10.0.0.3": DetectionOutcome.VULNERABLE,
                }),
            ),
        )
        for summary in engine.round_summaries_ips():
            assert summary.total == 3
            assert summary.measured + summary.inferred + summary.inconclusive == 3
            assert summary.vulnerable + summary.patched <= 3

    def test_rule1_shows_in_first_round(self):
        initial = make_initial({"10.0.0.1"}, {"a.com": ["10.0.0.1"]})
        engine = InferenceEngine(
            initial,
            rounds(
                (R1, {}),  # missed
                (R2, {"10.0.0.1": DetectionOutcome.VULNERABLE}),
            ),
        )
        first, second = engine.round_summaries_ips()
        assert first.inferred == 1  # rule 1 backfills R1
        assert second.measured == 1

    def test_vulnerable_fraction(self):
        initial = make_initial(
            {"10.0.0.1", "10.0.0.2"},
            {"a.com": ["10.0.0.1"], "b.com": ["10.0.0.2"]},
        )
        engine = InferenceEngine(
            initial,
            rounds(
                (R1, {
                    "10.0.0.1": DetectionOutcome.VULNERABLE,
                    "10.0.0.2": DetectionOutcome.COMPLIANT,
                }),
            ),
        )
        summary = engine.round_summaries_ips()[0]
        assert summary.vulnerable_fraction == 0.5

    def test_domain_summaries_filterable(self):
        engine = TestEngineDomainLevel().setup_engine()
        only_b = engine.round_summaries_domains(["b.com"])
        assert all(s.total == 1 for s in only_b)


# -- reference: the rules evaluated by scanning each observation list -------


def reference_ip_status(engine, ip, date):
    timeline = engine.timelines.get(ip)
    if timeline is None:
        return InferredStatus.INCONCLUSIVE, Provenance.NONE
    measured = next(
        (outcome for d, outcome in timeline.observations if d == date), None
    )
    if measured is not None and measured.spf_measured:
        status = (
            InferredStatus.VULNERABLE
            if measured == DetectionOutcome.VULNERABLE
            else InferredStatus.PATCHED
        )
        return status, Provenance.MEASURED
    vulnerable = [
        d for d, outcome in timeline.observations
        if outcome == DetectionOutcome.VULNERABLE
    ]
    patched = [
        d for d, outcome in timeline.observations
        if outcome.spf_measured and outcome != DetectionOutcome.VULNERABLE
    ]
    if vulnerable and date <= max(vulnerable):
        return InferredStatus.VULNERABLE, Provenance.INFERRED
    if patched and date >= min(patched):
        return InferredStatus.PATCHED, Provenance.INFERRED
    return InferredStatus.INCONCLUSIVE, Provenance.NONE


def reference_domain_status(engine, name, date):
    ips = engine.domain_vulnerable_ips.get(name, [])
    if not ips:
        return InferredStatus.INCONCLUSIVE, Provenance.NONE
    statuses = [reference_ip_status(engine, ip, date) for ip in ips]
    vulnerable = [p for s, p in statuses if s == InferredStatus.VULNERABLE]
    if vulnerable:
        if Provenance.MEASURED in vulnerable:
            return InferredStatus.VULNERABLE, Provenance.MEASURED
        return InferredStatus.VULNERABLE, Provenance.INFERRED
    if all(s == InferredStatus.PATCHED for s, _ in statuses):
        if all(p == Provenance.MEASURED for _, p in statuses):
            return InferredStatus.PATCHED, Provenance.MEASURED
        return InferredStatus.PATCHED, Provenance.INFERRED
    return InferredStatus.INCONCLUSIVE, Provenance.NONE


def reference_summary(date, statuses):
    return RoundSummary(
        date=date,
        total=len(statuses),
        measured=sum(1 for _, p in statuses if p == Provenance.MEASURED),
        inferred=sum(1 for _, p in statuses if p == Provenance.INFERRED),
        inconclusive=sum(1 for _, p in statuses if p == Provenance.NONE),
        vulnerable=sum(1 for s, _ in statuses if s == InferredStatus.VULNERABLE),
        patched=sum(1 for s, _ in statuses if s == InferredStatus.PATCHED),
    )


def assert_engine_matches_reference(engine, names):
    dates = [round_.date for round_ in engine.rounds]
    ips = list(engine.timelines) + ["192.0.2.254"]  # plus one untracked
    for date in dates:
        for ip in ips:
            assert engine.ip_status(ip, date) == reference_ip_status(engine, ip, date)
        for name in names:
            assert engine.domain_status(name, date) == reference_domain_status(
                engine, name, date
            )
    expected = [
        reference_summary(
            date, [reference_domain_status(engine, n, date) for n in names]
        )
        for date in dates
    ]
    assert engine.round_summaries_domains(names) == expected
    expected_ips = [
        reference_summary(
            date, [reference_ip_status(engine, ip, date) for ip in engine.timelines]
        )
        for date in dates
    ]
    assert engine.round_summaries_ips() == expected_ips


class TestAgainstObservationScan:
    def test_completed_run_matches_the_reference(self, session_sim):
        engine = session_sim.inference()
        names = list(engine.domain_vulnerable_ips) + ["not-a-domain.example"]
        assert engine.rounds
        assert_engine_matches_reference(engine, names)
        assert engine.round_summaries_domains() == engine.round_summaries_domains(
            list(engine.domain_vulnerable_ips)
        )

    def test_repeated_date_keeps_the_first_observation(self):
        timeline = IpTimeline("10.0.0.1")
        timeline.observe(R1, DetectionOutcome.SMTP_FAILED)
        timeline.observe(R1, DetectionOutcome.COMPLIANT)
        timeline.observe(R2, DetectionOutcome.VULNERABLE)
        # R1's first observation is not a measurement, so R1 is inferred
        # vulnerable from R2 rather than measured patched.
        assert timeline.status_at(R1) == (
            InferredStatus.VULNERABLE, Provenance.INFERRED
        )
        # A timeline built with its observations reads them the same way.
        prefilled = IpTimeline(
            "10.0.0.1",
            observations=[
                (R1, DetectionOutcome.COMPLIANT),
                (R1, DetectionOutcome.VULNERABLE),
            ],
        )
        assert prefilled.status_at(R1) == (
            InferredStatus.PATCHED, Provenance.MEASURED
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([R1, R2, R3, R4]), min_size=1, max_size=6),
        st.data(),
    )
    def test_missing_rounds_and_repeated_dates(self, dates, data):
        ips = ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"]
        domain_ips = {
            "a.com": ips[:1],
            "b.com": ips[:2],
            "c.com": ips[1:4],
            "d.com": ["10.0.0.9"],  # never vulnerable
        }
        vulnerable = set(data.draw(st.sets(st.sampled_from(ips), min_size=1)))
        outcomes = st.sampled_from(
            [
                DetectionOutcome.VULNERABLE,
                DetectionOutcome.COMPLIANT,
                DetectionOutcome.ERRONEOUS,
                DetectionOutcome.SMTP_FAILED,
                DetectionOutcome.REFUSED,
            ]
        )
        specs = [
            (date, data.draw(st.dictionaries(st.sampled_from(ips), outcomes)))
            for date in dates
        ]
        engine = InferenceEngine(make_initial(vulnerable, domain_ips), rounds(*specs))
        assert_engine_matches_reference(
            engine, ["a.com", "b.com", "c.com", "d.com", "zz.com"]
        )
