"""Tests for the measurement campaign orchestration."""

import datetime as dt

import pytest

from repro.clock import (
    INITIAL_MEASUREMENT,
    LONGITUDINAL_START,
    MEASUREMENTS_PAUSED,
    MEASUREMENTS_RESUMED,
    FINAL_MEASUREMENT,
    PRIVATE_NOTIFICATION,
)
from repro.core.campaign import DomainStatus
from repro.core.detector import DetectionOutcome
from repro.internet.population import DomainSet
from repro.simulation import Simulation


class TestTimeline:
    def test_round_dates_two_windows(self, session_sim):
        dates = session_sim.campaign.round_dates()
        assert dates[0] == LONGITUDINAL_START
        assert dates[-1] <= FINAL_MEASUREMENT
        gap = [d for d in dates if MEASUREMENTS_PAUSED < d < MEASUREMENTS_RESUMED]
        assert gap == []  # the December pause is respected
        deltas = {
            (b - a).days
            for a, b in zip(dates, dates[1:])
            if b <= MEASUREMENTS_PAUSED or a >= MEASUREMENTS_RESUMED
        }
        assert deltas == {2}  # every 2 days within each window

    def test_rounds_executed_on_schedule(self, session_result):
        dates = [r.date for r in session_result.rounds]
        assert dates == sorted(dates)
        assert dates[0] == LONGITUDINAL_START

    def test_initial_measurement_date(self, session_result):
        assert session_result.initial.date == INITIAL_MEASUREMENT


class TestResolution:
    def test_every_domain_resolved(self, session_sim, session_result):
        assert set(session_result.initial.domain_ips) == {
            d.name for d in session_sim.population.domains
        }

    def test_resolution_matches_fleet_ground_truth(self, session_sim, session_result):
        fleet = session_sim.fleet
        for name, ips in list(session_result.initial.domain_ips.items())[:300]:
            unit = fleet.unit_for_domain(name)
            assert set(ips) == set(unit.ips)

    def test_unique_ips_probed_once(self, session_result):
        records = session_result.initial.ip_records
        # Every record belongs to the ip it is keyed by.
        assert all(record.ip == ip for ip, record in records.items())


class TestInitialClassification:
    def test_domain_vulnerable_iff_any_ip_vulnerable(self, session_result):
        initial = session_result.initial
        vulnerable_ips = set(initial.vulnerable_ips())
        for name, status in initial.domain_status.items():
            ips = set(initial.domain_ips[name])
            if status == DomainStatus.VULNERABLE:
                assert ips & vulnerable_ips
            else:
                assert not ips & vulnerable_ips

    def test_vulnerability_matches_ground_truth(self, session_sim, session_result):
        """The detector must agree with the fleet's ground truth for every
        conclusively measured address."""
        fleet = session_sim.fleet
        for ip, record in session_result.initial.ip_records.items():
            unit = fleet.unit_for_ip(ip)
            if record.outcome == DetectionOutcome.VULNERABLE:
                assert unit.is_vulnerable
            elif record.outcome in (
                DetectionOutcome.COMPLIANT, DetectionOutcome.ERRONEOUS,
            ):
                assert not unit.is_vulnerable

    def test_refused_matches_ground_truth(self, session_sim, session_result):
        from repro.internet.mta_fleet import UnitCategory

        fleet = session_sim.fleet
        for ip, record in session_result.initial.ip_records.items():
            if fleet.unit_for_ip(ip).category == UnitCategory.REFUSE:
                assert record.outcome == DetectionOutcome.REFUSED

    def test_remeasurable_excludes_measured(self, session_result):
        initial = session_result.initial
        measured = {
            ip for ip, r in initial.ip_records.items() if r.outcome.spf_measured
        }
        assert not measured & set(initial.remeasurable_ips())


class TestLongitudinal:
    def test_only_tracked_ips_recontacted(self, session_sim, session_result):
        tracked = set(session_sim.campaign.tracked_ips())
        for round_ in session_result.rounds:
            assert set(round_.results) <= tracked

    def test_patched_servers_detected_in_later_rounds(self, session_sim, session_result):
        """Any unit whose patch plan fired mid-campaign must eventually be
        measured non-vulnerable (or become inconclusive)."""
        fleet = session_sim.fleet
        model = session_sim.patch_model
        last = session_result.rounds[-1]
        for unit in fleet.vulnerable_units():
            plan = model.plan_for(unit)
            if plan.patches and plan.patch_date < last.date - dt.timedelta(days=4):
                outcomes = [
                    last.results.get(ip)
                    for ip in unit.ips
                    if ip in last.results
                ]
                assert DetectionOutcome.VULNERABLE not in outcomes

    def test_notification_fired_at_the_right_time(self, session_sim, session_result):
        report = session_sim.notification_report
        assert report is not None
        assert report.sent_at == PRIVATE_NOTIFICATION
        assert report.sent > 0


class TestSnapshot:
    def test_snapshot_covers_all_initially_vulnerable(self, session_result):
        assert set(session_result.snapshot_status) == set(
            session_result.initial.vulnerable_domains()
        )

    def test_snapshot_statuses_valid(self, session_result):
        assert set(session_result.snapshot_status.values()) <= {
            DomainStatus.VULNERABLE, DomainStatus.PATCHED, DomainStatus.UNKNOWN,
        }

    def test_snapshot_agrees_with_ground_truth(self, session_sim, session_result):
        fleet = session_sim.fleet
        model = session_sim.patch_model
        for name, status in session_result.snapshot_status.items():
            unit = fleet.unit_for_domain(name)
            plan = model.plan_for(unit)
            if status == DomainStatus.PATCHED:
                assert plan.patches
            elif status == DomainStatus.VULNERABLE:
                assert not plan.patched_by(session_result.snapshot_date)


class TestEthicsCompliance:
    def test_concurrency_cap_never_exceeded(self, session_sim):
        assert session_sim.campaign.ethics.peak_concurrency <= 250

    def test_connection_volume_accounted(self, session_sim, session_result):
        opened = session_sim.campaign.ethics.connections_opened
        transactions = sum(
            len(r.result.transactions)
            for r in session_result.initial.ip_records.values()
        )
        assert opened >= transactions
