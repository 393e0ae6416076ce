"""Tests for notification delivery and its coupling to patching."""

import datetime as dt

import pytest

from repro.clock import PRIVATE_NOTIFICATION, PUBLIC_DISCLOSURE, SimulatedClock
from repro.dns import CachingResolver
from repro.internet.mta_fleet import build_fleet
from repro.internet.patching import PatchBehaviorModel, PatchTrigger
from repro.internet.population import PopulationConfig, generate_population
from repro.notification.delivery import NotificationCampaign


@pytest.fixture()
def setup():
    population = generate_population(PopulationConfig(scale=0.02, seed=9))
    fleet = build_fleet(population)
    clock = SimulatedClock()
    network = fleet.build_network(
        lambda: clock.now, CachingResolver(clock=lambda: clock.now)
    )
    model = PatchBehaviorModel(seed=9)
    campaign = NotificationCampaign(fleet, model, network, clock, seed=9)
    vulnerable_domains = [d.name for d in fleet.vulnerable_domains()]
    return fleet, clock, model, campaign, vulnerable_domains


class TestDeduplication:
    def test_one_email_per_hosting_unit(self, setup):
        fleet, clock, model, campaign, domains = setup
        report = campaign.send_notifications(domains, PRIVATE_NOTIFICATION)
        units_covered = {fleet.unit_for_domain(d).unit_id for d in domains}
        assert report.sent == len(units_covered)

    def test_covered_domains_recorded(self, setup):
        fleet, clock, model, campaign, domains = setup
        report = campaign.send_notifications(domains, PRIVATE_NOTIFICATION)
        covered = [d for r in report.records for d in r.covered_domains]
        assert sorted(covered) == sorted(domains)

    def test_unknown_domains_ignored(self, setup):
        fleet, clock, model, campaign, _ = setup
        report = campaign.send_notifications(["not-a-domain.zz"], PRIVATE_NOTIFICATION)
        assert report.sent == 0


class TestBounces:
    def test_bounce_rate_near_paper(self, setup):
        fleet, clock, model, campaign, domains = setup
        report = campaign.send_notifications(domains, PRIVATE_NOTIFICATION)
        if report.sent < 20:
            pytest.skip("too few notifications at this scale")
        # Paper: 31.6% returned undelivered.
        assert 0.15 < report.bounced / report.sent < 0.50

    def test_bounces_follow_unit_flag(self, setup):
        fleet, clock, model, campaign, domains = setup
        report = campaign.send_notifications(domains, PRIVATE_NOTIFICATION)
        for record in report.records:
            unit = fleet.units[record.unit_id]
            assert record.delivered == unit.accepts_postmaster


class TestOpens:
    def test_opens_only_after_scheduling_fires(self, setup):
        fleet, clock, model, campaign, domains = setup
        report = campaign.send_notifications(domains, PRIVATE_NOTIFICATION)
        assert report.opened == 0  # nothing fired yet
        clock.advance_to(PUBLIC_DISCLOSURE)
        assert report.opened == campaign.tracking.total_requests
        assert report.opened <= report.delivered

    def test_open_rate_near_paper(self, setup):
        fleet, clock, model, campaign, domains = setup
        report = campaign.send_notifications(domains, PRIVATE_NOTIFICATION)
        clock.advance_to(PUBLIC_DISCLOSURE)
        if report.delivered < 30:
            pytest.skip("too few deliveries at this scale")
        # Paper: 12% of delivered were opened (lower bound).
        assert 0.02 < report.opened / report.delivered < 0.30

    def test_opens_happen_before_public_disclosure(self, setup):
        fleet, clock, model, campaign, domains = setup
        report = campaign.send_notifications(domains, PRIVATE_NOTIFICATION)
        clock.advance_to(PUBLIC_DISCLOSURE + dt.timedelta(days=30))
        for record in report.records:
            if record.opened:
                assert record.opened_at < PUBLIC_DISCLOSURE

    def test_opens_may_change_patch_plans(self, setup):
        fleet, clock, model, campaign, domains = setup
        campaign.open_probability = 1.0  # force everyone to open
        model.notification_response_probability = 1.0
        report = campaign.send_notifications(domains, PRIVATE_NOTIFICATION)
        clock.advance_to(PUBLIC_DISCLOSURE)
        responders = [
            plan
            for plan in model.plans()
            if plan.trigger == PatchTrigger.PRIVATE_NOTIFICATION
        ]
        assert responders
        for plan in responders:
            assert PRIVATE_NOTIFICATION <= plan.patch_date < PUBLIC_DISCLOSURE


class TestReportCounters:
    def test_funnel_arithmetic(self, setup):
        fleet, clock, model, campaign, domains = setup
        report = campaign.send_notifications(domains, PRIVATE_NOTIFICATION)
        assert report.sent == report.delivered + report.bounced
        assert set(report.delivered_unit_ids()).isdisjoint(report.bounced_unit_ids())
