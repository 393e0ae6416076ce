"""The paper's headline claims, asserted against a full simulated campaign.

These are the reproduction's acceptance tests: not absolute numbers (the
substrate is a simulator), but the *shape* of every major result —
who wins, by roughly what factor, and where the crossovers fall.
"""

import datetime as dt

import pytest

from repro.clock import (
    MEASUREMENTS_PAUSED,
    PRIVATE_NOTIFICATION,
    PUBLIC_DISCLOSURE,
)
from repro.analysis import build_figure2, build_figure7, build_table4
from repro.analysis.status import final_domain_status
from repro.core.campaign import DomainStatus
from repro.core.detector import DetectionOutcome
from repro.internet.population import DomainSet


class TestHeadlineRates:
    def test_roughly_one_in_six_measured_ips_vulnerable(self, session_sim, session_result):
        rows = build_table4(session_sim.population, session_result.initial)
        combined = rows[-1]
        share = combined.ips_vulnerable / combined.ips_measured
        assert 0.10 < share < 0.28  # paper: 17%

    def test_quarter_of_ips_expand_macros_incorrectly(self, session_sim, session_result):
        rows = build_table4(session_sim.population, session_result.initial)
        alexa = rows[0]
        share = (alexa.ips_vulnerable + alexa.ips_erroneous) / alexa.ips_measured
        assert 0.12 < share < 0.40  # paper: "close to a quarter"

    def test_two_week_set_less_vulnerable_than_alexa(self, session_sim, session_result):
        rows = {r.group: r for r in build_table4(session_sim.population, session_result.initial)}
        alexa = rows["Alexa Top List"]
        two_week = rows["2-Week MX"]
        if two_week.ips_measured >= 30:
            assert (
                two_week.ips_vulnerable / two_week.ips_measured
                < alexa.ips_vulnerable / alexa.ips_measured + 0.05
            )

    def test_roughly_80_percent_remain_vulnerable(self, session_sim):
        figure = build_figure7(session_sim)
        assert 0.65 < figure.final_vulnerable_fraction() < 0.95  # paper: ~80%

    def test_patching_around_15_percent_of_domains(self, session_sim):
        rows = build_figure2(session_sim)
        all_row = rows[0]
        assert 0.05 < all_row.patched_fraction < 0.30  # paper: ~15%


class TestDisclosureDynamics:
    def test_public_disclosure_drop_exceeds_private(self, session_sim):
        """The paper: public disclosure correlated with a much greater
        decrease in vulnerable MTAs than the private notification.

        Asserted on the ground-truth patch triggers (robust at any scale):
        disclosure-driven patching (the public event plus the package
        updates it released) dwarfs notification-driven patching.
        """
        import datetime as dt

        from repro.internet.patching import PatchTrigger

        plans = [p for p in session_sim.patch_model.plans() if p.patches]
        notification_driven = sum(
            1 for p in plans if p.trigger == PatchTrigger.PRIVATE_NOTIFICATION
        )
        disclosure_driven = sum(
            1
            for p in plans
            if p.trigger == PatchTrigger.PUBLIC_DISCLOSURE
            or (
                p.trigger == PatchTrigger.PACKAGE_MANAGER
                and p.patch_date >= PUBLIC_DISCLOSURE
            )
        )
        assert disclosure_driven > notification_driven

        # And the longitudinal series itself keeps falling after public
        # disclosure (the Debian-update wave).
        engine = session_sim.inference()
        summaries = engine.round_summaries_ips()
        post_public = [s for s in summaries if s.date >= PUBLIC_DISCLOSURE]
        assert post_public[-1].vulnerable < post_public[0].vulnerable

    def test_some_patching_precedes_any_notification(self, session_sim):
        """Proactive patching: visible before the private notification."""
        engine = session_sim.inference()
        summaries = [
            s for s in engine.round_summaries_ips() if s.date < PRIVATE_NOTIFICATION
        ]
        assert summaries[-1].patched >= summaries[0].patched
        assert summaries[-1].patched > 0

    def test_private_notification_barely_moves_patching(self, session_sim):
        from repro.internet.patching import PatchTrigger

        triggers = [p.trigger for p in session_sim.patch_model.plans() if p.patches]
        private = sum(1 for t in triggers if t == PatchTrigger.PRIVATE_NOTIFICATION)
        assert private <= max(1, len(triggers) // 10)


class TestPopulationOutliers:
    def test_alexa_1000_patches_least(self, session_sim):
        rows = {r.group: r for r in build_figure2(session_sim)}
        top = rows["Alexa 1000"]
        everyone = rows["All domains"]
        if top.total >= 3:
            assert top.patched_fraction <= everyone.patched_fraction + 0.02

    def test_vulnerable_providers_stay_vulnerable(self, session_sim, session_result):
        """Section 7.5: naver/mail.ru/wp.pl/seznam.cz measured vulnerable
        and unpatched through the study."""
        from repro.internet.population import VULNERABLE_PROVIDER_DOMAINS

        status = final_domain_status(session_sim)
        initial = session_result.initial
        for name in VULNERABLE_PROVIDER_DOMAINS:
            assert initial.domain_status[name] == DomainStatus.VULNERABLE
            assert status[name] == DomainStatus.VULNERABLE

    def test_gmail_class_providers_not_vulnerable(self, session_result):
        for name in ("gmail.com", "outlook.com", "yahoo.com", "icloud.com"):
            assert (
                session_result.initial.domain_status[name]
                != DomainStatus.VULNERABLE
            )


class TestMethodologyProperties:
    def test_no_email_ever_delivered_by_nomsg(self, session_sim):
        """NoMsg guarantees zero delivery; BlankMsg deliveries are blank."""
        for unit in session_sim.fleet.units:
            for ip in unit.all_ips:
                server = session_sim.campaign.network.server_at(ip)
                for message in server.inbox:
                    assert message.data == ""

    def test_vulnerable_set_has_no_false_positives(self, session_sim, session_result):
        fleet = session_sim.fleet
        for ip in session_result.initial.vulnerable_ips():
            assert fleet.unit_for_ip(ip).is_vulnerable

    def test_conclusive_measurements_match_ground_truth_exactly(
        self, session_sim, session_result
    ):
        fleet = session_sim.fleet
        mismatches = [
            ip
            for ip, record in session_result.initial.ip_records.items()
            if record.outcome.spf_measured
            and (record.outcome == DetectionOutcome.VULNERABLE)
            != fleet.unit_for_ip(ip).is_vulnerable
        ]
        assert mismatches == []
