"""Tests for the paper-target scorecard, report, and CSV export."""

import csv
import io

import pytest

from repro.analysis.export import EXPORTERS, export_all
from repro.analysis.paper_targets import PAPER_TARGETS, evaluate_targets
from repro.analysis.report import generate_report, targets_all_within_band


class TestPaperTargets:
    def test_every_target_measurable(self, session_sim):
        results = evaluate_targets(session_sim)
        assert len(results) == len(PAPER_TARGETS)
        for item in results:
            assert item.measured is not None, item.target.key

    def test_paper_values_inside_their_own_bands(self):
        for target in PAPER_TARGETS:
            low, high = target.band
            assert low <= target.paper_value <= high, target.key

    def test_all_targets_within_band_on_reference_run(self, session_sim):
        """The acceptance check: the reference seed reproduces every
        encoded claim within tolerance."""
        failing = [
            (r.target.key, r.measured)
            for r in evaluate_targets(session_sim)
            if not r.within_band
        ]
        assert failing == []

    def test_keys_unique(self):
        keys = [t.key for t in PAPER_TARGETS]
        assert len(keys) == len(set(keys))


class TestReport:
    def test_report_contains_scorecard_and_artifacts(self, session_sim):
        report = generate_report(session_sim)
        assert "Paper-target scorecard" in report
        assert "Table 4" in report
        assert "Figure 7" in report
        assert "Run provenance" in report
        # One scorecard row per target.
        assert report.count("| ") >= len(PAPER_TARGETS)

    def test_targets_all_within_band_helper(self, session_sim):
        assert targets_all_within_band(session_sim)

    def test_observability_section_carries_trace_analysis(self):
        from repro.api import RunConfig
        from repro.obs import Observation
        from repro.simulation import Simulation

        observation = Observation(trace=True)
        sim = Simulation.build(
            config=RunConfig(scale=0.002, seed=5), observation=observation
        )
        sim.run()
        report = generate_report(sim)
        assert "## Observability" in report
        assert "### Histogram percentiles" in report
        assert "### Trace analysis" in report
        # the analyzer's stage table and critical path made it in
        assert "| initial |" in report
        assert "Critical path (virtual time):" in report

    def test_observability_section_without_observation(self, session_sim):
        report = generate_report(session_sim)
        assert "Observability disabled for this run" in report


class TestSharedBuilds:
    def test_report_builds_each_artifact_once(self, session_sim, monkeypatch):
        """The scorecard scores the very objects the report renders."""
        import repro.analysis as analysis
        from repro.analysis import figure7, table3, table4

        calls = {}
        for module, name in (
            (table3, "build_table3"),
            (table4, "build_table4"),
            (figure7, "build_figure7"),
        ):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            # Both spellings a builder is reached by.
            monkeypatch.setattr(module, name, counted)
            monkeypatch.setattr(analysis, name, counted)
        generate_report(session_sim)
        assert calls == {"build_table3": 1, "build_table4": 1, "build_figure7": 1}

    def test_scorecard_matches_the_rendered_artifacts(self, session_sim):
        from repro.analysis import ARTIFACTS, BuiltArtifacts

        built = BuiltArtifacts(session_sim)
        assert built["table4"] is built["table4"]
        for name, artifact in ARTIFACTS.items():
            assert artifact.render(built[name]) == artifact(session_sim), name


class TestNotificationFunnel:
    def test_funnel_reads_only_the_notified_units(self, session_sim, monkeypatch):
        from repro.analysis.notification_funnel import build_notification_funnel
        from repro.clock import PUBLIC_DISCLOSURE
        from repro.internet.mta_fleet import MtaFleet

        def whole_fleet(self):
            raise AssertionError("the funnel walked every vulnerable unit")

        with monkeypatch.context() as patch:
            patch.setattr(MtaFleet, "vulnerable_units", whole_fleet)
            funnel = build_notification_funnel(session_sim)

        # The same fields through every plan the model would act on.
        report = session_sim.notification_report
        plans = {plan.unit_id: plan for plan in session_sim.patch_model.plans()}

        def before_disclosure(unit_id):
            plan = plans.get(unit_id)
            return (
                plan is not None
                and plan.patch_date is not None
                and report.sent_at <= plan.patch_date < PUBLIC_DISCLOSURE
            )

        opened = report.opened_unit_ids()
        bounced = report.bounced_unit_ids()
        assert opened and bounced
        assert funnel.openers_patched_eventually == sum(
            1 for u in opened if u in plans and plans[u].patches
        )
        assert funnel.openers_patched_before_disclosure == sum(
            1 for u in opened if before_disclosure(u)
        )
        assert funnel.bounced_patched_before_disclosure == sum(
            1 for u in bounced if before_disclosure(u)
        )
        assert (funnel.sent, funnel.bounced, funnel.delivered, funnel.opened) == (
            report.sent, report.bounced, report.delivered, report.opened
        )


class TestCsvExport:
    def test_every_exporter_produces_parsable_csv(self, session_sim):
        for name, exporter in EXPORTERS.items():
            text = exporter(session_sim)
            rows = list(csv.reader(io.StringIO(text)))
            assert len(rows) >= 1, name
            header = rows[0]
            for row in rows[1:]:
                assert len(row) == len(header), name

    def test_figure5_csv_has_one_row_per_round(self, session_sim, session_result):
        from repro.analysis.export import figure5_csv

        rows = list(csv.reader(io.StringIO(figure5_csv(session_sim))))
        assert len(rows) - 1 == len(session_result.rounds)

    def test_export_all_writes_files(self, session_sim, tmp_path):
        written = export_all(session_sim, tmp_path / "csv")
        assert set(written) == set(EXPORTERS)
        for path in written.values():
            assert path.exists()
            assert path.read_text().strip()
