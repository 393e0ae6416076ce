"""Tests for the analysis text renderer and status helpers."""

import pytest

from repro.analysis.formatting import count_pct, pct, render_table
from repro.analysis.status import final_domain_status, final_ip_status
from repro.core.campaign import DomainStatus


class TestRenderTable:
    def test_alignment(self):
        text = render_table(
            ["Name", "Count"],
            [["short", 1], ["a-much-longer-name", 22]],
        )
        lines = text.splitlines()
        assert lines[0].startswith("Name")
        # All data rows align the second column at the same offset.
        offset = lines[2].index("1")
        assert lines[3][offset - 1] == "2" or lines[3][offset] == "2"

    def test_title_underlined(self):
        text = render_table(["A"], [["x"]], title="My Title")
        lines = text.splitlines()
        assert lines[0] == "My Title"
        assert lines[1] == "=" * len("My Title")

    def test_handles_empty_rows(self):
        text = render_table(["A", "B"], [])
        assert "A" in text and "B" in text

    def test_non_string_cells_coerced(self):
        text = render_table(["A"], [[3.5], [None]])
        assert "3.5" in text and "None" in text


class TestPercentages:
    def test_pct(self):
        assert pct(1, 4) == "25%"
        assert pct(0, 4) == "0%"
        assert pct(4, 4) == "100%"

    def test_pct_small_values_one_decimal(self):
        assert pct(1, 1000) == "0.1%"

    def test_pct_zero_denominator(self):
        assert pct(1, 0) == "-"

    def test_count_pct(self):
        assert count_pct(1234, 2468) == "1,234 (50%)"


class TestSparkline:
    def test_empty(self):
        from repro.analysis.formatting import sparkline

        assert sparkline([]) == ""

    def test_length_matches_series(self):
        from repro.analysis.formatting import sparkline

        assert len(sparkline([0.1, 0.5, 0.9, 0.2])) == 4

    def test_monotone_series_monotone_glyphs(self):
        from repro.analysis.formatting import _SPARK_LEVELS, sparkline

        glyphs = sparkline([0.0, 0.25, 0.5, 0.75, 1.0])
        indices = [_SPARK_LEVELS.index(g) for g in glyphs]
        assert indices == sorted(indices)

    def test_constant_series(self):
        from repro.analysis.formatting import sparkline

        assert len(set(sparkline([3.0, 3.0, 3.0]))) == 1

    def test_explicit_bounds(self):
        from repro.analysis.formatting import _SPARK_LEVELS, sparkline

        spark = sparkline([0.0, 1.0], low=0.0, high=2.0)
        assert spark[0] == _SPARK_LEVELS[0]
        assert _SPARK_LEVELS.index(spark[1]) < len(_SPARK_LEVELS) - 1


class TestStatusHelpers:
    def test_final_domain_status_covers_all_vulnerable(self, session_sim, session_result):
        status = final_domain_status(session_sim)
        assert set(status) == set(session_result.initial.vulnerable_domains())
        assert set(status.values()) <= {
            DomainStatus.PATCHED, DomainStatus.VULNERABLE, DomainStatus.UNKNOWN,
        }

    def test_final_ip_status_covers_all_vulnerable_ips(self, session_sim, session_result):
        status = final_ip_status(session_sim)
        assert set(status) == set(session_result.initial.vulnerable_ips())

    def test_patched_ips_match_ground_truth(self, session_sim, session_result):
        model = session_sim.patch_model
        fleet = session_sim.fleet
        for ip, patched in final_ip_status(session_sim).items():
            if patched is True:
                assert model.plan_for(fleet.unit_for_ip(ip)).patches
            elif patched is False:
                plan = model.plan_for(fleet.unit_for_ip(ip))
                assert not plan.patched_by(session_result.rounds[-1].date)
