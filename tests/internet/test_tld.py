"""Tests for the TLD model."""

import pytest

from repro.internet.tld import (
    ALEXA_TLD_HEAD,
    ALEXA_TLD_WEIGHTS,
    PROACTIVE_PATCH_TLDS,
    TLD_PATCH_RATES,
    TWO_WEEK_TLD_HEAD,
    TWO_WEEK_TLD_WEIGHTS,
    TldModel,
)


class TestWeights:
    @pytest.mark.parametrize("weights", [ALEXA_TLD_WEIGHTS, TWO_WEEK_TLD_WEIGHTS])
    def test_normalized(self, weights):
        assert abs(sum(weights.values()) - 1.0) < 1e-9
        assert all(w >= 0 for w in weights.values())

    def test_paper_head_counts_preserved_as_ratios(self):
        # Table 2: com dominates both sets.
        assert ALEXA_TLD_WEIGHTS["com"] == max(ALEXA_TLD_WEIGHTS.values())
        assert TWO_WEEK_TLD_WEIGHTS["com"] == max(TWO_WEEK_TLD_WEIGHTS.values())
        # Relative ordering of head entries preserved.
        assert ALEXA_TLD_WEIGHTS["ru"] > ALEXA_TLD_WEIGHTS["ir"] > ALEXA_TLD_WEIGHTS["net"]
        assert TWO_WEEK_TLD_WEIGHTS["org"] > TWO_WEEK_TLD_WEIGHTS["edu"]

    def test_two_week_set_has_edu_gov_flavor(self):
        # The university-traffic set is edu/gov-heavy; Alexa is not.
        assert TWO_WEEK_TLD_WEIGHTS["edu"] > 0.05
        assert "edu" not in ALEXA_TLD_HEAD

    def test_head_ratio_matches_paper(self):
        assert abs(ALEXA_TLD_WEIGHTS["com"] - 230_801 / 418_842) < 0.01
        assert abs(TWO_WEEK_TLD_WEIGHTS["com"] - 11_182 / 22_911) < 0.01


class TestGeography:
    def test_cc_tld_country(self):
        assert TldModel.country_for("za") == "South Africa"
        assert TldModel.country_for("RU") == "Russia"

    def test_generic_tld_has_no_country(self):
        assert TldModel.country_for("com") is None
        assert TldModel.country_for("org") is None

    def test_coords_exist_for_all_mapped_countries(self):
        for tld in ("za", "ru", "tw", "de", "gr"):
            country = TldModel.country_for(tld)
            lat, lon = TldModel.coords_for_country(country)
            assert -90 <= lat <= 90 and -180 <= lon <= 180


class TestPatchRates:
    def test_paper_table5_values(self):
        assert TLD_PATCH_RATES["za"] == 0.79
        assert TLD_PATCH_RATES["gr"] == 0.75
        assert TLD_PATCH_RATES["tw"] == 0.00
        assert TLD_PATCH_RATES["ru"] == 0.02
        assert TLD_PATCH_RATES["com"] == 0.15

    def test_default_present(self):
        assert TLD_PATCH_RATES[None] > 0

    def test_za_is_proactive(self):
        assert PROACTIVE_PATCH_TLDS["za"] >= 0.9
