"""Tests for domain population generation."""

import pytest

from repro.internet.population import (
    DomainSet,
    PopulationConfig,
    TOP_EMAIL_PROVIDER_DOMAINS,
    generate_population,
)


@pytest.fixture(scope="module")
def population():
    return generate_population(PopulationConfig(scale=0.01, seed=7))


class TestSizes:
    def test_set_sizes_scale(self, population):
        config = population.config
        assert population.set_size(DomainSet.ALEXA_TOP_LIST) == config.alexa_size
        assert population.set_size(DomainSet.TWO_WEEK_MX) == config.two_week_size
        assert population.set_size(DomainSet.ALEXA_1000) == config.alexa_1000_size

    def test_scale_one_hundredth(self):
        config = PopulationConfig(scale=0.01)
        assert config.alexa_size == 4188
        assert config.two_week_size == 229
        assert config.alexa_1000_size == 20

    def test_minimums_at_tiny_scale(self):
        config = PopulationConfig(scale=0.0001)
        assert config.alexa_size >= 200
        assert config.two_week_size >= 60
        assert config.alexa_1000_size >= 20

    def test_providers_always_full(self, population):
        assert population.set_size(DomainSet.TOP_EMAIL_PROVIDERS) == len(
            TOP_EMAIL_PROVIDER_DOMAINS
        )


class TestStructure:
    def test_alexa_1000_is_subset_of_top_list(self, population):
        top = population.in_set(DomainSet.ALEXA_1000)
        assert all(d.in_set(DomainSet.ALEXA_TOP_LIST) for d in top)

    def test_alexa_ranks_unique_and_contiguous(self, population):
        ranks = sorted(
            d.alexa_rank
            for d in population.in_set(DomainSet.ALEXA_TOP_LIST)
        )
        assert ranks == list(range(1, len(ranks) + 1))

    def test_alexa_1000_is_the_head_of_the_ranking(self, population):
        top = population.in_set(DomainSet.ALEXA_1000)
        max_top_rank = max(d.alexa_rank for d in top)
        assert max_top_rank == len(top)

    def test_two_week_domains_have_query_counts(self, population):
        for domain in population.in_set(DomainSet.TWO_WEEK_MX):
            assert domain.mx_query_count is not None
            assert domain.mx_query_count >= 1

    def test_no_duplicate_names(self, population):
        names = [d.name for d in population.domains]
        assert len(names) == len(set(names))

    def test_tld_attribute_matches_name(self, population):
        for domain in population.domains[:200]:
            assert domain.name.endswith("." + domain.tld)

    def test_lookup_by_name(self, population):
        domain = population.domains[0]
        assert population.get(domain.name) is domain
        assert domain.name in population
        assert population.get("definitely-not-generated.zz") is None


class TestOverlaps:
    def test_two_week_alexa_overlap_ratio(self, population):
        overlap = population.overlap(DomainSet.TWO_WEEK_MX, DomainSet.ALEXA_TOP_LIST)
        two_week = population.set_size(DomainSet.TWO_WEEK_MX)
        # Paper Table 1: 12.7% of the 2-Week MX set is in the Alexa list.
        assert abs(overlap / two_week - 0.1275) < 0.03

    def test_two_week_alexa1000_overlap_small(self, population):
        overlap = population.overlap(DomainSet.TWO_WEEK_MX, DomainSet.ALEXA_1000)
        assert overlap <= population.overlap(
            DomainSet.TWO_WEEK_MX, DomainSet.ALEXA_TOP_LIST
        )

    def test_overlap_symmetric_in_count(self, population):
        assert population.overlap(
            DomainSet.TWO_WEEK_MX, DomainSet.ALEXA_TOP_LIST
        ) == population.overlap(DomainSet.ALEXA_TOP_LIST, DomainSet.TWO_WEEK_MX)

    def test_self_overlap_is_size(self, population):
        for domain_set in (DomainSet.ALEXA_TOP_LIST, DomainSet.TWO_WEEK_MX):
            assert population.overlap(domain_set, domain_set) == population.set_size(
                domain_set
            )


class TestTldMix:
    def test_com_dominates_both_sets(self, population):
        for domain_set in (DomainSet.ALEXA_TOP_LIST, DomainSet.TWO_WEEK_MX):
            counts = population.tld_counts(domain_set)
            assert max(counts, key=counts.get) == "com"

    def test_alexa_com_share_near_paper(self, population):
        counts = population.tld_counts(DomainSet.ALEXA_TOP_LIST)
        share = counts["com"] / population.set_size(DomainSet.ALEXA_TOP_LIST)
        assert abs(share - 0.551) < 0.05  # 230,801 / 418,842


class TestProviders:
    def test_vulnerable_providers_present(self, population):
        for name in ("naver.com", "mail.ru", "wp.pl", "seznam.cz"):
            domain = population.get(name)
            assert domain is not None
            assert domain.in_set(DomainSet.TOP_EMAIL_PROVIDERS)
            assert domain.in_set(DomainSet.ALEXA_1000)

    def test_providers_hold_top_ranks(self, population):
        providers = population.in_set(DomainSet.TOP_EMAIL_PROVIDERS)
        assert max(d.alexa_rank for d in providers) == len(providers)


class TestDeterminism:
    def test_same_config_same_population(self):
        a = generate_population(PopulationConfig(scale=0.005, seed=3))
        b = generate_population(PopulationConfig(scale=0.005, seed=3))
        assert [d.name for d in a.domains] == [d.name for d in b.domains]

    def test_different_seed_different_names(self):
        a = generate_population(PopulationConfig(scale=0.005, seed=3))
        b = generate_population(PopulationConfig(scale=0.005, seed=4))
        assert [d.name for d in a.domains] != [d.name for d in b.domains]


class TestSetMembership:
    """One scan of the table serves every set query, in row order."""

    SETS = (
        DomainSet.ALEXA_TOP_LIST,
        DomainSet.ALEXA_1000,
        DomainSet.TWO_WEEK_MX,
        DomainSet.TOP_EMAIL_PROVIDERS,
        # the combined group Table 4 counts
        DomainSet.ALEXA_TOP_LIST | DomainSet.TWO_WEEK_MX,
    )

    @pytest.mark.parametrize("scale", [0.002, 0.02])
    def test_members_equal_a_brute_force_scan(self, scale):
        population = generate_population(PopulationConfig(scale=scale, seed=11))
        for domain_set in self.SETS:
            expected = [d for d in population.domains if d.in_set(domain_set)]
            assert population.names_in_set(domain_set) == [d.name for d in expected]
            views = population.in_set(domain_set)
            assert len(views) == len(expected)
            assert all(view is domain for view, domain in zip(views, expected))
            assert population.set_size(domain_set) == len(expected)

    def test_open_overlap_and_tld_counts_match_a_brute_force_scan(self):
        population = generate_population(PopulationConfig(scale=0.002, seed=11))
        combined = DomainSet.ALEXA_TOP_LIST | DomainSet.TWO_WEEK_MX
        domains = list(population.domains)
        assert population.overlap(combined, DomainSet.ALEXA_1000) == sum(
            1 for d in domains if d.in_set(combined) and d.in_set(DomainSet.ALEXA_1000)
        )
        for domain_set in self.SETS:
            expected = {}
            for domain in domains:
                if domain.in_set(domain_set):
                    expected[domain.tld] = expected.get(domain.tld, 0) + 1
            assert population.tld_counts(domain_set) == expected

    def test_scan_reuses_rows_a_run_already_generated(self, monkeypatch):
        population = generate_population(PopulationConfig(scale=0.002, seed=11))
        names = [d.name for d in population.domains]  # row by row, as a run does
        assert population.row_regens == len(population)

        def no_regeneration(index):
            raise AssertionError(f"row {index} generated twice")

        monkeypatch.setattr(population, "_generate_row", no_regeneration)
        combined = DomainSet.ALEXA_TOP_LIST | DomainSet.TWO_WEEK_MX
        assert population.names_in_set(combined) == names
        assert population.row_regens == len(population)

    def test_every_row_drawn_once_above_the_old_row_memo_cap(self):
        # Scale 0.08 holds more rows (~35K) than the 32,768-row memo
        # that once thrashed here; a run reads its rows more than once.
        population = generate_population(PopulationConfig(scale=0.08, seed=11))
        assert len(population) > 32_768
        for _ in range(2):
            for _domain in population.domains:
                pass
        for domain_set in self.SETS:
            population.names_in_set(domain_set)
            population.tld_counts(domain_set)
            population.in_set(domain_set)
        assert population.row_regens == len(population)
