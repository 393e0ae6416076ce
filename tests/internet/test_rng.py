"""Tests for the seeded RNG."""

import collections

from repro.internet.rng import SeededRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = SeededRng(42)
        b = SeededRng(42)
        assert [a.randint(0, 1000) for _ in range(20)] == [
            b.randint(0, 1000) for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a = SeededRng(1)
        b = SeededRng(2)
        assert [a.randint(0, 10**6) for _ in range(5)] != [
            b.randint(0, 10**6) for _ in range(5)
        ]

    def test_fork_is_deterministic(self):
        # CRC-based derivation: stable across processes and runs.
        a = SeededRng(42).fork("population")
        b = SeededRng(42).fork("population")
        assert a.seed == b.seed
        assert a.randint(0, 10**6) == b.randint(0, 10**6)

    def test_fork_labels_isolate(self):
        base = SeededRng(42)
        assert base.fork("x").seed != base.fork("y").seed

    def test_fork_does_not_consume_parent_stream(self):
        a = SeededRng(42)
        b = SeededRng(42)
        a.fork("anything")
        assert a.randint(0, 10**6) == b.randint(0, 10**6)


class TestSampling:
    def test_bernoulli_extremes(self):
        rng = SeededRng(1)
        assert not any(rng.bernoulli(0.0) for _ in range(50))
        assert all(rng.bernoulli(1.0) for _ in range(50))

    def test_bernoulli_rate(self):
        rng = SeededRng(7)
        hits = sum(rng.bernoulli(0.3) for _ in range(5000))
        assert 0.25 < hits / 5000 < 0.35

    def test_weighted_choice_respects_weights(self):
        rng = SeededRng(3)
        counts = collections.Counter(
            rng.weighted_choice({"a": 9.0, "b": 1.0}) for _ in range(2000)
        )
        assert counts["a"] > counts["b"] * 4

    def test_weighted_choice_zero_weight_never_chosen(self):
        rng = SeededRng(3)
        assert all(
            rng.weighted_choice({"a": 1.0, "b": 0.0}) == "a" for _ in range(200)
        )

    def test_categorical_pairs(self):
        rng = SeededRng(3)
        assert rng.categorical([("only", 1.0)]) == "only"

    def test_zipf_heavy_tail(self):
        rng = SeededRng(5)
        sizes = [rng.zipf_size(alpha=1.6) for _ in range(3000)]
        assert min(sizes) == 1
        assert max(sizes) > 20  # some large values appear
        assert sorted(sizes)[len(sizes) // 2] <= 5  # median stays small

    def test_exponential_days_mean(self):
        rng = SeededRng(11)
        draws = [rng.exponential_days(10.0) for _ in range(4000)]
        assert 9.0 < sum(draws) / len(draws) < 11.0

    def test_exponential_zero_mean(self):
        assert SeededRng(1).exponential_days(0.0) == 0.0


class TestTextHelpers:
    def test_domain_word_shape(self):
        rng = SeededRng(1)
        for _ in range(20):
            word = rng.domain_word()
            assert 4 <= len(word) <= 12
            assert word.isalpha()
