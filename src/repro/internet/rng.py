"""Seeded randomness for population generation.

A thin wrapper over :class:`random.Random` with the sampling helpers the
population model needs.  All generation flows through one
:class:`SeededRng` per population so experiments are reproducible
bit-for-bit from a single seed.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_right
from typing import Dict, Sequence, Tuple, TypeVar

T = TypeVar("T")

# Cumulative-weight tables memoized per weights dict.  Keyed by id() with
# a strong reference to the dict held in the value: the reference keeps
# the id from being reused while cached, and the identity check below
# catches any collision after a wholesale clear.  The hot callers (TLD
# weight tables) are module constants, so this caches a handful of
# entries for millions of draws.
_WEIGHT_TABLES: Dict[int, tuple] = {}
_WEIGHT_TABLES_CAP = 256


class SeededRng:
    """Deterministic random source for the simulation."""

    def __init__(self, seed: int = 20211011) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def fork(self, label: str) -> "SeededRng":
        """A child RNG derived from this seed and a label.

        Forking isolates subsystems: adding draws in one generator does
        not perturb another's stream.  The derivation uses CRC32 rather
        than :func:`hash` because Python randomizes string hashing per
        process, which would break cross-run reproducibility.
        """
        derived = zlib.crc32(f"{self.seed}/{label}".encode("utf-8"))
        return SeededRng(derived & 0x7FFFFFFF)

    def bernoulli(self, p: float) -> bool:
        return self._random.random() < p

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def weighted_choice(self, weights: Dict[T, float]) -> T:
        """Choose a key with probability proportional to its weight.

        Consumes exactly one ``random()`` draw and reproduces the linear
        cumulative scan bit-for-bit (same left-to-right float sums), so
        memoizing the table never perturbs generated populations.
        """
        cached = _WEIGHT_TABLES.get(id(weights))
        if cached is None or cached[0] is not weights:
            keys = list(weights.keys())
            cumulative = []
            total = 0.0
            for w in weights.values():
                total += w
                cumulative.append(total)
            if len(_WEIGHT_TABLES) >= _WEIGHT_TABLES_CAP:
                _WEIGHT_TABLES.clear()
            _WEIGHT_TABLES[id(weights)] = cached = (weights, keys, cumulative, total)
        _, keys, cumulative, total = cached
        point = self._random.random() * total
        index = bisect_right(cumulative, point)
        return keys[index] if index < len(keys) else keys[-1]

    def categorical(self, outcomes: Sequence[Tuple[T, float]]) -> T:
        """Choose among (outcome, probability) pairs; probabilities may be
        unnormalized."""
        return self.weighted_choice(dict(outcomes))

    def zipf_size(self, *, alpha: float = 1.6, max_size: int = 50000) -> int:
        """A heavy-tailed positive integer (hosting-unit size, etc.).

        Sampled by inverse transform over a truncated zeta distribution;
        most draws are 1, with a long tail of very large values — the
        shape of real mail-hosting consolidation.
        """
        # Rejection-free approximation: u^(-1/(alpha-1)) is Pareto-ish.
        u = self._random.random()
        size = int(u ** (-1.0 / (alpha - 1.0)))
        return max(1, min(size, max_size))

    def exponential_days(self, mean_days: float) -> float:
        """An exponentially distributed delay, in days."""
        return self._random.expovariate(1.0 / mean_days) if mean_days > 0 else 0.0

    def domain_word(self, min_len: int = 4, max_len: int = 12) -> str:
        """A pronounceable-ish random second-level-domain word."""
        consonants = "bcdfghjklmnpqrstvwz"
        vowels = "aeiou"
        length = self._random.randint(min_len, max_len)
        out = []
        for i in range(length):
            out.append(self._random.choice(consonants if i % 2 == 0 else vowels))
        return "".join(out)
