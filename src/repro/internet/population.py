"""Domain population generation — lazy, one row per touch.

Generates the paper's two measurement sets — the **Alexa Top List**
(418,842 domains, October 2021 snapshot) and the **2-Week MX** set
(22,911 email domains observed at a university) — plus the **Alexa Top
1000** subset and the **Top Email Providers** list (Foster et al.'s 20
most-common email services), with the paper's overlaps (Table 1) and TLD
mix (Table 2).

Unlike the original eager implementation, nothing here materializes the
population up front.  A :class:`DomainPopulation` draws each row on
first touch and keeps the resulting :class:`Domain`, and every row is a
pure function of ``(config.seed, index)``:

- index ``0 .. 19`` — the top email providers, pinned to the head of the
  Alexa ranking;
- index ``20 .. alexa_size-1`` — the remaining Alexa Top List (rank is
  ``index + 1``; the Alexa 1000 is the head);
- index ``alexa_size .. len-1`` — the 2-Week-MX-only tail.

Membership of the 2-Week MX ∩ Alexa overlaps is decided by exact-count
affine selections instead of rejection sampling, so Table 1 cell sizes
are closed-form at every scale.  Generated names carry a deterministic
base-36 suffix derived from the row index, which makes name generation
O(1) and total (no collision-retry loop) and gives `get`/`__contains__`
an O(1) reverse lookup.  Memory stays O(touched) rather than O(world).

Everything scales with ``PopulationConfig.scale`` so tests run on a
small Internet and benches can approach (and exceed) the paper's full
counts.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .rng import SeededRng
from .tld import ALEXA_TLD_WEIGHTS, ALEXA_TOTAL, TWO_WEEK_TLD_WEIGHTS, TWO_WEEK_TOTAL


class DomainSet(enum.Flag):
    """Measurement-set membership (a domain may be in several)."""

    ALEXA_TOP_LIST = enum.auto()
    ALEXA_1000 = enum.auto()
    TWO_WEEK_MX = enum.auto()
    TOP_EMAIL_PROVIDERS = enum.auto()


_SINGLE_SETS: Tuple[DomainSet, ...] = (
    DomainSet.ALEXA_TOP_LIST,
    DomainSet.ALEXA_1000,
    DomainSet.TWO_WEEK_MX,
    DomainSet.TOP_EMAIL_PROVIDERS,
)


#: The 20 most common email services (after Foster et al. [6]); the paper's
#: Table 3 "Top Email Providers" column tests these domains.
TOP_EMAIL_PROVIDER_DOMAINS: Tuple[str, ...] = (
    "gmail.com", "outlook.com", "yahoo.com", "icloud.com", "aol.com",
    "mail.ru", "naver.com", "hotmail.com", "comcast.net", "verizon.net",
    "qq.com", "163.com", "gmx.de", "web.de", "daum.net",
    "seznam.cz", "wp.pl", "o2.pl", "interia.pl", "yandex.ru",
)

#: Providers the paper found vulnerable (Section 7.5) — international
#: services inside the Alexa Top 1000.
VULNERABLE_PROVIDER_DOMAINS: Tuple[str, ...] = (
    "naver.com", "mail.ru", "wp.pl", "seznam.cz",
)


@dataclass
class Domain:
    """One measured email domain (one population row)."""

    name: str
    tld: str
    sets: DomainSet
    alexa_rank: Optional[int] = None
    mx_query_count: Optional[int] = None
    provider_name: Optional[str] = None

    def in_set(self, domain_set: DomainSet) -> bool:
        return bool(self.sets & domain_set)


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs for population generation.

    ``scale`` multiplies the paper's set sizes (1.0 = full size).  The
    Table 1 overlap fractions are preserved at every scale.
    """

    scale: float = 0.05
    seed: int = 20211011
    #: Fraction of the 2-Week MX set also present in the Alexa Top List
    #: (Table 1: 2,922 / 22,911).
    two_week_alexa_overlap: float = 2_922 / 22_911
    #: Fraction of the 2-Week MX set also present in the Alexa Top 1000
    #: (Table 1: 135 / 22,911).
    two_week_alexa1000_overlap: float = 135 / 22_911

    @property
    def alexa_size(self) -> int:
        return max(200, int(round(ALEXA_TOTAL * self.scale)))

    @property
    def alexa_1000_size(self) -> int:
        return max(20, int(round(1000 * self.scale)))

    @property
    def two_week_size(self) -> int:
        return max(60, int(round(TWO_WEEK_TOTAL * self.scale)))


_BASE36_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _base36(value: int) -> str:
    if value == 0:
        return "0"
    out = []
    while value:
        value, digit = divmod(value, 36)
        out.append(_BASE36_DIGITS[digit])
    return "".join(reversed(out))


class _AffineSelection:
    """Exactly ``count`` members of ``range(size)`` with O(1) membership.

    The bijection ``i -> (i * mult + offset) % size`` (``mult`` coprime
    to ``size``) scatters indices over a pseudo-random ordering; members
    are the indices that land in the first ``count`` slots.  Unlike
    rejection sampling this is exact-count and needs no materialized
    index set, which keeps Table 1 overlap cells closed-form.
    """

    __slots__ = ("size", "count", "mult", "offset")

    def __init__(self, rng: SeededRng, size: int, count: int) -> None:
        self.size = size
        self.count = max(0, min(count, size))
        if size <= 0:
            self.mult, self.offset = 1, 0
            return
        mult = rng.randint(1, max(1, size - 1))
        while math.gcd(mult, size) != 1:
            mult = mult % size + 1
        self.mult = mult
        self.offset = rng.randint(0, size - 1)

    def member(self, index: int) -> bool:
        if self.count <= 0:
            return False
        return (index * self.mult + self.offset) % self.size < self.count


class _DomainSequence:
    """A list-like lazy view over a population's domains."""

    __slots__ = ("_population",)

    def __init__(self, population: "DomainPopulation") -> None:
        self._population = population

    def __len__(self) -> int:
        return len(self._population)

    def __getitem__(self, item):
        size = len(self)
        if isinstance(item, slice):
            return [
                self._population.domain_at(i) for i in range(*item.indices(size))
            ]
        if item < 0:
            item += size
        if not 0 <= item < size:
            raise IndexError(item)
        return self._population.domain_at(item)

    def __iter__(self) -> Iterator[Domain]:
        for index in range(len(self)):
            yield self._population.domain_at(index)


class DomainPopulation:
    """The domain population, drawn row by row on first touch.

    Row *i* is regenerated deterministically from ``(seed, i)``: a
    per-index fork of the population RNG (label ``dom-{i}``) draws its
    TLD, name word and query count.  Each drawn row is kept as a
    :class:`Domain` in one dict, the population's only cache, so every
    row is drawn at most once, two lookups of a domain return the *same*
    object, and memory stays proportional to the rows touched.

    ``domains`` is a lazy sequence over the rows.  Membership is part of
    the public API — ``name in population``, :meth:`get` and
    :meth:`index_of` — so nothing outside this class has a reason to
    reach into private lookup state (the eager implementation's
    ``_unique_name`` used to probe ``_by_name`` directly; the
    deterministic index-derived names removed both the retry loop and
    the need for reservation bookkeeping).

    Set statistics (:meth:`set_size`, :meth:`overlap`,
    :meth:`tld_counts`) are closed-form where the generation scheme pins
    them and cached otherwise.  Everything that is not closed-form —
    set members (:meth:`in_set`, :meth:`names_in_set`), TLD histograms,
    open overlaps — reads each set's ascending member row indices, found
    by one pass over the rows the first time the set is asked for and
    kept in ``_stats``, so a report scans the world once per set however
    many tables and figures ask for it.
    """

    def __init__(self, config: Optional[PopulationConfig] = None) -> None:
        self.config = config = config or PopulationConfig()
        self.n_providers = len(TOP_EMAIL_PROVIDER_DOMAINS)
        self.n_alexa = config.alexa_size
        self.n_top = min(config.alexa_1000_size, self.n_alexa)
        self.n_two_week = config.two_week_size

        n_overlap = int(round(config.two_week_alexa_overlap * self.n_two_week))
        n_overlap_top = min(
            int(round(config.two_week_alexa1000_overlap * self.n_two_week)),
            n_overlap,
        )
        #: overlap pulled from the Alexa 1000 head (providers included,
        #: mirroring the eager sampler's ``top_domains`` pool).
        self.k_top = min(n_overlap_top, self.n_top)
        self.k_rest = min(n_overlap - self.k_top, self.n_alexa - self.n_top)
        self.n_two_week_only = self.n_two_week - self.k_top - self.k_rest
        self.total = self.n_alexa + self.n_two_week_only

        self._root = SeededRng(config.seed).fork("population")
        self._sel_top = _AffineSelection(
            self._root.fork("two-week-top"), self.n_top, self.k_top
        )
        self._sel_rest = _AffineSelection(
            self._root.fork("two-week-rest"),
            self.n_alexa - self.n_top,
            self.k_rest,
        )
        self._provider_index: Dict[str, int] = {
            name: i for i, name in enumerate(TOP_EMAIL_PROVIDER_DOMAINS)
        }
        self._views: Dict[int, Domain] = {}
        self._stats: Dict[tuple, object] = {}
        # Read-only telemetry (repro.obs.perf counter surface): rows
        # drawn so far.  A plain always-on integer, deterministic for a
        # given access pattern, so the report can print it.
        self.row_regens = 0

    def __len__(self) -> int:
        return self.total

    def in_two_week_overlap(self, index: int) -> bool:
        """Whether Alexa row ``index`` is also a 2-Week MX member."""
        if index < self.n_top:
            return self._sel_top.member(index)
        if index < self.n_alexa:
            return self._sel_rest.member(index - self.n_top)
        return False

    def provider_two_week_count(self) -> int:
        return sum(
            1 for i in range(self.n_providers) if self._sel_top.member(i)
        )

    # -- rows -----------------------------------------------------------------

    def _generate_row(self, index: int) -> Domain:
        """Regenerate row ``index`` from its ``(seed, index)`` fork."""
        rng = self._root.fork(f"dom-{index}")
        if index >= self.n_alexa:
            tld = rng.weighted_choice(TWO_WEEK_TLD_WEIGHTS)
            return Domain(
                name=f"{rng.domain_word()}-{_base36(index)}.{tld}",
                tld=tld,
                sets=DomainSet.TWO_WEEK_MX,
                mx_query_count=rng.zipf_size(alpha=1.5, max_size=50_000),
            )
        provider_name = None
        if index < self.n_providers:
            name = TOP_EMAIL_PROVIDER_DOMAINS[index]
            provider_name, tld = name.split(".")[0], name.rsplit(".", 1)[1]
            flag_bits = (
                DomainSet.TOP_EMAIL_PROVIDERS | DomainSet.ALEXA_TOP_LIST
            ).value
        else:
            tld = rng.weighted_choice(ALEXA_TLD_WEIGHTS)
            name = f"{rng.domain_word()}-{_base36(index)}.{tld}"
            flag_bits = DomainSet.ALEXA_TOP_LIST.value
        if index < self.n_top:
            flag_bits |= DomainSet.ALEXA_1000.value
        count = None
        if self.in_two_week_overlap(index):
            flag_bits |= DomainSet.TWO_WEEK_MX.value
            # Popular domains are queried often in university traffic.
            count = 50 + rng.zipf_size(alpha=1.4, max_size=100_000)
        return Domain(
            name=name,
            tld=tld,
            sets=DomainSet(flag_bits),
            alexa_rank=index + 1,
            mx_query_count=count,
            provider_name=provider_name,
        )

    @property
    def domains(self) -> _DomainSequence:
        """Every domain, as a lazy list-like sequence.

        A new sequence per access: one stored on the population would
        point back at it, and that reference cycle would leave a dropped
        world for the cyclic garbage collector to free.
        """
        return _DomainSequence(self)

    def domain_at(self, index: int) -> Domain:
        """The :class:`Domain` of row ``index``, drawn on first touch."""
        view = self._views.get(index)
        if view is None:
            if not 0 <= index < self.total:
                raise IndexError(index)
            self.row_regens += 1
            view = self._views[index] = self._generate_row(index)
        return view

    def name_at(self, index: int) -> str:
        return self.domain_at(index).name

    def index_of(self, name: str) -> Optional[int]:
        """The row generating ``name``, or ``None``.

        Provider names come from a fixed dictionary; every generated name
        carries the ``-<base36 index>`` suffix, so the candidate index is
        parsed in O(1) and confirmed against the row's name.
        """
        provider = self._provider_index.get(name)
        if provider is not None:
            return provider
        label, dot, _tld = name.rpartition(".")
        if not dot:
            return None
        word, dash, suffix = label.rpartition("-")
        if not dash or not word or not suffix:
            return None
        try:
            index = int(suffix, 36)
        except ValueError:
            return None
        if suffix != _base36(index):  # reject non-canonical spellings
            return None
        if not self.n_providers <= index < self.total:
            return None
        if self.name_at(index) != name:
            return None
        return index

    def perf_counters(self) -> Dict[str, int]:
        """Read-only row telemetry (deterministic counts)."""
        return {"population.row_regens": self.row_regens}

    def __contains__(self, name: str) -> bool:
        return self.index_of(name) is not None

    def get(self, name: str) -> Optional[Domain]:
        index = self.index_of(name)
        return None if index is None else self.domain_at(index)

    # -- set statistics -------------------------------------------------------

    def _member_rows(self, domain_set: DomainSet) -> array:
        """Ascending row indices of every member of ``domain_set``."""
        key = ("rows", domain_set.value)
        rows = self._stats.get(key)
        if rows is None:
            domain_at, mask = self.domain_at, domain_set.value
            rows = self._stats[key] = array(
                "I",
                [
                    index
                    for index in range(self.total)
                    if domain_at(index).sets.value & mask
                ],
            )
        return rows  # type: ignore[return-value]

    def in_set(self, domain_set: DomainSet) -> List[Domain]:
        """Every member of ``domain_set``, in row order."""
        rows = self._member_rows(domain_set)
        views = self._views  # the member scan drew every row
        return [views[index] for index in rows]

    def names_in_set(self, domain_set: DomainSet) -> List[str]:
        """The names of every member of ``domain_set``, in row order."""
        return [domain.name for domain in self.in_set(domain_set)]

    def set_size(self, domain_set: DomainSet) -> int:
        if domain_set == DomainSet.ALEXA_TOP_LIST:
            return self.n_alexa
        if domain_set == DomainSet.ALEXA_1000:
            return self.n_top
        if domain_set == DomainSet.TWO_WEEK_MX:
            return self.n_two_week
        if domain_set == DomainSet.TOP_EMAIL_PROVIDERS:
            return self.n_providers
        return len(self._member_rows(domain_set))

    def overlap(self, first: DomainSet, second: DomainSet) -> int:
        """Number of domains in both sets (Table 1 cells)."""
        if first == second:
            return self.set_size(first)
        closed = self._closed_overlap(first, second)
        if closed is not None:
            return closed
        key = ("overlap", frozenset((first.value, second.value)))
        if key not in self._stats:
            mask = second.value
            self._stats[key] = sum(
                1 for domain in self.in_set(first) if domain.sets.value & mask
            )
        return self._stats[key]  # type: ignore[return-value]

    def _closed_overlap(self, first: DomainSet, second: DomainSet) -> Optional[int]:
        if first not in _SINGLE_SETS or second not in _SINGLE_SETS:
            return None
        pair = frozenset((first, second))
        if pair == {DomainSet.ALEXA_TOP_LIST, DomainSet.ALEXA_1000}:
            return self.n_top
        if pair == {DomainSet.ALEXA_TOP_LIST, DomainSet.TWO_WEEK_MX}:
            return self.k_top + self.k_rest
        if pair == {DomainSet.ALEXA_TOP_LIST, DomainSet.TOP_EMAIL_PROVIDERS}:
            return self.n_providers
        if pair == {DomainSet.ALEXA_1000, DomainSet.TWO_WEEK_MX}:
            return self.k_top
        if pair == {DomainSet.ALEXA_1000, DomainSet.TOP_EMAIL_PROVIDERS}:
            return min(self.n_providers, self.n_top)
        if pair == {DomainSet.TWO_WEEK_MX, DomainSet.TOP_EMAIL_PROVIDERS}:
            return self.provider_two_week_count()
        return None

    def tld_counts(self, domain_set: DomainSet) -> Dict[str, int]:
        """TLD histogram for one set (Table 2 rows)."""
        key = ("tld", domain_set.value)
        cached = self._stats.get(key)
        if cached is None:
            counts: Dict[str, int] = {}
            for domain in self.in_set(domain_set):
                counts[domain.tld] = counts.get(domain.tld, 0) + 1
            self._stats[key] = cached = counts
        return dict(cached)  # callers may mutate their copy


def generate_population(config: Optional[PopulationConfig] = None) -> DomainPopulation:
    """The (lazy) domain population for a configuration.

    Construction is O(1) in the population size: rows generate on first
    touch and regenerate identically from ``(seed, index)``.
    """
    return DomainPopulation(config)
