"""Domain population generation — lazy and columnar.

Generates the paper's two measurement sets — the **Alexa Top List**
(418,842 domains, October 2021 snapshot) and the **2-Week MX** set
(22,911 email domains observed at a university) — plus the **Alexa Top
1000** subset and the **Top Email Providers** list (Foster et al.'s 20
most-common email services), with the paper's overlaps (Table 1) and TLD
mix (Table 2).

Unlike the original eager implementation, nothing here materializes the
population up front.  A :class:`DomainTable` stores the population as
parallel column chunks (TLD index, set-membership bitmask, MX query
count) generated on demand, and every row is a pure function of
``(config.seed, index)``:

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
an O(1) reverse lookup.  :class:`Domain` objects are cheap views
materialized on access and cached weakly, so memory stays O(touched)
rather than O(world).

Everything scales with ``PopulationConfig.scale`` so tests run on a
small Internet and benches can approach (and exceed) the paper's full
counts.
"""

from __future__ import annotations

import enum
import math
import weakref
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

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
    """One measured email domain (a cheap view over a table row)."""

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


#: Rows per column chunk; chunk generation is the unit of laziness.
CHUNK_ROWS = 4096
#: Generated chunks kept alive in the table's LRU.
_CHUNK_CACHE = 64
#: Scattered single-row lookups memoized outside the chunk LRU.  Bounded
#: well under the chunk cache's footprint (a row tuple is ~200 bytes, so
#: the worst case is a few MB against the 64 MB world budget); cleared
#: wholesale when full because hosting-unit access patterns re-touch a
#: small working set.
_ROW_MEMO_CAP = 32768


class _Chunk:
    """One chunk of parallel column arrays (plus memoized name labels)."""

    __slots__ = ("names", "tld_idx", "flags", "mx")

    def __init__(
        self, names: List[str], tld_idx: array, flags: array, mx: array
    ) -> None:
        self.names = names
        self.tld_idx = tld_idx
        self.flags = flags
        self.mx = mx


class DomainTable:
    """Columnar, lazily generated domain rows.

    Row *i* is regenerated deterministically from ``(seed, i)``: a
    per-index fork of the population RNG (label ``dom-{i}``) redraws the
    same TLD, name word and query count every time the chunk holding the
    row is rebuilt.  Columns live in parallel ``array`` chunks of
    :data:`CHUNK_ROWS` rows, produced on first touch and kept in a small
    LRU, so holding a table costs O(touched chunks), not O(world).
    """

    def __init__(self, config: PopulationConfig) -> None:
        self.config = config
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

        tlds = set(ALEXA_TLD_WEIGHTS) | set(TWO_WEEK_TLD_WEIGHTS)
        tlds.update(name.rsplit(".", 1)[1] for name in TOP_EMAIL_PROVIDER_DOMAINS)
        self.tlds: Tuple[str, ...] = tuple(sorted(tlds))
        self._tld_index: Dict[str, int] = {t: i for i, t in enumerate(self.tlds)}
        self._provider_index: Dict[str, int] = {
            name: i for i, name in enumerate(TOP_EMAIL_PROVIDER_DOMAINS)
        }
        self._chunks: "OrderedDict[int, _Chunk]" = OrderedDict()
        self._row_memo: Dict[int, Tuple[str, str, int, int]] = {}
        # Read-only cache telemetry (repro.obs.perf counter surface).
        # Plain always-on integers: the counts are deterministic for a
        # given access pattern, so the report can print them, and reading
        # them from the perf sampler thread cannot perturb the cache.
        self.chunk_hits = 0
        self.chunk_misses = 0
        self.chunk_evictions = 0
        self.row_regens = 0

    def __len__(self) -> int:
        return self.total

    @property
    def chunk_count(self) -> int:
        return (self.total + CHUNK_ROWS - 1) // CHUNK_ROWS

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

    # -- chunk generation -----------------------------------------------------

    def chunk(self, chunk_index: int) -> _Chunk:
        chunk = self._chunks.get(chunk_index)
        if chunk is None:
            self.chunk_misses += 1
            chunk = self._generate_chunk(chunk_index)
            self._chunks[chunk_index] = chunk
            while len(self._chunks) > _CHUNK_CACHE:
                self._chunks.popitem(last=False)
                self.chunk_evictions += 1
        else:
            self.chunk_hits += 1
            self._chunks.move_to_end(chunk_index)
        return chunk

    def _generate_chunk(self, chunk_index: int) -> _Chunk:
        lo = chunk_index * CHUNK_ROWS
        hi = min(lo + CHUNK_ROWS, self.total)
        names: List[str] = []
        tld_idx = array("H")
        flags = array("B")
        mx = array("L")
        memo = self._row_memo
        for index in range(lo, hi):
            # Rows a scattered read already generated are not drawn again.
            row = memo.get(index)
            if row is None:
                row = self._generate_row(index)
            name, tld, flag_bits, count = row
            names.append(name)
            tld_idx.append(self._tld_index[tld])
            flags.append(flag_bits)
            mx.append(count)
        return _Chunk(names, tld_idx, flags, mx)

    def _generate_row(self, index: int) -> Tuple[str, str, int, int]:
        """Regenerate row ``index`` from its ``(seed, index)`` fork."""
        rng = self._root.fork(f"dom-{index}")
        if index < self.n_providers:
            name = TOP_EMAIL_PROVIDER_DOMAINS[index]
            tld = name.rsplit(".", 1)[1]
            flag_bits = (
                DomainSet.TOP_EMAIL_PROVIDERS | DomainSet.ALEXA_TOP_LIST
            ).value
            if index < self.n_top:
                flag_bits |= DomainSet.ALEXA_1000.value
            count = 0
            if self._sel_top.member(index):
                flag_bits |= DomainSet.TWO_WEEK_MX.value
                count = 50 + rng.zipf_size(alpha=1.4, max_size=100_000)
            return name, tld, flag_bits, count
        if index < self.n_alexa:
            tld = rng.weighted_choice(ALEXA_TLD_WEIGHTS)
            name = f"{rng.domain_word()}-{_base36(index)}.{tld}"
            flag_bits = DomainSet.ALEXA_TOP_LIST.value
            if index < self.n_top:
                flag_bits |= DomainSet.ALEXA_1000.value
            count = 0
            if self.in_two_week_overlap(index):
                flag_bits |= DomainSet.TWO_WEEK_MX.value
                # Popular domains are queried often in university traffic.
                count = 50 + rng.zipf_size(alpha=1.4, max_size=100_000)
            return name, tld, flag_bits, count
        tld = rng.weighted_choice(TWO_WEEK_TLD_WEIGHTS)
        name = f"{rng.domain_word()}-{_base36(index)}.{tld}"
        return (
            name,
            tld,
            DomainSet.TWO_WEEK_MX.value,
            rng.zipf_size(alpha=1.5, max_size=50_000),
        )

    # -- row access -----------------------------------------------------------

    def row(self, index: int) -> Tuple[str, str, int, int]:
        """``(name, tld, flag bits, mx count)`` for row ``index``.

        Reads through an already-cached chunk when one covers the index,
        but a miss regenerates the *single* row: rows are independent
        functions of ``(seed, index)``, and scattered access (a hosting
        unit's permuted domain list, a snapshot restore) must not pay
        for — or thrash the cache of — 4096 neighbors per lookup.  Whole
        chunks are generated only by the population's set-statistics
        scan, which takes rows memoized here instead of drawing them
        again; iterating ``population.domains`` reads row by row.
        """
        if not 0 <= index < self.total:
            raise IndexError(index)
        chunk = self._chunks.get(index // CHUNK_ROWS)
        if chunk is None:
            row = self._row_memo.get(index)
            if row is None:
                self.row_regens += 1
                row = self._generate_row(index)
                if len(self._row_memo) >= _ROW_MEMO_CAP:
                    self._row_memo.clear()
                self._row_memo[index] = row
            return row
        self.chunk_hits += 1
        self._chunks.move_to_end(index // CHUNK_ROWS)
        offset = index % CHUNK_ROWS
        return (
            chunk.names[offset],
            self.tlds[chunk.tld_idx[offset]],
            chunk.flags[offset],
            chunk.mx[offset],
        )

    def name_at(self, index: int) -> str:
        return self.row(index)[0]

    def index_of(self, name: str) -> Optional[int]:
        """Reverse the deterministic naming scheme, or ``None``.

        Provider names come from a fixed dictionary; every generated name
        carries the ``-<base36 index>`` suffix, so the candidate index is
        parsed in O(1) and confirmed by regenerating the row.
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
        """Read-only chunk-LRU telemetry (deterministic counts)."""
        return {
            "population.chunk_hits": self.chunk_hits,
            "population.chunk_misses": self.chunk_misses,
            "population.chunk_evictions": self.chunk_evictions,
            "population.row_regens": self.row_regens,
        }


class _Columns(NamedTuple):
    """The whole table's set bits, TLD indices and names, in row order."""

    flags: array
    tld_idx: array
    names: List[str]


class _DomainSequence:
    """A list-like lazy view over a population's domains."""

    __slots__ = ("_population",)

    def __init__(self, population: "DomainPopulation") -> None:
        self._population = population

    def __len__(self) -> int:
        return len(self._population.table)

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
    """Set-indexed access over a lazily generated :class:`DomainTable`.

    ``domains`` is a lazy sequence; indexing or iterating it materializes
    :class:`Domain` views on demand.  Views are cached weakly, so two
    lookups of a live domain return the *same* object while memory still
    stays proportional to what callers actually hold.

    Membership is part of the public API — ``name in population``,
    :meth:`get` and :meth:`index_of` — so nothing outside this class has
    a reason to reach into private lookup state (the eager
    implementation's ``_unique_name`` used to probe ``_by_name``
    directly; the deterministic index-derived names removed both the
    retry loop and the need for reservation bookkeeping).

    Set statistics (:meth:`set_size`, :meth:`overlap`,
    :meth:`tld_counts`) are closed-form where the generation scheme pins
    them and cached otherwise.  Everything that is not closed-form —
    set members (:meth:`in_set`, :meth:`names_in_set`), TLD histograms,
    open overlaps — reads one scan of the table, taken on first use and
    kept with the other statistics as flat columns and row indices
    (never as :class:`Domain` views), so a report scans the world once
    however many tables and figures ask for a set.
    """

    def __init__(self, config: Optional[PopulationConfig] = None) -> None:
        self.config = config or PopulationConfig()
        self.table = DomainTable(self.config)
        self._views: "weakref.WeakValueDictionary[int, Domain]" = (
            weakref.WeakValueDictionary()
        )
        self._stats: Dict[tuple, object] = {}

    # -- row views ------------------------------------------------------------

    @property
    def domains(self) -> _DomainSequence:
        """Every domain, as a lazy list-like sequence of views.

        A new sequence per access: one stored on the population would
        point back at it, and that reference cycle would leave a dropped
        world for the cyclic garbage collector to free.
        """
        return _DomainSequence(self)

    def domain_at(self, index: int) -> Domain:
        """The (cached) :class:`Domain` view for row ``index``."""
        view = self._views.get(index)
        if view is not None:
            return view
        name, tld, flag_bits, count = self.table.row(index)
        sets = DomainSet(flag_bits)
        view = Domain(
            name=name,
            tld=tld,
            sets=sets,
            alexa_rank=index + 1 if index < self.table.n_alexa else None,
            mx_query_count=count or None,
            provider_name=(
                name.split(".")[0]
                if sets & DomainSet.TOP_EMAIL_PROVIDERS
                else None
            ),
        )
        self._views[index] = view
        return view

    def index_of(self, name: str) -> Optional[int]:
        """The table row generating ``name``, or ``None``."""
        return self.table.index_of(name)

    def perf_counters(self) -> Dict[str, int]:
        """The underlying table's cache telemetry."""
        return self.table.perf_counters()

    def __len__(self) -> int:
        return len(self.table)

    def __contains__(self, name: str) -> bool:
        return self.table.index_of(name) is not None

    def get(self, name: str) -> Optional[Domain]:
        index = self.table.index_of(name)
        return None if index is None else self.domain_at(index)

    # -- set statistics -------------------------------------------------------

    def _columns(self) -> "_Columns":
        """Every row's set bits, TLD and name, from one scan of the table."""
        columns = self._stats.get(("columns",))
        if columns is None:
            table = self.table
            flags = array("B")
            tld_idx = array("H")
            names: List[str] = []
            for chunk_index in range(table.chunk_count):
                chunk = table.chunk(chunk_index)
                flags.extend(chunk.flags)
                tld_idx.extend(chunk.tld_idx)
                names.extend(chunk.names)
            columns = self._stats[("columns",)] = _Columns(flags, tld_idx, names)
        return columns  # type: ignore[return-value]

    def _member_rows(self, domain_set: DomainSet) -> array:
        """Ascending row indices of every member of ``domain_set``."""
        key = ("rows", domain_set.value)
        rows = self._stats.get(key)
        if rows is None:
            mask = domain_set.value
            rows = self._stats[key] = array(
                "I",
                [
                    index
                    for index, flag_bits in enumerate(self._columns().flags)
                    if flag_bits & mask
                ],
            )
        return rows  # type: ignore[return-value]

    def in_set(self, domain_set: DomainSet) -> List[Domain]:
        """Materialized views for every member of ``domain_set``, in row
        order."""
        return [self.domain_at(index) for index in self._member_rows(domain_set)]

    def names_in_set(self, domain_set: DomainSet) -> List[str]:
        """The names of every member of ``domain_set``, in row order (no
        :class:`Domain` views)."""
        names = self._columns().names
        return [names[index] for index in self._member_rows(domain_set)]

    def set_size(self, domain_set: DomainSet) -> int:
        table = self.table
        if domain_set == DomainSet.ALEXA_TOP_LIST:
            return table.n_alexa
        if domain_set == DomainSet.ALEXA_1000:
            return table.n_top
        if domain_set == DomainSet.TWO_WEEK_MX:
            return table.n_two_week
        if domain_set == DomainSet.TOP_EMAIL_PROVIDERS:
            return table.n_providers
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
            self._stats[key] = sum(
                1
                for flag_bits in self._columns().flags
                if flag_bits & first.value and flag_bits & second.value
            )
        return self._stats[key]  # type: ignore[return-value]

    def _closed_overlap(self, first: DomainSet, second: DomainSet) -> Optional[int]:
        if first not in _SINGLE_SETS or second not in _SINGLE_SETS:
            return None
        table = self.table
        pair = frozenset((first, second))
        if pair == {DomainSet.ALEXA_TOP_LIST, DomainSet.ALEXA_1000}:
            return table.n_top
        if pair == {DomainSet.ALEXA_TOP_LIST, DomainSet.TWO_WEEK_MX}:
            return table.k_top + table.k_rest
        if pair == {DomainSet.ALEXA_TOP_LIST, DomainSet.TOP_EMAIL_PROVIDERS}:
            return table.n_providers
        if pair == {DomainSet.ALEXA_1000, DomainSet.TWO_WEEK_MX}:
            return table.k_top
        if pair == {DomainSet.ALEXA_1000, DomainSet.TOP_EMAIL_PROVIDERS}:
            return min(table.n_providers, table.n_top)
        if pair == {DomainSet.TWO_WEEK_MX, DomainSet.TOP_EMAIL_PROVIDERS}:
            return table.provider_two_week_count()
        return None

    def tld_counts(self, domain_set: DomainSet) -> Dict[str, int]:
        """TLD histogram for one set (Table 2 rows)."""
        key = ("tld", domain_set.value)
        cached = self._stats.get(key)
        if cached is None:
            tlds = self.table.tlds
            tld_idx = self._columns().tld_idx
            counts: Dict[str, int] = {}
            for index in self._member_rows(domain_set):
                tld = tlds[tld_idx[index]]
                counts[tld] = counts.get(tld, 0) + 1
            self._stats[key] = cached = counts
        return dict(cached)  # callers may mutate their copy


def generate_population(config: Optional[PopulationConfig] = None) -> DomainPopulation:
    """The (lazy) domain population for a configuration.

    Construction is O(1) in the population size: rows generate on first
    touch and regenerate identically from ``(seed, index)``.
    """
    return DomainPopulation(config)
