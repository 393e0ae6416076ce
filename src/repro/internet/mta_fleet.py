"""The mail-server fleet behind the domain population.

Domains are grouped into **hosting units** — one mail operator running one
software stack on one or more IP addresses.  Units come in two size
classes: *small* (1-2 domains, self-hosted) and *large* (3 to hundreds of
domains, shared hosting).  This size structure is what lets the model
reproduce the paper's consistent divergence between address-level and
domain-level rates: 47% of Alexa addresses refused connections but only
26% of domains did (parked singletons refuse); 23% of addresses were SPF-
measurable but 48% of domains were (shared hosts validate); 17% of
measured addresses were vulnerable but only 8.7% of measured domains were
(the biggest hosts run maintained software).

Per-class outcome probabilities are *solved from class counts* — the
lazily computed fleet census — against the paper's Table 3 address-level
and domain-level targets, so the calibration holds at any scale without
instantiating a single unit.

Like the population, the fleet is **lazy**: :func:`build_fleet` returns
in O(1).  Unit boundaries are drawn in fixed-size chunks of domain-pool
positions (a per-chunk RNG fork), every unit's category/behavior/policy
draws come from a per-unit RNG fork (label ``unit-{unit_id}``), and IP
addresses are an arithmetic codec over reserved *slots* — so any single
:class:`HostingUnit`, :class:`~repro.smtp.server.SmtpServer`, or DNS
answer can be materialized on first touch (a probe, a notification, a
snapshot restore) and regenerates identically every time.  Holding a
fleet costs O(touched), not O(world).
"""

from __future__ import annotations

import bisect
import datetime as _dt
import enum
import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..clock import INITIAL_MEASUREMENT
from ..dns.message import Message, Rcode
from ..dns.name import Name
from ..dns.rdata import A, MX, RRType, ResourceRecord
from ..dns.resolver import StubResolver
from ..dns.server import DnsBackend
from ..errors import SimulationError
from ..smtp.policies import (
    FailureStage,
    GreylistPolicy,
    RecipientPolicy,
    ServerPolicy,
    SpfTiming,
)
from ..smtp.server import SmtpServer, SpfStack
from ..smtp.transport import Network
from .population import (
    Domain,
    DomainPopulation,
    DomainSet,
    VULNERABLE_PROVIDER_DOMAINS,
)
from .rng import SeededRng
from .tld import GENERIC_TLD_COUNTRY_MIX, TldModel


class UnitCategory(enum.Enum):
    """Which Table 3 outcome bucket a unit's servers land in."""

    REFUSE = "refuse"  # no TCP connection
    SMTP_FAILURE = "smtp-failure"  # fails the NoMsg dialogue, no SPF
    SPF_NOMSG = "spf-nomsg"  # SPF measurable from the NoMsg probe
    MESSAGE_FAILURE = "message-failure"  # fails only at end-of-data
    SPF_BLANKMSG = "spf-blankmsg"  # SPF measurable only from BlankMsg
    NO_SPF = "no-spf"  # accepts mail, never validates SPF

    @property
    def validates_spf(self) -> bool:
        return self in (UnitCategory.SPF_NOMSG, UnitCategory.SPF_BLANKMSG)


_CATEGORIES: Tuple[UnitCategory, ...] = (
    UnitCategory.REFUSE,
    UnitCategory.SMTP_FAILURE,
    UnitCategory.SPF_NOMSG,
    UnitCategory.MESSAGE_FAILURE,
    UnitCategory.SPF_BLANKMSG,
    UnitCategory.NO_SPF,
)


@dataclass(frozen=True)
class BehaviorMix:
    """SPF behavior probabilities among SPF-validating units.

    The remainder after the listed probabilities is RFC-compliant.
    ``vulnerable`` may be overridden per size class (see
    :func:`_solve_vulnerable_rates`).
    """

    vulnerable: float
    no_expansion: float
    reversed_not_truncated: float
    truncated_not_reversed: float
    static: float

    def sample(self, rng: SeededRng, *, vulnerable: Optional[float] = None) -> str:
        v = self.vulnerable if vulnerable is None else vulnerable
        compliant = 1.0 - (
            v
            + self.no_expansion
            + self.reversed_not_truncated
            + self.truncated_not_reversed
            + self.static
        )
        if compliant < 0:
            raise SimulationError("behavior mix probabilities exceed 1")
        return rng.categorical(
            [
                ("vulnerable-libspf2", v),
                ("no-expansion", self.no_expansion),
                ("reversed-not-truncated", self.reversed_not_truncated),
                ("truncated-not-reversed", self.truncated_not_reversed),
                ("static-expansion", self.static),
                ("rfc-compliant", compliant),
            ]
        )


def _targets(
    refuse: float, fail: float, spf_nomsg: float, msgfail: float, spf_blank: float
) -> Dict[UnitCategory, float]:
    """Unconditional six-bucket probabilities (NO_SPF is the remainder)."""
    values = {
        UnitCategory.REFUSE: refuse,
        UnitCategory.SMTP_FAILURE: fail,
        UnitCategory.SPF_NOMSG: spf_nomsg,
        UnitCategory.MESSAGE_FAILURE: msgfail,
        UnitCategory.SPF_BLANKMSG: spf_blank,
    }
    remainder = 1.0 - sum(values.values())
    if remainder < -1e-9:
        raise SimulationError("bucket targets exceed 1")
    values[UnitCategory.NO_SPF] = max(0.0, remainder)
    return values


@dataclass(frozen=True)
class FleetProfile:
    """Per-domain-set calibration (paper Table 3 and Table 4)."""

    #: Address-level unconditional bucket probabilities.
    ip_targets: Dict[UnitCategory, float]
    #: Domain-level unconditional bucket probabilities.
    domain_targets: Dict[UnitCategory, float]
    behavior_mix: BehaviorMix
    #: Vulnerable share among measured addresses / measured domains.
    vulnerable_ip_share: float
    vulnerable_domain_share: float
    #: Fraction of hosting units that are large (3+ domains).
    large_unit_fraction: float
    #: P(greylisting) among connecting units.
    greylist: float = 0.05
    #: P(a second, different SPF stack) among validating units (§7.9: 6%
    #: of measurable IPs showed multiple expansion patterns).
    multi_stack: float = 0.06
    #: P(unit starts rejecting the prober during the longitudinal phase).
    blacklist: float = 0.12
    #: P(unit migrates to new addresses mid-campaign).
    move: float = 0.03
    #: P(unit is flaky) and its per-session transient failure rate —
    #: the noise behind Figure 5's fluctuating conclusiveness.
    flaky: float = 0.20
    flaky_rate: float = 0.25


#: Alexa Top List: 174,679 addresses / 418,840 domains (Table 3 columns).
ALEXA_PROFILE = FleetProfile(
    ip_targets=_targets(
        refuse=81_515 / 174_679,
        fail=34_167 / 174_679,
        spf_nomsg=12_528 / 174_679,
        msgfail=2_209 / 174_679,
        spf_blank=27_139 / 174_679,
    ),
    domain_targets=_targets(
        refuse=109_559 / 418_840,
        fail=62_466 / 418_840,
        spf_nomsg=48_205 / 418_840,
        msgfail=6_512 / 418_840,
        spf_blank=151_753 / 418_840,
    ),
    behavior_mix=BehaviorMix(
        vulnerable=0.171,
        no_expansion=0.030,
        reversed_not_truncated=0.012,
        truncated_not_reversed=0.009,
        static=0.009,
    ),
    vulnerable_ip_share=0.173,
    vulnerable_domain_share=0.087,
    large_unit_fraction=0.09,
)

#: 2-Week MX: 11,203 addresses / 22,911 domains.
TWO_WEEK_PROFILE = FleetProfile(
    ip_targets=_targets(
        refuse=2_773 / 11_203,
        fail=2_032 / 11_203,
        spf_nomsg=1_953 / 11_203,
        msgfail=352 / 11_203,
        spf_blank=2_337 / 11_203,
    ),
    domain_targets=_targets(
        refuse=2_281 / 22_911,
        fail=1_187 / 22_911,
        spf_nomsg=2_399 / 22_911,
        msgfail=440 / 22_911,
        spf_blank=14_204 / 22_911,
    ),
    behavior_mix=BehaviorMix(
        vulnerable=0.100,
        no_expansion=0.033,
        reversed_not_truncated=0.013,
        truncated_not_reversed=0.011,
        static=0.010,
    ),
    vulnerable_ip_share=0.100,
    vulnerable_domain_share=0.060,
    large_unit_fraction=0.05,
)


@dataclass
class HostingUnit:
    """One mail operator: a software stack on one or more addresses."""

    unit_id: int
    domains: List[Domain]
    ips: List[str]
    mail_hostname: str
    category: UnitCategory
    spf_timing: SpfTiming = SpfTiming.NEVER
    behavior_name: Optional[str] = None
    second_behavior_name: Optional[str] = None
    second_timing: SpfTiming = SpfTiming.AFTER_MESSAGE
    greylists: bool = False
    blacklists_after: Optional[int] = None
    moves_at: Optional[_dt.datetime] = None
    new_ips: List[str] = field(default_factory=list)
    country: str = "United States"
    #: Whether mail to postmaster@<domain> is deliverable (the paper saw
    #: 31.6% of private notifications bounce).
    accepts_postmaster: bool = True
    #: Failure stage for SMTP_FAILURE units.
    failure_stage: FailureStage = FailureStage.NONE
    #: Transient per-session failure rate during the longitudinal phase.
    flaky_rate: float = 0.0

    @property
    def is_vulnerable(self) -> bool:
        return self.behavior_name == "vulnerable-libspf2" or (
            self.second_behavior_name == "vulnerable-libspf2"
        )

    @property
    def all_ips(self) -> List[str]:
        return self.ips + self.new_ips

    @property
    def primary_tld(self) -> str:
        return self.domains[0].tld if self.domains else "com"

    @property
    def is_large(self) -> bool:
        return len(self.domains) >= 3


# --------------------------------------------------------------------------
# synthetic address space
# --------------------------------------------------------------------------

#: The 10.0.0.0/8 codec covers 2^24 slots.
_SLOT_LIMIT = 1 << 24


def _encode_slot(slot: int) -> str:
    """Slot number → synthetic 10.x.y.z address."""
    if not 0 <= slot < _SLOT_LIMIT:
        raise SimulationError("synthetic IPv4 space exhausted")
    return f"10.{(slot >> 16) & 0xFF}.{(slot >> 8) & 0xFF}.{slot & 0xFF}"


def _decode_slot(ip: str) -> Optional[int]:
    """Synthetic address → slot number, or ``None`` for foreign input.

    Only the canonical spelling decodes — re-encoding must reproduce the
    input exactly, so padded octets ("10.00.0.1") are rejected rather
    than aliased onto a real slot.
    """
    parts = ip.split(".")
    if len(parts) != 4 or parts[0] != "10":
        return None
    try:
        octets = [int(part) for part in parts[1:]]
    except ValueError:
        return None
    if any(not 0 <= octet <= 255 for octet in octets):
        return None
    slot = (octets[0] << 16) | (octets[1] << 8) | octets[2]
    if _encode_slot(slot) != ip:
        return None
    return slot


def _unit_moved(unit: HostingUnit, now: Optional[_dt.datetime]) -> bool:
    """Whether a mover's migration is in effect at ``now``."""
    return (
        unit.moves_at is not None
        and bool(unit.new_ips)
        and now is not None
        and now >= unit.moves_at
    )


class FleetDnsBackend(DnsBackend):
    """Authoritative MX/A answers derived from the lazy fleet.

    Nothing is stored: a query materializes (at most) the one hosting
    unit that owns the name and answers from its current state.  Moves
    are a function of the query time — ``now >= unit.moves_at`` flips the
    MX host's A record to the new addresses — so snapshot restores
    answer identically without replaying mutations.
    """

    def __init__(self, fleet: "MtaFleet") -> None:
        # Weak: the fleet holds this backend (see MtaFleet.units).
        self._fleet = weakref.proxy(fleet)
        #: answers served (read-only telemetry; see ``MtaFleet.perf_counters``).
        self.query_count = 0

    def query(self, message: Message, *, source: str = "", now=None) -> Message:
        self.query_count += 1
        if message.question is None:
            return message.make_response(Rcode.FORMERR)
        qname, rrtype = message.question.name, message.question.rrtype
        response = message.make_response()
        text = str(qname).lower().rstrip(".")
        if text.startswith("mx."):
            unit = self._fleet.unit_for_domain(text[3:])
            if unit is not None and unit.mail_hostname == text:
                if rrtype == RRType.A:
                    addresses = unit.new_ips if _unit_moved(unit, now) else unit.ips
                    for address in addresses:
                        response.answers.append(
                            ResourceRecord(name=qname, rdata=A(address), ttl=300)
                        )
                return response  # NODATA for other types on a live host
        else:
            unit = self._fleet.unit_for_domain(text)
            if unit is not None:
                if rrtype == RRType.MX:
                    response.answers.append(
                        ResourceRecord(
                            name=qname,
                            rdata=MX(10, Name.from_text(unit.mail_hostname)),
                            ttl=300,
                        )
                    )
                return response  # apex has MX but no A in this model
        response.rcode = Rcode.NXDOMAIN
        return response


# --------------------------------------------------------------------------
# lazy fleet structure
# --------------------------------------------------------------------------

#: Domain-pool positions per unit-layout chunk (the unit of laziness).
_UNIT_CHUNK = 4096
#: Regenerated layout chunks kept in the fleet's LRU.
_LAYOUT_CACHE = 64


class _AffinePermutation:
    """A seeded bijection on ``range(size)`` with O(1) apply/invert."""

    __slots__ = ("size", "mult", "offset", "_inv")

    def __init__(self, rng: SeededRng, size: int) -> None:
        self.size = max(1, size)
        mult = rng.randint(1, max(1, self.size - 1))
        while math.gcd(mult, self.size) != 1:
            mult = mult % self.size + 1
        self.mult = mult
        self.offset = rng.randint(0, self.size - 1)
        self._inv = pow(mult, -1, self.size)

    def apply(self, index: int) -> int:
        return (index * self.mult + self.offset) % self.size

    def invert(self, value: int) -> int:
        return ((value - self.offset) * self._inv) % self.size


class _LayoutChunk:
    """Unit boundaries for one chunk of pool positions (parallel arrays)."""

    __slots__ = ("starts", "sizes", "ip_counts", "slot_off", "total_slots")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.sizes: List[int] = []
        self.ip_counts: List[int] = []
        #: Slot offset of each unit within the chunk's reservation.
        self.slot_off: List[int] = []
        self.total_slots = 0


class _PoolState:
    """One domain set's unit pool: permutation plus census aggregates."""

    __slots__ = (
        "name", "lo", "size", "profile", "perm", "chunk_count",
        "unit_base", "slot_base", "units_before", "slots_before",
        "n_units", "total_slots", "primary_ips",
        "small_units", "large_units", "small_domains", "large_domains",
        "elig_large_units", "elig_large_domains",
        "small_probs", "large_probs", "v_small", "v_large",
    )

    def __init__(self, name: str, lo: int, size: int, profile: FleetProfile, rng: SeededRng):
        self.name = name
        self.lo = lo  # first domain index owned by this pool
        self.size = size
        self.profile = profile
        self.perm = _AffinePermutation(rng, size)
        self.chunk_count = (size + _UNIT_CHUNK - 1) // _UNIT_CHUNK


class MtaFleet:
    """The hosting fleet as lazily regenerable state.

    Its surface — ``units`` (list-like, indexable by ``unit_id``),
    :meth:`unit_for_domain`/:meth:`unit_for_ip`, ``dns_backend``,
    ``build_network`` — materializes only what each access touches:

    - unit boundaries regenerate per layout chunk from a chunk RNG fork;
    - a unit's full configuration regenerates from ``fork("unit-{id}")``;
    - addresses are slot arithmetic (every unit reserves ``2 x ip_count``
      slots; the second half exists only if the unit moves mid-campaign);
    - SMTP servers are created by the network provider on first
      connect/lookup and *synced* on every touch (refusal flips at
      ``moves_at``, patches apply once their plan date passes), replacing
      the old eagerly scheduled clock callbacks.

    The census (:meth:`_ensure_census`) runs the chunk layout draws once
    to build prefix-sum indexes and class counts — O(world) time on first
    touch but O(#chunks) memory — which feeds the calibration solver with
    counts instead of instantiated units.
    """

    def __init__(self, population: DomainPopulation) -> None:
        self.population = population
        self._root = SeededRng(population.config.seed).fork("fleet")
        self._geo_seed: Optional[int] = None

        self.n_providers = population.n_providers
        self._pools = [
            _PoolState(
                "alexa", population.n_providers,
                population.n_alexa - population.n_providers,
                ALEXA_PROFILE, self._root.fork("alexa-pool"),
            ),
            _PoolState(
                "two-week", population.n_alexa, population.n_two_week_only,
                TWO_WEEK_PROFILE, self._root.fork("two-week-pool"),
            ),
        ]

        # Providers are few and head the unit-id and slot spaces; their
        # ip counts are the first draw of their per-provider fork, so the
        # slot prefix is known without configuring them.
        self._provider_ip_counts = [
            self._root.fork(f"provider-{i}").randint(2, 5)
            for i in range(self.n_providers)
        ]
        self._provider_slots_before = [0]
        for count in self._provider_ip_counts:
            self._provider_slots_before.append(
                self._provider_slots_before[-1] + 2 * count
            )
        self._provider_slot_total = self._provider_slots_before[-1]

        self._census_ready = False
        self._unit_count: Optional[int] = None
        self._layouts: "OrderedDict[Tuple[str, int], _LayoutChunk]" = OrderedDict()
        #: every unit touched so far, each materialized once.
        self._units: Dict[int, HostingUnit] = {}

        # Read-only cache telemetry (repro.obs.perf counter surface);
        # always-on plain integers, deterministic for an access pattern.
        self.layout_hits = 0
        self.layout_misses = 0
        self.layout_evictions = 0
        self.unit_view_hits = 0
        self.unit_materializations = 0

        self.dns_backend = FleetDnsBackend(self)

    # A view or backend stored on the fleet that pointed back at it would
    # make every world a reference cycle, which only the cyclic garbage
    # collector frees: the views are made per access, and the one
    # backend (registered with the resolver, keeping a count) holds the
    # fleet weakly.

    @property
    def units(self) -> "_UnitSequence":
        """Every hosting unit, as a lazy list indexable by ``unit_id``."""
        return _UnitSequence(self)

    # -- census ---------------------------------------------------------------

    def _ensure_census(self) -> None:
        """Index the unit layout: prefix sums plus calibration counts."""
        if self._census_ready:
            return
        unit_base = self.n_providers
        slot_base = self._provider_slot_total
        for pool in self._pools:
            pool.unit_base = unit_base
            pool.slot_base = slot_base
            units_before, slots_before = [0], [0]
            small_u = large_u = small_d = large_d = 0
            elig_large_u = elig_large_d = primary = 0
            for chunk_index in range(pool.chunk_count):
                layout = self._layout(pool, chunk_index)
                for size, ip_count in zip(layout.sizes, layout.ip_counts):
                    primary += ip_count
                    if size < 3:
                        small_u += 1
                        small_d += size
                    else:
                        large_u += 1
                        large_d += size
                        if size <= VULNERABLE_ELIGIBILITY_MAX_DOMAINS:
                            elig_large_u += 1
                            elig_large_d += size
                units_before.append(units_before[-1] + len(layout.starts))
                slots_before.append(slots_before[-1] + layout.total_slots)
            pool.units_before = units_before
            pool.slots_before = slots_before
            pool.n_units = units_before[-1]
            pool.total_slots = slots_before[-1]
            pool.primary_ips = primary
            pool.small_units, pool.large_units = small_u, large_u
            pool.small_domains, pool.large_domains = small_d, large_d
            pool.elig_large_units = elig_large_u
            pool.elig_large_domains = elig_large_d
            if pool.n_units:
                pool.small_probs, pool.large_probs = _solve_class_probs(
                    pool.profile.ip_targets,
                    pool.profile.domain_targets,
                    unit_share_small=small_u / pool.n_units,
                    domain_share_small=(small_d) / max(1, small_d + large_d),
                )
                pool.v_small, pool.v_large = _solve_vulnerable_rates(
                    pool.profile, pool
                )
            else:
                pool.small_probs = pool.large_probs = dict(pool.profile.ip_targets)
                pool.v_small = pool.v_large = 0.0
            unit_base += pool.n_units
            slot_base += pool.total_slots
        self._unit_count = unit_base
        self._census_ready = True

    def _layout(self, pool: _PoolState, chunk_index: int) -> _LayoutChunk:
        key = (pool.name, chunk_index)
        layout = self._layouts.get(key)
        if layout is None:
            self.layout_misses += 1
            layout = self._generate_layout(pool, chunk_index)
            self._layouts[key] = layout
            while len(self._layouts) > _LAYOUT_CACHE:
                self._layouts.popitem(last=False)
                self.layout_evictions += 1
        else:
            self.layout_hits += 1
            self._layouts.move_to_end(key)
        return layout

    def _generate_layout(self, pool: _PoolState, chunk_index: int) -> _LayoutChunk:
        """Draw unit boundaries for one chunk of pool positions."""
        lo = chunk_index * _UNIT_CHUNK
        hi = min(lo + _UNIT_CHUNK, pool.size)
        rng = self._root.fork(f"{pool.name}/chunk-{chunk_index}")
        layout = _LayoutChunk()
        position = lo
        while position < hi:
            large = rng.bernoulli(pool.profile.large_unit_fraction)
            size = _sample_large_size(rng) if large else _sample_small_size(rng)
            size = min(size, hi - position)
            ip_count = 1 + (1 if rng.bernoulli(0.10) else 0)
            layout.starts.append(position)
            layout.sizes.append(size)
            layout.ip_counts.append(ip_count)
            layout.slot_off.append(layout.total_slots)
            layout.total_slots += 2 * ip_count  # second half: move targets
            position += size
        return layout

    # -- unit materialization -------------------------------------------------

    @property
    def unit_count(self) -> int:
        self._ensure_census()
        return self._unit_count  # type: ignore[return-value]

    def unit_at(self, unit_id: int) -> HostingUnit:
        """One hosting unit, materialized on first touch."""
        unit = self._units.get(unit_id)
        if unit is None:
            self.unit_materializations += 1
            unit = self._units[unit_id] = self._materialize_unit(unit_id)
        else:
            self.unit_view_hits += 1
        return unit

    def _materialize_unit(self, unit_id: int) -> HostingUnit:
        if unit_id < self.n_providers:
            return self._materialize_provider(unit_id)
        self._ensure_census()
        if not self.n_providers <= unit_id < self._unit_count:
            raise IndexError(unit_id)
        pool = self._pools[1] if unit_id >= self._pools[1].unit_base else self._pools[0]
        local_uid = unit_id - pool.unit_base
        chunk_index = bisect.bisect_right(pool.units_before, local_uid) - 1
        layout = self._layout(pool, chunk_index)
        local = local_uid - pool.units_before[chunk_index]
        start = layout.starts[local]
        size = layout.sizes[local]
        ip_count = layout.ip_counts[local]
        slot = pool.slot_base + pool.slots_before[chunk_index] + layout.slot_off[local]

        domains = [
            self.population.domain_at(pool.lo + pool.perm.apply(start + k))
            for k in range(size)
        ]
        rng = self._root.fork(f"unit-{unit_id}")
        probs = pool.large_probs if size >= 3 else pool.small_probs
        category = rng.weighted_choice(probs)
        if size > VULNERABLE_ELIGIBILITY_MAX_DOMAINS:
            rate = 0.0
        else:
            rate = pool.v_large if size >= 3 else pool.v_small
        unit = HostingUnit(
            unit_id=unit_id,
            domains=domains,
            ips=[_encode_slot(slot + k) for k in range(ip_count)],
            mail_hostname=f"mx.{domains[0].name}",
            category=UnitCategory.NO_SPF,
        )
        _configure_unit(unit, category, pool.profile, rate, rng)
        if unit.moves_at is not None:
            unit.new_ips = [_encode_slot(slot + ip_count + k) for k in range(ip_count)]
        if self._geo_seed is not None:
            unit.country = _unit_country(self._geo_seed, unit_id, unit.primary_tld)
        return unit

    def _materialize_provider(self, unit_id: int) -> HostingUnit:
        rng = self._root.fork(f"provider-{unit_id}")
        ip_count = rng.randint(2, 5)  # same first draw as the census prefix
        slot = self._provider_slots_before[unit_id]
        domain = self.population.domain_at(unit_id)
        unit = HostingUnit(
            unit_id=unit_id,
            domains=[domain],
            ips=[_encode_slot(slot + k) for k in range(ip_count)],
            mail_hostname=f"mx.{domain.name}",
            category=UnitCategory.NO_SPF,
        )
        _configure_provider_unit(unit, domain, rng)
        if unit.moves_at is not None:
            unit.new_ips = [_encode_slot(slot + ip_count + k) for k in range(ip_count)]
        if self._geo_seed is not None:
            unit.country = _unit_country(self._geo_seed, unit_id, unit.primary_tld)
        return unit

    def perf_counters(self) -> Dict[str, int]:
        """Read-only layout/unit cache telemetry (deterministic counts)."""
        return {
            "fleet.layout_hits": self.layout_hits,
            "fleet.layout_misses": self.layout_misses,
            "fleet.layout_evictions": self.layout_evictions,
            "fleet.unit_view_hits": self.unit_view_hits,
            "fleet.unit_materializations": self.unit_materializations,
            "fleet.dns_answers": self.dns_backend.query_count,
        }

    # -- lookups --------------------------------------------------------------

    def _unit_id_for_domain_index(self, index: int) -> int:
        if index < self.n_providers:
            return index
        self._ensure_census()
        pool = self._pools[0] if index < self._pools[1].lo else self._pools[1]
        position = pool.perm.invert(index - pool.lo)
        chunk_index = position // _UNIT_CHUNK
        layout = self._layout(pool, chunk_index)
        local = bisect.bisect_right(layout.starts, position) - 1
        return pool.unit_base + pool.units_before[chunk_index] + local

    def unit_for_domain(self, name: str) -> Optional[HostingUnit]:
        """The unit hosting domain ``name``, or ``None``."""
        index = self.population.index_of(name)
        if index is None:
            return None
        return self.unit_at(self._unit_id_for_domain_index(index))

    def _locate_slot(self, slot: int) -> Optional[Tuple[int, int, int]]:
        """Slot → ``(unit_id, offset in reservation, ip_count)``."""
        if slot < self._provider_slot_total:
            i = bisect.bisect_right(self._provider_slots_before, slot) - 1
            return i, slot - self._provider_slots_before[i], self._provider_ip_counts[i]
        self._ensure_census()
        for pool in self._pools:
            rel = slot - pool.slot_base
            if 0 <= rel < pool.total_slots:
                chunk_index = bisect.bisect_right(pool.slots_before, rel) - 1
                layout = self._layout(pool, chunk_index)
                local_slot = rel - pool.slots_before[chunk_index]
                local = bisect.bisect_right(layout.slot_off, local_slot) - 1
                offset = local_slot - layout.slot_off[local]
                unit_id = pool.unit_base + pool.units_before[chunk_index] + local
                return unit_id, offset, layout.ip_counts[local]
        return None

    def unit_for_ip(self, ip: str) -> Optional[HostingUnit]:
        """The unit answering at address ``ip``, or ``None``."""
        slot = _decode_slot(ip)
        if slot is None:
            return None
        located = self._locate_slot(slot)
        if located is None:
            return None
        unit_id, offset, ip_count = located
        unit = self.unit_at(unit_id)
        if offset < ip_count:
            return unit
        # Second-half slots are assigned only if the unit actually moves.
        return unit if ip in unit.new_ips else None

    # -- aggregate views ------------------------------------------------------

    @property
    def all_ips(self) -> List[str]:
        """Every primary address (materializes the whole fleet — prefer
        :meth:`total_ip_count` when only the number is needed)."""
        out: List[str] = []
        for unit in self.units:
            out.extend(unit.ips)
        return out

    def total_ip_count(self) -> int:
        """Number of primary addresses, from the census (no units built)."""
        self._ensure_census()
        return sum(self._provider_ip_counts) + sum(p.primary_ips for p in self._pools)

    def total_slot_count(self) -> int:
        """Reserved address slots (primary plus potential move targets)."""
        self._ensure_census()
        return self._provider_slot_total + sum(p.total_slots for p in self._pools)

    def vulnerable_units(self) -> List[HostingUnit]:
        return [u for u in self.units if u.is_vulnerable]

    def vulnerable_domains(self) -> List[Domain]:
        out: List[Domain] = []
        for unit in self.vulnerable_units():
            out.extend(unit.domains)
        return out

    # -- dynamics -------------------------------------------------------------

    def bind_geography(self, seed: int) -> None:
        """Give units a deterministic country on materialization."""
        self._geo_seed = seed
        for unit_id, unit in self._units.items():
            unit.country = _unit_country(seed, unit_id, unit.primary_tld)

    def sync_server(
        self,
        server: SmtpServer,
        now: _dt.datetime,
        patch_model=None,
    ) -> None:
        """Bring one server's time-dependent state up to ``now``.

        Replaces the old scheduled patch/move callbacks: refusal is a
        pure function of the unit's category and move date, and patching
        applies (idempotently) once the unit's plan date has passed.
        Both transitions are monotone, so touch order cannot diverge
        between runs or across a snapshot restore.
        """
        unit = self.unit_for_ip(server.ip)
        if unit is None:
            return
        moved = _unit_moved(unit, now)
        if server.ip in unit.new_ips:
            server.policy.refuse_connections = not moved
        else:
            server.policy.refuse_connections = (
                unit.category == UnitCategory.REFUSE or moved
            )
        if patch_model is not None and server.is_vulnerable and unit.is_vulnerable:
            if patch_model.plan_for(unit).patched_by(now):
                server.patch()

    def build_network(
        self,
        clock_fn: Callable[[], _dt.datetime],
        resolver_backend: DnsBackend,
    ) -> Network:
        """A lazy network over the fleet's address space.

        Servers materialize on first touch (probe, notification, or
        snapshot restore) and are cached by the network, so memory tracks
        the probed set.  ``resolver_backend`` is the DNS path the
        servers' SPF validators query.
        """
        provider = _FleetServerProvider(self, clock_fn, resolver_backend)
        return Network(clock=clock_fn, provider=provider)

    def _build_server(
        self,
        unit: HostingUnit,
        ip: str,
        clock_fn: Callable[[], _dt.datetime],
        resolver_backend: DnsBackend,
    ) -> SmtpServer:
        policy = ServerPolicy(
            refuse_connections=unit.category == UnitCategory.REFUSE
            or ip in unit.new_ips,  # new addresses come alive at move time
            failure_stage=unit.failure_stage,
            spf_timing=unit.spf_timing,
            greylist=GreylistPolicy(enabled=unit.greylists, retry_after_seconds=300),
            recipients=RecipientPolicy(accept_any=True),
            blacklists_after_probes=unit.blacklists_after,
            flaky_rate=unit.flaky_rate,
        )
        stacks: List[SpfStack] = []
        if unit.behavior_name is not None:
            stacks.append(SpfStack.named(unit.behavior_name, unit.spf_timing))
        if unit.second_behavior_name is not None:
            stacks.append(SpfStack.named(unit.second_behavior_name, unit.second_timing))
        resolver = StubResolver(resolver_backend, identity=ip, clock=clock_fn)
        return SmtpServer(
            ip,
            hostname=unit.mail_hostname,
            policy=policy,
            spf_stacks=stacks,
            resolver=resolver,
        )


class _UnitSequence:
    """List-like lazy view over a fleet's hosting units (by unit id)."""

    __slots__ = ("_fleet",)

    def __init__(self, fleet: MtaFleet) -> None:
        self._fleet = fleet

    def __len__(self) -> int:
        return self._fleet.unit_count

    def __getitem__(self, item):
        size = len(self)
        if isinstance(item, slice):
            return [self._fleet.unit_at(i) for i in range(*item.indices(size))]
        if item < 0:
            item += size
        if not 0 <= item < size:
            raise IndexError(item)
        return self._fleet.unit_at(item)

    def __iter__(self) -> Iterator[HostingUnit]:
        for unit_id in range(len(self)):
            yield self._fleet.unit_at(unit_id)


class _FleetServerProvider:
    """The network's hook into the lazy fleet.

    ``create`` materializes the server for an address on first touch;
    ``sync`` is called on *every* touch to fold time-dependent dynamics
    (moves, patches) into the cached instance.
    """

    __slots__ = ("_fleet", "_clock_fn", "_resolver_backend")

    def __init__(
        self,
        fleet: MtaFleet,
        clock_fn: Callable[[], _dt.datetime],
        resolver_backend: DnsBackend,
    ) -> None:
        self._fleet = fleet
        self._clock_fn = clock_fn
        self._resolver_backend = resolver_backend

    def create(self, ip: str) -> Optional[SmtpServer]:
        unit = self._fleet.unit_for_ip(ip)
        if unit is None:
            return None
        return self._fleet._build_server(
            unit, ip, self._clock_fn, self._resolver_backend
        )

    def sync(self, server: SmtpServer, now: _dt.datetime, patch_model=None) -> None:
        self._fleet.sync_server(server, now, patch_model)

    def has(self, ip: str) -> bool:
        return self._fleet.unit_for_ip(ip) is not None

    def addressable_ips(self) -> Iterator[str]:
        for unit in self._fleet.units:
            yield from unit.all_ips


# --------------------------------------------------------------------------
# generation
# --------------------------------------------------------------------------


def _sample_small_size(rng: SeededRng) -> int:
    return 1 if rng.bernoulli(0.7) else 2


def _sample_large_size(rng: SeededRng) -> int:
    roll = rng.uniform(0.0, 1.0)
    if roll < 0.70:
        return rng.randint(3, 8)
    if roll < 0.95:
        return rng.randint(9, 40)
    return rng.randint(50, 400)


def _solve_class_probs(
    ip_targets: Dict[UnitCategory, float],
    domain_targets: Dict[UnitCategory, float],
    unit_share_small: float,
    domain_share_small: float,
) -> Tuple[Dict[UnitCategory, float], Dict[UnitCategory, float]]:
    """Per-class bucket probabilities hitting both target vectors.

    Solves, per bucket, the 2x2 system::

        u_s * p_s + u_l * p_l = ip_target
        d_s * p_s + d_l * p_l = domain_target

    then clamps to [0, 1] and renormalizes each class vector.
    """
    u_s, u_l = unit_share_small, 1.0 - unit_share_small
    d_s, d_l = domain_share_small, 1.0 - domain_share_small
    det = u_s * d_l - u_l * d_s
    if abs(det) < 1e-9:
        return dict(ip_targets), dict(ip_targets)
    small: Dict[UnitCategory, float] = {}
    large: Dict[UnitCategory, float] = {}
    for category in _CATEGORIES:
        ip_t = ip_targets[category]
        dom_t = domain_targets[category]
        small[category] = max(0.0, (d_l * ip_t - u_l * dom_t) / det)
        large[category] = max(0.0, (u_s * dom_t - d_s * ip_t) / det)
    for probs in (small, large):
        total = sum(probs.values())
        if total <= 0:
            raise SimulationError("degenerate class probabilities")
        for category in probs:
            probs[category] /= total
    return small, large


#: Units hosting more than this many domains never run vulnerable libSPF2:
#: the paper's vulnerable-host profile (18,660 domains on 7,212 addresses,
#: ~2.6 domains each) shows mega-hosts ran maintained software.
VULNERABLE_ELIGIBILITY_MAX_DOMAINS = 40


def _solve_vulnerable_rates(
    profile: FleetProfile, pool: _PoolState
) -> Tuple[float, float]:
    """Per-class vulnerable probabilities among measured units.

    Hits the paper's address-level (17%) *and* domain-level (8.7%)
    vulnerable shares simultaneously: big measured hosts run maintained
    software, so vulnerability skews toward small operators.  Operates
    purely on the census *counts* — expected measured units/domains per
    class under the solved bucket probabilities — so no unit needs to be
    instantiated.  Mega-units (past the eligibility cap) contribute to
    the denominators but can never be vulnerable, so the targets are
    rescaled onto the eligible subset before solving.
    """
    p_small = sum(pool.small_probs[c] for c in _CATEGORIES if c.validates_spf)
    p_large = sum(pool.large_probs[c] for c in _CATEGORIES if c.validates_spf)
    measured_units = pool.small_units * p_small + pool.large_units * p_large
    measured_domains = pool.small_domains * p_small + pool.large_domains * p_large
    elig_units = pool.small_units * p_small + pool.elig_large_units * p_large
    elig_domains = pool.small_domains * p_small + pool.elig_large_domains * p_large
    if elig_units <= 0 or elig_domains <= 0:
        return 0.0, 0.0

    # All vulnerable units/domains must come from the eligible subset.
    ip_target = min(
        0.95, profile.vulnerable_ip_share * measured_units / elig_units
    )
    domain_target = min(
        0.95, profile.vulnerable_domain_share * measured_domains / elig_domains
    )

    u_s = pool.small_units * p_small / elig_units
    u_l = pool.elig_large_units * p_large / elig_units
    d_s = pool.small_domains * p_small / elig_domains
    d_l = pool.elig_large_domains * p_large / elig_domains
    det = u_s * d_l - u_l * d_s
    clamp = lambda v: min(0.9, max(0.0, v))
    if abs(det) < 1e-9:
        return clamp(ip_target), clamp(ip_target)
    v_small = (d_l * ip_target - u_l * domain_target) / det
    v_large = (u_s * domain_target - d_s * ip_target) / det
    return clamp(v_small), clamp(v_large)


_NOMSG_FAILURE_STAGES = (
    (FailureStage.BANNER, 0.30),
    (FailureStage.HELO, 0.10),
    (FailureStage.MAIL_FROM, 0.25),
    (FailureStage.RCPT_TO, 0.20),
    (FailureStage.DATA, 0.15),
)

_ERRONEOUS_SECOND = (
    ("rfc-compliant", 0.80),
    ("no-expansion", 0.10),
    ("truncated-not-reversed", 0.05),
    ("reversed-not-truncated", 0.05),
)


def _configure_unit(
    unit: HostingUnit,
    category: UnitCategory,
    profile: FleetProfile,
    vulnerable_rate: float,
    rng: SeededRng,
) -> None:
    """Fill in a unit's SMTP/SPF configuration for its assigned bucket."""
    unit.category = category
    if category == UnitCategory.REFUSE:
        return
    unit.accepts_postmaster = rng.bernoulli(0.684)  # 1 - the 31.6% bounce rate
    if category == UnitCategory.SMTP_FAILURE:
        unit.failure_stage = rng.categorical(_NOMSG_FAILURE_STAGES)
        return
    if category == UnitCategory.MESSAGE_FAILURE:
        unit.failure_stage = FailureStage.MESSAGE
        return

    if category == UnitCategory.SPF_NOMSG:
        unit.spf_timing = rng.categorical(
            [(SpfTiming.ON_MAIL_FROM, 0.8), (SpfTiming.ON_DATA_COMMAND, 0.2)]
        )
    elif category == UnitCategory.SPF_BLANKMSG:
        unit.spf_timing = SpfTiming.AFTER_MESSAGE
    else:  # NO_SPF
        unit.greylists = rng.bernoulli(profile.greylist)
        return

    unit.behavior_name = profile.behavior_mix.sample(rng, vulnerable=vulnerable_rate)
    if rng.bernoulli(profile.multi_stack):
        # A second SPF consumer in the mail path (spam filter, second
        # hop) with a *distinct* implementation, validating at the same
        # point so the probe observes both expansion patterns (§7.9).
        second = rng.categorical(_ERRONEOUS_SECOND)
        if second == unit.behavior_name:
            second = (
                "no-expansion"
                if unit.behavior_name != "no-expansion"
                else "truncated-not-reversed"
            )
        unit.second_behavior_name = second
        unit.second_timing = unit.spf_timing
    unit.greylists = rng.bernoulli(profile.greylist)
    if rng.bernoulli(profile.flaky):
        unit.flaky_rate = profile.flaky_rate

    # High-profile infrastructure (the Alexa Top 1000) filtered the
    # prober aggressively and moved addresses during the study — the
    # paper lost conclusive results for many top-1000 domains around
    # mid-November and only the re-resolving snapshot settled them.
    high_profile = any(d.in_set(DomainSet.ALEXA_1000) for d in unit.domains)
    blacklist_p = 0.5 if high_profile else profile.blacklist
    if unit.is_large and not high_profile:
        # Big shared hosts rate-limit rather than hard-block: persistent
        # blacklisting concentrates in small self-hosted servers (keeps
        # the snapshot's unknown share domain-weighted like the paper's).
        blacklist_p *= 0.25
    move_p = 0.4 if high_profile else profile.move
    if rng.bernoulli(blacklist_p):
        unit.blacklists_after = rng.randint(3, 14)
    if rng.bernoulli(move_p):
        unit.moves_at = INITIAL_MEASUREMENT + _dt.timedelta(days=rng.randint(10, 100))


def _unit_country(geo_seed: int, unit_id: int, primary_tld: str) -> str:
    """A unit's deterministic country (ccTLD pin or a seeded draw)."""
    country = TldModel.country_for(primary_tld)
    if country is None:
        rng = SeededRng(geo_seed).fork("geo").fork(f"unit-{unit_id}")
        country = rng.weighted_choice(GENERIC_TLD_COUNTRY_MIX)
    return country


def build_fleet(population: DomainPopulation) -> MtaFleet:
    """The (lazy) hosting fleet for a population, seeded by its seed.

    Returns in O(1): units, addresses, servers, and DNS answers all
    regenerate deterministically on first touch.
    """
    return MtaFleet(population)


def _configure_provider_unit(unit: HostingUnit, domain: Domain, rng: SeededRng) -> None:
    """Top email providers: never refuse; mostly measurable (Table 3)."""
    unit.accepts_postmaster = True
    if domain.name in VULNERABLE_PROVIDER_DOMAINS:
        unit.category = UnitCategory.SPF_BLANKMSG
        unit.spf_timing = SpfTiming.AFTER_MESSAGE
        unit.behavior_name = "vulnerable-libspf2"
        # Big providers filter repeat probing and shuffle frontends; the
        # paper lost longitudinal results for them and settled their
        # status only in the re-resolving snapshot (Section 7.5).
        unit.blacklists_after = rng.randint(6, 18)
        unit.moves_at = INITIAL_MEASUREMENT + _dt.timedelta(days=rng.randint(25, 60))
        return
    bucket = rng.categorical(
        [
            (UnitCategory.SPF_NOMSG, 0.25),
            (UnitCategory.SPF_BLANKMSG, 0.40),
            (UnitCategory.SMTP_FAILURE, 0.10),
            (UnitCategory.MESSAGE_FAILURE, 0.20),
            (UnitCategory.NO_SPF, 0.05),
        ]
    )
    unit.category = bucket
    if bucket == UnitCategory.SMTP_FAILURE:
        unit.failure_stage = FailureStage.RCPT_TO
    elif bucket == UnitCategory.MESSAGE_FAILURE:
        unit.failure_stage = FailureStage.MESSAGE
    elif bucket == UnitCategory.SPF_NOMSG:
        unit.spf_timing = SpfTiming.ON_MAIL_FROM
        unit.behavior_name = "rfc-compliant"
    elif bucket == UnitCategory.SPF_BLANKMSG:
        unit.spf_timing = SpfTiming.AFTER_MESSAGE
        unit.behavior_name = "rfc-compliant"
