"""DNS resolution for simulated hosts.

:class:`CachingResolver` plays the role of a recursive resolver: it routes
queries to the authoritative backend responsible for the longest matching
zone suffix and caches both positive and negative answers by TTL.

:class:`StubResolver` is the host-facing API used by simulated MTAs (and
the SPF evaluator): typed convenience lookups over a caching resolver.

The paper's unique per-test labels exist precisely to defeat this caching
layer — every probe's names are new, so every SPF-triggered query reaches
the measurement server.  The cache is modeled so tests can demonstrate
that property.
"""

from __future__ import annotations

import datetime as _dt
import ipaddress
from dataclasses import dataclass, replace as _dc_replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..errors import ResolutionError
from ..obs import context as _obs
from .message import Message, Rcode
from .name import Name
from .rdata import MX, RRType, ResourceRecord, SOA, TXT
from .server import DnsBackend

ClockFn = Callable[[], _dt.datetime]


def _default_clock() -> _dt.datetime:
    return _dt.datetime.now(tz=_dt.timezone.utc)


@dataclass
class _CacheEntry:
    inserted: _dt.datetime
    expires: _dt.datetime
    rcode: Rcode
    records: List[ResourceRecord]
    authority: List[ResourceRecord]

    def replay(self, now: _dt.datetime) -> Tuple[List[ResourceRecord], List[ResourceRecord]]:
        """The cached sections with TTLs decayed by the elapsed time.

        RFC 1035 section 3.2.1: TTL counts down while a record sits in a
        cache, so a replayed record carries only its *remaining* lifetime,
        never the original one.  Whole seconds only — the simulation's
        clock, like real resolvers, tracks TTLs at second granularity.
        """
        elapsed = int((now - self.inserted).total_seconds())
        if elapsed <= 0:
            return list(self.records), list(self.authority)
        decay = lambda rr: _dc_replace(rr, ttl=max(0, rr.ttl - elapsed))
        return [decay(rr) for rr in self.records], [decay(rr) for rr in self.authority]


class CachingResolver(DnsBackend):
    """A recursive resolver with positive and negative caching."""

    NEGATIVE_TTL = 300

    def __init__(self, clock: Optional[ClockFn] = None) -> None:
        self._backends: Dict[tuple, DnsBackend] = {}
        self._cache: Dict[Tuple[tuple, RRType], _CacheEntry] = {}
        self._clock = clock or _default_clock
        self.query_count = 0
        self.cache_hits = 0
        # (obs, queries_counter, hits_counter) — refreshed whenever the
        # active observability context changes identity, so the hot path
        # skips two registry lookups per query.
        self._counters: Optional[tuple] = None

    def register(self, suffix: Union[str, Name], backend: DnsBackend) -> None:
        """Delegate all names under ``suffix`` to ``backend``."""
        name = suffix if isinstance(suffix, Name) else Name.from_text(suffix)
        self._backends[name.key] = backend

    def _backend_for(self, name: Name) -> Optional[DnsBackend]:
        # Longest-match by walking the qname's suffixes from longest to
        # shortest: one dict probe per label instead of a linear scan over
        # every registered zone (the root key ``()`` matches last).
        backends = self._backends
        key = name.key
        for i in range(len(key) + 1):
            backend = backends.get(key[i:])
            if backend is not None:
                return backend
        return None

    def query(self, message: Message, *, source: str = "", now: Optional[_dt.datetime] = None) -> Message:
        if message.question is None:
            return message.make_response(Rcode.FORMERR)
        qname, rrtype = message.question.name, message.question.rrtype
        timestamp = now if now is not None else self._clock()
        self.query_count += 1
        obs = _obs.ACTIVE
        cc = None
        if obs is not None:
            cc = self._counters
            if cc is None or cc[0] is not obs:
                self._counters = cc = (
                    obs,
                    obs.metrics.counter("dns.resolver.queries"),
                    obs.metrics.counter("dns.resolver.cache_hits"),
                )
            cc[1].inc(rrtype.name)

        cache_key = (qname.key, rrtype)
        entry = self._cache.get(cache_key)
        if entry is not None and entry.expires > timestamp:
            self.cache_hits += 1
            if cc is not None:
                cc[2].inc(rrtype.name)
            response = message.make_response(entry.rcode)
            response.answers, response.authority = entry.replay(timestamp)
            return response

        backend = self._backend_for(qname)
        if backend is None:
            return message.make_response(Rcode.SERVFAIL)

        upstream = backend.query(message, source=source, now=timestamp)
        ttl = self._cache_ttl(upstream)
        if ttl > 0:
            self._cache[cache_key] = _CacheEntry(
                inserted=timestamp,
                expires=timestamp + _dt.timedelta(seconds=ttl),
                rcode=upstream.rcode,
                records=list(upstream.answers),
                authority=list(upstream.authority),
            )
        # The cache keeps its own copies above, and backends build a fresh
        # response per query, so the upstream message is returned as is.
        return upstream

    def _cache_ttl(self, upstream: Message) -> int:
        """How long ``upstream`` may be cached, in seconds.

        Positive answers use the smallest answer TTL.  Negative answers
        (NXDOMAIN/NODATA) use the RFC 2308 rule: the minimum of the SOA
        record's own TTL and its ``minimum`` field when the authority
        section carries one, else :data:`NEGATIVE_TTL`.  Only NOERROR and
        NXDOMAIN responses are cacheable (RFC 2308 section 7) — SERVFAIL
        and other failures signal transient conditions and pass through
        uncached so recovery is visible on the very next query.
        """
        if upstream.rcode not in (Rcode.NOERROR, Rcode.NXDOMAIN):
            return 0
        if upstream.answers:
            return min(rr.ttl for rr in upstream.answers)
        for rr in upstream.authority:
            if isinstance(rr.rdata, SOA):
                return min(rr.ttl, rr.rdata.minimum)
        return self.NEGATIVE_TTL

    def flush(self) -> None:
        self._cache.clear()

    def perf_counters(self) -> Dict[str, int]:
        """Read-only cache telemetry (repro.obs.perf counter surface)."""
        return {
            "dns.resolver.queries": self.query_count,
            "dns.resolver.cache_hits": self.cache_hits,
        }


class StubResolver:
    """Typed lookups for a simulated host.

    ``identity`` is carried as the query source so that the measurement
    server's log can attribute queries to the MTA performing SPF
    validation (in the real Internet, to its recursive resolver).
    """

    def __init__(self, upstream: DnsBackend, *, identity: str = "", clock: Optional[ClockFn] = None) -> None:
        self.upstream = upstream
        self.identity = identity
        self._clock = clock or _default_clock

    def _query(self, name: Union[str, Name], rrtype: RRType) -> Message:
        qname = name if isinstance(name, Name) else Name.from_text(name)
        message = Message.make_query(qname, rrtype)
        return self.upstream.query(message, source=self.identity, now=self._clock())

    def resolve(self, name: Union[str, Name], rrtype: RRType) -> List[ResourceRecord]:
        """Resolve, returning the answer records (possibly empty).

        Raises :class:`ResolutionError` on SERVFAIL/REFUSED; NXDOMAIN and
        NODATA both return an empty list, mirroring what an SPF
        implementation treats as "no useful answer".
        """
        response = self._query(name, rrtype)
        if response.rcode in (Rcode.SERVFAIL, Rcode.REFUSED, Rcode.FORMERR, Rcode.NOTIMP):
            raise ResolutionError(f"{name}/{rrtype.name}: {response.rcode.name}")
        return [rr for rr in response.answers if rr.rrtype == rrtype]

    def get_txt(self, name: Union[str, Name]) -> List[str]:
        """TXT strings at ``name``, each record's strings concatenated."""
        out = []
        for rr in self.resolve(name, RRType.TXT):
            assert isinstance(rr.rdata, TXT)
            out.append(rr.rdata.text)
        return out

    def get_mx(self, name: Union[str, Name]) -> List[Tuple[int, Name]]:
        """(preference, exchange) pairs sorted by preference."""
        out = []
        for rr in self.resolve(name, RRType.MX):
            assert isinstance(rr.rdata, MX)
            out.append((rr.rdata.preference, rr.rdata.exchange))
        return sorted(out, key=lambda pair: pair[0])

    def get_addresses(
        self, name: Union[str, Name], *, want_ipv6: bool = True
    ) -> List[Union[ipaddress.IPv4Address, ipaddress.IPv6Address]]:
        """All A (and optionally AAAA) addresses for ``name``."""
        addresses: List[Union[ipaddress.IPv4Address, ipaddress.IPv6Address]] = []
        for rr in self.resolve(name, RRType.A):
            addresses.append(rr.rdata.address)  # type: ignore[union-attr]
        if want_ipv6:
            for rr in self.resolve(name, RRType.AAAA):
                addresses.append(rr.rdata.address)  # type: ignore[union-attr]
        return addresses

    def mail_addresses(self, domain: Union[str, Name]) -> List[str]:
        """A mail domain's server addresses (RFC 5321 target selection).

        Each MX exchange's A records in preference order; with no MX,
        the domain's own A record.  A failed lookup yields no addresses.
        """
        try:
            exchanges = self.get_mx(domain)
            if not exchanges:
                return [str(a) for a in self.get_addresses(domain, want_ipv6=False)]
            addresses: List[str] = []
            for _, exchange in exchanges:
                addresses.extend(
                    str(a) for a in self.get_addresses(exchange, want_ipv6=False)
                )
            return addresses
        except ResolutionError:
            return []
