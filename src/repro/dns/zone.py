"""Authoritative zone data.

A :class:`Zone` owns an origin name and a set of RRsets indexed by
(owner name, type).  Lookup implements the cases an authoritative server
must distinguish: exact match, NODATA (name exists but not that type),
NXDOMAIN, and wildcard synthesis (``*`` leftmost label).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..errors import DnsError
from .name import Name
from .rdata import RRType, Rdata, ResourceRecord, SOA


class LookupStatus(enum.Enum):
    SUCCESS = "success"
    NODATA = "nodata"
    NXDOMAIN = "nxdomain"
    OUT_OF_ZONE = "out-of-zone"


@dataclass
class LookupResult:
    status: LookupStatus
    records: List[ResourceRecord] = field(default_factory=list)


class Zone:
    """A DNS zone: an origin and its resource records."""

    def __init__(self, origin: Union[str, Name], *, default_ttl: int = 300) -> None:
        self.origin = origin if isinstance(origin, Name) else Name.from_text(origin)
        self.default_ttl = default_ttl
        self._rrsets: Dict[Tuple[Tuple[str, ...], RRType], List[ResourceRecord]] = {}
        self._names: set = set()
        # Every zone gets a synthetic SOA at the apex so NXDOMAIN/NODATA
        # responses can carry the negative-caching TTL.
        self.add(self.origin, SOA(self.origin.prepend("ns1"), self.origin.prepend("hostmaster")))

    def _full_name(self, name: Union[str, Name]) -> Name:
        """Resolve a possibly-relative name against the origin.

        Strings are treated as relative unless they already end in the
        origin; ``Name`` objects are always absolute.
        """
        if isinstance(name, Name):
            return name
        parsed = Name.from_text(name)
        if parsed.is_subdomain_of(self.origin):
            return parsed
        return parsed.concatenate(self.origin)

    def add(
        self,
        name: Union[str, Name],
        rdata: Rdata,
        ttl: Optional[int] = None,
    ) -> ResourceRecord:
        """Add one record. Relative names are interpreted against the origin."""
        full = self._full_name(name)
        if not full.is_subdomain_of(self.origin):
            raise DnsError(f"{full} is not within zone {self.origin}")
        rr = ResourceRecord(
            name=full,
            rdata=rdata,
            ttl=ttl if ttl is not None else self.default_ttl,
        )
        key = (full.key, rdata.rrtype)
        self._rrsets.setdefault(key, []).append(rr)
        # Record the name and all ancestors up to the origin as existing
        # (empty non-terminals must yield NODATA, not NXDOMAIN).
        walker = full
        while True:
            self._names.add(walker.key)
            if walker == self.origin or walker.is_root():
                break
            walker = walker.parent()
        return rr

    @property
    def soa(self) -> ResourceRecord:
        return self._rrsets[(self.origin.key, RRType.SOA)][0]

    def lookup(self, name: Name, rrtype: RRType) -> LookupResult:
        """Authoritative lookup with wildcard handling."""
        if not name.is_subdomain_of(self.origin):
            return LookupResult(LookupStatus.OUT_OF_ZONE)

        exact = self._rrsets.get((name.key, rrtype))
        if exact:
            return LookupResult(LookupStatus.SUCCESS, list(exact))

        if name.key in self._names:
            return LookupResult(LookupStatus.NODATA)

        # Wildcard synthesis: the closest enclosing wildcard, if any.
        candidate = name
        while len(candidate) > len(self.origin):
            wild = candidate.parent().prepend("*")
            rrs = self._rrsets.get((wild.key, rrtype))
            if rrs:
                synthesized = [
                    ResourceRecord(name=name, rdata=rr.rdata, ttl=rr.ttl) for rr in rrs
                ]
                return LookupResult(LookupStatus.SUCCESS, synthesized)
            if wild.key in self._names:
                return LookupResult(LookupStatus.NODATA)
            candidate = candidate.parent()

        return LookupResult(LookupStatus.NXDOMAIN)
