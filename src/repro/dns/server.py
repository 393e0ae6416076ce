"""Authoritative DNS servers.

Two server flavors are modeled:

- :class:`AuthoritativeServer` serves static zone data, answering with the
  standard authoritative-lookup semantics from :mod:`repro.dns.zone`.
- :class:`SpfTestResponder` is the measurement team's dynamic server for
  ``spf-test.dns-lab.org``: it synthesizes the macro-bearing SPF TXT policy
  for *any* ``<id>.<suite>`` subdomain, answers all A/AAAA queries under the
  base (so SPF evaluation proceeds), and records every query in a
  :class:`~repro.dns.querylog.QueryLog` — the paper's sole observable.
"""

from __future__ import annotations

import datetime as _dt
from typing import Callable, Dict, List, Optional

from ..errors import DnsError
from ..obs import context as _obs
from .message import Message, Rcode
from .name import Name
from .querylog import QueryLog
from .rdata import A, AAAA, RRType, ResourceRecord, TXT
from .zone import LookupStatus, Zone


class DnsBackend:
    """Anything that can answer a DNS query message."""

    def query(self, message: Message, *, source: str = "", now: Optional[_dt.datetime] = None) -> Message:
        raise NotImplementedError


class AuthoritativeServer(DnsBackend):
    """An authoritative server hosting one or more static zones."""

    def __init__(self, zones: Optional[List[Zone]] = None) -> None:
        self._zones: Dict[tuple, Zone] = {}
        for zone in zones or []:
            self.add_zone(zone)

    def add_zone(self, zone: Zone) -> None:
        self._zones[zone.origin.key] = zone

    def zone_for(self, name: Name) -> Optional[Zone]:
        """Longest-match zone containing ``name``."""
        zones = self._zones
        key = name.key
        for i in range(len(key) + 1):
            zone = zones.get(key[i:])
            if zone is not None:
                return zone
        return None

    def query(self, message: Message, *, source: str = "", now: Optional[_dt.datetime] = None) -> Message:
        if message.question is None:
            return message.make_response(Rcode.FORMERR)
        qname, rrtype = message.question.name, message.question.rrtype
        obs = _obs.ACTIVE
        if obs is not None:
            obs.metrics.counter("dns.authoritative_queries").inc(rrtype.name)
        zone = self.zone_for(qname)
        if zone is None:
            return message.make_response(Rcode.REFUSED)

        response = message.make_response()
        response.authoritative = True
        # Follow CNAME chains within the zone, as authoritative servers do.
        current = qname
        for _ in range(8):
            result = zone.lookup(current, rrtype)
            if result.status == LookupStatus.SUCCESS:
                response.answers.extend(result.records)
                return response
            if result.status == LookupStatus.CNAME:
                response.answers.extend(result.records)
                assert result.cname_target is not None
                current = result.cname_target
                if zone.lookup(current, rrtype).status == LookupStatus.OUT_OF_ZONE:
                    return response
                continue
            if result.status == LookupStatus.NODATA:
                response.authority.append(zone.soa)
                return response
            if result.status == LookupStatus.NXDOMAIN:
                response.rcode = Rcode.NXDOMAIN
                response.authority.append(zone.soa)
                return response
            break
        raise DnsError(f"CNAME chain too long at {qname}")


#: Builds the SPF policy text served for a given (id, suite) pair.
PolicyTemplate = Callable[[str, str, Name], str]


def default_policy_template(test_id: str, suite: str, base: Name) -> str:
    """The paper's macro-bearing measurement policy (Section 5.1)."""
    tail = f"{test_id}.{suite}.{base}"
    return f"v=spf1 a:%{{d1r}}.{tail} a:b.{tail} -all"


class SpfTestResponder(DnsBackend):
    """The dynamic measurement server for ``spf-test.dns-lab.org``.

    For a TXT query at ``<id>.<suite>.<base>`` it synthesizes the SPF
    policy with the id/suite labels copied from the query name.  For
    A/AAAA queries anywhere under the base it returns a fixed address, so
    that SPF evaluation on the probed MTA completes normally regardless of
    how the macro was (mis)expanded.  Every query under the base is logged.
    """

    def __init__(
        self,
        base: Name,
        *,
        policy_template: PolicyTemplate = default_policy_template,
        answer_address: str = "192.0.2.53",
        ttl: int = 1,
    ) -> None:
        self.base = base
        self.policy_template = policy_template
        self.answer_address = answer_address
        self.ttl = ttl
        self.log = QueryLog(base)
        # Hot-path caches: the A rdata and the SOA record never vary, and
        # both are immutable, so one shared instance serves every answer.
        self._a_rdata = A(answer_address)
        self._soa_record: Optional[ResourceRecord] = None

    def query(self, message: Message, *, source: str = "", now: Optional[_dt.datetime] = None) -> Message:
        if message.question is None:
            return message.make_response(Rcode.FORMERR)
        qname, rrtype = message.question.name, message.question.rrtype
        obs = _obs.ACTIVE
        if not qname.is_subdomain_of(self.base):
            if obs is not None:
                obs.metrics.counter("dns.measurement_refused").inc()
            return message.make_response(Rcode.REFUSED)
        if obs is not None:
            obs.metrics.counter("dns.measurement_queries").inc(rrtype.name)

        timestamp = now if now is not None else _dt.datetime.now(tz=_dt.timezone.utc)
        self.log.record(timestamp, qname, rrtype, source=source)

        response = message.make_response()
        response.authoritative = True

        if rrtype == RRType.TXT:
            labels = self.log.extract_labels(qname)
            if labels is not None:
                suite, test_id = labels
                # Only the exact <id>.<suite> owner carries the policy; any
                # deeper name would be macro output, which has no TXT.
                if len(qname) == len(self.base) + 2:
                    policy = self.policy_template(test_id, suite, self.base)
                    response.answers.append(
                        ResourceRecord(name=qname, rdata=TXT(policy), ttl=self.ttl)
                    )
                    return response
            response.authority.append(self._soa())
            return response

        if rrtype == RRType.A:
            response.answers.append(
                ResourceRecord(name=qname, rdata=self._a_rdata, ttl=self.ttl)
            )
            return response
        if rrtype == RRType.AAAA:
            # NODATA for AAAA: the measurement network is IPv4-only, and a
            # NODATA answer still proves the query arrived.
            response.authority.append(self._soa())
            return response

        response.authority.append(self._soa())
        return response

    def _soa(self) -> ResourceRecord:
        record = self._soa_record
        if record is None:
            from .rdata import SOA

            record = self._soa_record = ResourceRecord(
                name=self.base,
                rdata=SOA(self.base.prepend("ns1"), self.base.prepend("hostmaster")),
                ttl=self.ttl,
            )
        return record
