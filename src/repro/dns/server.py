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
from typing import Dict, List, Optional

from ..obs import context as _obs
from .message import Message, Rcode
from .name import Name
from .querylog import QueryLog
from .rdata import A, RRType, ResourceRecord, SOA, TXT
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
        result = zone.lookup(qname, rrtype)
        if result.status == LookupStatus.SUCCESS:
            response.answers.extend(result.records)
        else:
            # The zone holds the name, so the answer is NODATA or NXDOMAIN.
            if result.status == LookupStatus.NXDOMAIN:
                response.rcode = Rcode.NXDOMAIN
            response.authority.append(zone.soa)
        return response


#: The address every A query under the measurement base resolves to.
ANSWER_ADDRESS = "192.0.2.53"
#: The TTL of every record the responder serves.
RESPONDER_TTL = 1


def measurement_policy(test_id: str, suite: str, base: Name) -> str:
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

    def __init__(self, base: Name) -> None:
        self.base = base
        self.log = QueryLog(base)
        # The A rdata and the SOA record never vary, and both are
        # immutable, so one shared instance serves every answer.
        self._a_rdata = A(ANSWER_ADDRESS)
        self._soa = ResourceRecord(
            name=base,
            rdata=SOA(base.prepend("ns1"), base.prepend("hostmaster")),
            ttl=RESPONDER_TTL,
        )

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

        if rrtype == RRType.TXT:
            labels = self.log.extract_labels(qname)
            if labels is not None:
                suite, test_id = labels
                # Only the exact <id>.<suite> owner carries the policy; any
                # deeper name would be macro output, which has no TXT.
                if len(qname) == len(self.base) + 2:
                    policy = measurement_policy(test_id, suite, self.base)
                    response.answers.append(
                        ResourceRecord(name=qname, rdata=TXT(policy), ttl=RESPONDER_TTL)
                    )
                    return response
            response.authority.append(self._soa)
            return response

        if rrtype == RRType.A:
            response.answers.append(
                ResourceRecord(name=qname, rdata=self._a_rdata, ttl=RESPONDER_TTL)
            )
            return response
        # NODATA for every other type, AAAA included: the measurement
        # network is IPv4-only, and a NODATA answer still proves the
        # query arrived.
        response.authority.append(self._soa)
        return response
