"""A self-contained DNS substrate.

This package models the pieces of the DNS that SPFail relies on:

- :mod:`repro.dns.name` — domain names with label semantics (RFC 1035),
- :mod:`repro.dns.rdata` — record data types (A, AAAA, TXT, MX, PTR, SOA),
- :mod:`repro.dns.message` — query/response messages and response codes,
- :mod:`repro.dns.zone` — authoritative zone data,
- :mod:`repro.dns.server` — an authoritative server with a query log and a
  dynamic SPF responder (the paper's ``spf-test.dns-lab.org`` server),
- :mod:`repro.dns.resolver` — a caching resolver used by simulated MTAs,
- :mod:`repro.dns.querylog` — the measurement-side record of queries seen.

The query log is the observable on which the whole SPFail detection
technique rests: a vulnerable MTA betrays itself by the domain name it
queries after expanding an SPF macro.  Only that name matters, so
messages pass between resolvers and servers as :class:`Message` objects;
no DNS wire encoding is modelled.
"""

from .name import Name
from .rdata import (
    RRType,
    Rdata,
    A,
    AAAA,
    TXT,
    MX,
    SOA,
    PTR,
    ResourceRecord,
)
from .message import Message, Question, Rcode
from .zone import Zone
from .server import AuthoritativeServer, SpfTestResponder
from .resolver import CachingResolver, StubResolver
from .querylog import QueryLog, QueryLogEntry

__all__ = [
    "Name",
    "RRType",
    "Rdata",
    "A",
    "AAAA",
    "TXT",
    "MX",
    "SOA",
    "PTR",
    "ResourceRecord",
    "Message",
    "Question",
    "Rcode",
    "Zone",
    "AuthoritativeServer",
    "SpfTestResponder",
    "CachingResolver",
    "StubResolver",
    "QueryLog",
    "QueryLogEntry",
]
