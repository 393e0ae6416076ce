"""DNS record data types.

Implements the record types the SPFail measurement touches: A and AAAA
(address lookups triggered by SPF mechanisms), TXT (SPF policies), MX
(mail-server discovery), PTR (the SPF ``ptr`` mechanism) and SOA
(negative-caching TTLs).

Each rdata type compares and hashes by the value of its own fields.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass
from typing import List, Tuple, Union

from .. import ipmemo
from ..errors import WireFormatError
from .name import Name


class RRType(enum.IntEnum):
    """Resource record types (RFC 1035 / 3596)."""

    A = 1
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28
    ANY = 255


class Rdata:
    """Base class for record data."""

    rrtype: RRType

    def _value(self) -> tuple:
        """The fields that make two records of one type equal."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._value()))})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Rdata):
            return (self.rrtype, self._value()) == (other.rrtype, other._value())
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rrtype, self._value()))


class A(Rdata):
    """An IPv4 address record."""

    rrtype = RRType.A

    def __init__(self, address: Union[str, ipaddress.IPv4Address]) -> None:
        if isinstance(address, ipaddress.IPv4Address):
            self.address = address
        elif isinstance(address, str):
            addr = ipmemo.ip_address(address)
            if not isinstance(addr, ipaddress.IPv4Address):
                raise ipaddress.AddressValueError(f"not an IPv4 address: {address!r}")
            self.address = addr
        else:
            self.address = ipaddress.IPv4Address(address)

    def _value(self) -> tuple:
        return (self.address,)


class AAAA(Rdata):
    """An IPv6 address record."""

    rrtype = RRType.AAAA

    def __init__(self, address: Union[str, ipaddress.IPv6Address]) -> None:
        if isinstance(address, ipaddress.IPv6Address):
            self.address = address
        elif isinstance(address, str):
            addr = ipmemo.ip_address(address)
            if not isinstance(addr, ipaddress.IPv6Address):
                raise ipaddress.AddressValueError(f"not an IPv6 address: {address!r}")
            self.address = addr
        else:
            self.address = ipaddress.IPv6Address(address)

    def _value(self) -> tuple:
        return (self.address,)


class TXT(Rdata):
    """A text record: one or more character-strings of up to 255 bytes.

    SPF policies are published as TXT records; a policy longer than 255
    bytes is split across multiple strings which the consumer concatenates
    (RFC 7208 section 3.3).
    """

    rrtype = RRType.TXT

    def __init__(self, strings: Union[str, bytes, List[Union[str, bytes]]]) -> None:
        if isinstance(strings, (str, bytes)):
            strings = [strings]
        encoded: List[bytes] = []
        for s in strings:
            b = s.encode("ascii", errors="replace") if isinstance(s, str) else bytes(s)
            if len(b) > 255:
                # Split automatically, as publishing tools do.
                encoded.extend(b[i : i + 255] for i in range(0, len(b), 255))
            else:
                encoded.append(b)
        self.strings: Tuple[bytes, ...] = tuple(encoded)

    @property
    def text(self) -> str:
        """All character-strings concatenated and decoded."""
        return b"".join(self.strings).decode("ascii", errors="replace")

    def _value(self) -> tuple:
        return self.strings


class PTR(Rdata):
    """A pointer record (reverse DNS)."""

    rrtype = RRType.PTR

    def __init__(self, target: Union[str, Name]) -> None:
        self.target = target if isinstance(target, Name) else Name.from_text(target)

    def _value(self) -> tuple:
        # Spelled labels, not the lowercase key: names in record data
        # compare case-sensitively, as their stored octets do.
        return (self.target.labels,)


class MX(Rdata):
    """A mail-exchanger record: preference plus exchange host."""

    rrtype = RRType.MX

    def __init__(self, preference: int, exchange: Union[str, Name]) -> None:
        if not 0 <= preference <= 0xFFFF:
            raise WireFormatError(f"MX preference out of range: {preference}")
        self.preference = preference
        self.exchange = exchange if isinstance(exchange, Name) else Name.from_text(exchange)

    def _value(self) -> tuple:
        return (self.preference, self.exchange.labels)


class SOA(Rdata):
    """A start-of-authority record."""

    rrtype = RRType.SOA

    def __init__(
        self,
        mname: Union[str, Name],
        rname: Union[str, Name],
        serial: int = 1,
        refresh: int = 3600,
        retry: int = 900,
        expire: int = 604800,
        minimum: int = 300,
    ) -> None:
        self.mname = mname if isinstance(mname, Name) else Name.from_text(mname)
        self.rname = rname if isinstance(rname, Name) else Name.from_text(rname)
        self.serial = serial
        self.refresh = refresh
        self.retry = retry
        self.expire = expire
        self.minimum = minimum

    def _value(self) -> tuple:
        return (
            self.mname.labels,
            self.rname.labels,
            self.serial,
            self.refresh,
            self.retry,
            self.expire,
            self.minimum,
        )


@dataclass(frozen=True)
class ResourceRecord:
    """A complete resource record: owner name, TTL, and rdata."""

    name: Name
    rdata: Rdata
    ttl: int = 300

    @property
    def rrtype(self) -> RRType:
        return self.rdata.rrtype
