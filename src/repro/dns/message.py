"""DNS messages: queries and responses.

Models the part of an RFC 1035 message the measurement reads: a single
question, a response code, and the answer and authority sections.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from .name import Name
from .rdata import RRType, ResourceRecord


class Rcode(enum.IntEnum):
    """Response codes (RFC 1035 section 4.1.1)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


@dataclass(frozen=True)
class Question:
    """A question section entry."""

    name: Name
    rrtype: RRType


@dataclass
class Message:
    """A DNS query or response."""

    question: Optional[Question] = None
    rcode: Rcode = Rcode.NOERROR
    answers: List[ResourceRecord] = field(default_factory=list)
    authority: List[ResourceRecord] = field(default_factory=list)

    @classmethod
    def make_query(cls, name: Name, rrtype: RRType) -> "Message":
        """Build a query for ``name``/``rrtype``."""
        # Hot path: direct attribute assignment skips the dataclass
        # __init__'s keyword matching and default handling.
        msg = cls.__new__(cls)
        msg.question = Question(name, rrtype)
        msg.rcode = Rcode.NOERROR
        msg.answers = []
        msg.authority = []
        return msg

    def make_response(self, rcode: Rcode = Rcode.NOERROR) -> "Message":
        """Build a response skeleton echoing this query's question."""
        msg = Message.__new__(Message)
        msg.question = self.question
        msg.rcode = rcode
        msg.answers = []
        msg.authority = []
        return msg
