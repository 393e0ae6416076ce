"""The measurement SMTP client: NoMsg and BlankMsg probe transactions.

Section 5.1 of the paper: the client connects, advertises a MAIL FROM
whose domain is a unique subdomain of the measurement zone, then either

- **NoMsg** — proceeds through the DATA command and drops the connection
  before transmitting any message (guaranteeing nothing is delivered), or
- **BlankMsg** — transmits a completely empty message (headers, subject,
  and body all blank, maximizing the chance it is discarded).

The client reports how far the dialogue got; *conclusiveness* is decided
elsewhere, from the DNS queries the probe elicited.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

from ..obs import context as _obs
from .protocol import Reply, ReplyCode
from .transport import ConnectionRefused, Network

#: The measurement prober's source address (a TEST-NET-2 address).
PROBE_CLIENT_IP = "198.51.100.7"


class TransactionKind(enum.Enum):
    NOMSG = "nomsg"
    BLANKMSG = "blankmsg"


class TransactionStatus(enum.Enum):
    """How a probe transaction ended."""

    COMPLETED = "completed"  # reached its planned termination point
    REFUSED = "refused"  # TCP connection refused
    FAILED = "smtp-failure"  # 5XX/421 before the probe could finish
    GREYLISTED = "greylisted"  # 450 at RCPT; retry later
    RCPT_REJECTED = "rcpt-rejected"  # 550 for this username; try another
    DROPPED = "dropped"  # server closed the connection mid-dialogue


@dataclass
class TransactionResult:
    """The outcome of one probe transaction."""

    kind: TransactionKind
    status: TransactionStatus
    sender: str
    recipient: str
    server_ip: str
    replies: List[Reply] = field(default_factory=list)
    server_crashed: bool = False

    @property
    def reached_data(self) -> bool:
        """True if the DATA command was issued and answered."""
        return any(r.code == ReplyCode.START_MAIL_INPUT for r in self.replies)


class SmtpClient:
    """Drives probe transactions over a simulated network."""

    def __init__(
        self,
        network: Network,
        *,
        client_ip: str = PROBE_CLIENT_IP,
        helo_hostname: str = "probe.dns-lab.org",
    ) -> None:
        self.network = network
        self.client_ip = client_ip
        self.helo_hostname = helo_hostname

    def probe(
        self,
        server_ip: str,
        *,
        sender: str,
        recipient: str,
        kind: TransactionKind = TransactionKind.NOMSG,
    ) -> TransactionResult:
        """Run one NoMsg or BlankMsg transaction."""
        obs = _obs.ACTIVE
        if obs is None:
            return self._probe(server_ip, sender=sender, recipient=recipient, kind=kind)
        if obs.tracer.enabled:
            with obs.tracer.span(
                "smtp.transaction", server=server_ip, kind=kind.value
            ):
                result = self._probe(
                    server_ip, sender=sender, recipient=recipient, kind=kind
                )
                obs.tracer.event(
                    "smtp.transaction.status",
                    status=result.status.value,
                    replies=len(result.replies),
                    crashed=result.server_crashed,
                )
        else:
            result = self._probe(server_ip, sender=sender, recipient=recipient, kind=kind)
        obs.metrics.counter("smtp.transactions").inc(result.status.value)
        obs.metrics.counter("smtp.probe_kinds").inc(kind.value)
        if result.server_crashed:
            obs.metrics.counter("smtp.server_crashes_observed").inc()
        return result

    def _probe(
        self,
        server_ip: str,
        *,
        sender: str,
        recipient: str,
        kind: TransactionKind,
    ) -> TransactionResult:
        result = TransactionResult(
            kind=kind,
            status=TransactionStatus.COMPLETED,
            sender=sender,
            recipient=recipient,
            server_ip=server_ip,
        )
        try:
            session = self.network.connect(self.client_ip, server_ip)
        except ConnectionRefused:
            result.status = TransactionStatus.REFUSED
            return result

        def step(reply: Reply) -> Reply:
            result.replies.append(reply)
            result.server_crashed = result.server_crashed or session.crashed
            return reply

        reply = step(session.banner())
        if not reply.is_positive:
            result.status = TransactionStatus.FAILED
            return result

        reply = step(session.command(f"EHLO {self.helo_hostname}"))
        if not reply.is_positive:
            result.status = self._failure_status(session, reply)
            return result

        reply = step(session.command(f"MAIL FROM:<{sender}>"))
        if not reply.is_positive:
            result.status = self._failure_status(session, reply)
            return result

        reply = step(session.command(f"RCPT TO:<{recipient}>"))
        if reply.code == ReplyCode.MAILBOX_BUSY:
            result.status = TransactionStatus.GREYLISTED
            session.abort()
            return result
        if reply.code == ReplyCode.MAILBOX_UNAVAILABLE:
            result.status = TransactionStatus.RCPT_REJECTED
            session.abort()
            return result
        if not reply.is_positive:
            result.status = self._failure_status(session, reply)
            return result

        reply = step(session.command("DATA"))
        if not reply.is_intermediate:
            result.status = self._failure_status(session, reply)
            return result

        if kind == TransactionKind.NOMSG:
            # Terminate before transmitting any message content.
            session.abort()
            return result

        # BlankMsg: transmit an entirely empty message.
        reply = step(session.send_message(""))
        if reply.is_permanent_failure or reply.is_transient_failure:
            # A rejected blank message is an SMTP failure for accounting,
            # but any SPF lookups it triggered still count as conclusive —
            # the detector consults the DNS log before this status.
            result.status = self._failure_status(session, reply)
            if not session.closed:
                session.abort()
            return result
        if not session.closed:
            step(session.command("QUIT"))
        return result

    @staticmethod
    def _failure_status(session, reply: Reply) -> TransactionStatus:
        if session.crashed:
            return TransactionStatus.DROPPED
        return TransactionStatus.FAILED
