"""The receiving MTA: an SMTP server state machine with SPF hooks.

A :class:`SmtpServer` owns one or more :class:`SpfStack` entries — each a
macro-expansion behavior plus a validation timing.  Real deployments often
chain several SPF consumers (the MTA itself, then a spam filter such as
SpamAssassin or Rspamd); the paper found 6% of measurable IPs emitting two
or more distinct macro-expansion patterns for a single message, which this
model reproduces directly.

The server never *delivers* probe email anywhere interesting — it records
accepted messages in an inbox list so tests can verify the measurement's
"minimized email delivery" property.
"""

from __future__ import annotations

import datetime as _dt
import ipaddress
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .. import ipmemo as _ipmemo
from ..dns.resolver import StubResolver
from ..errors import SmtpProtocolError
from ..obs import context as _obs
from ..spf.evaluator import CheckHostOutcome, SpfEvaluator
from ..spf.implementations import (
    MacroExpansionBehavior,
    PatchedLibSpf2Behavior,
    behavior_by_name,
)
from ..spf.result import SpfResult as _SpfResult
from .policies import FailureStage, ServerPolicy, SpfTiming
from .protocol import (
    Command,
    Reply,
    ReplyCode,
    address_domain,
    parse_command_line,
    parse_path,
)


@dataclass
class SpfStack:
    """One SPF-consuming component on a server."""

    behavior: MacroExpansionBehavior
    timing: SpfTiming = SpfTiming.ON_MAIL_FROM

    @classmethod
    def named(cls, behavior_name: str, timing: SpfTiming = SpfTiming.ON_MAIL_FROM) -> "SpfStack":
        return cls(behavior=behavior_by_name(behavior_name), timing=timing)


@dataclass
class SessionLog:
    """The transcript of one SMTP session, for tests and forensics."""

    client_ip: str
    opened: _dt.datetime
    events: List[str] = field(default_factory=list)

    def note(self, event: str) -> None:
        self.events.append(event)


@dataclass
class DeliveredMessage:
    sender: str
    recipient: str
    data: str
    received: _dt.datetime


class SmtpServer:
    """One simulated mail server (one IP address).

    ``resolver`` is the DNS path its SPF validators use — queries issued
    through it are what the measurement's authoritative server logs.
    """

    def __init__(
        self,
        ip: str,
        *,
        hostname: str = "",
        policy: Optional[ServerPolicy] = None,
        spf_stacks: Optional[List[SpfStack]] = None,
        resolver: Optional[StubResolver] = None,
    ) -> None:
        self.ip = ip
        self.hostname = hostname or f"mail-{ip.replace('.', '-').replace(':', '-')}"
        self.policy = policy or ServerPolicy()
        self.spf_stacks = spf_stacks if spf_stacks is not None else []
        self.resolver = resolver
        self.inbox: List[DeliveredMessage] = []
        self.sessions_accepted = 0
        self.crash_count = 0
        self._greylist_first_seen: Dict[Tuple[str, str], _dt.datetime] = {}
        self._blacklisted = False
        # Per-server deterministic noise source for transient flakiness.
        import random
        import zlib

        self._noise = random.Random(zlib.crc32(ip.encode("ascii")))

    # -- lifecycle / maintenance -------------------------------------------------

    def accept(self, client_ip: str, now: _dt.datetime) -> "SmtpSession":
        self.sessions_accepted += 1
        if (
            self.policy.blacklists_after_probes is not None
            and self.sessions_accepted > self.policy.blacklists_after_probes
        ):
            self._blacklisted = True
        return SmtpSession(self, client_ip, now)

    @property
    def is_vulnerable(self) -> bool:
        return any(stack.behavior.vulnerable for stack in self.spf_stacks)

    @property
    def validates_spf(self) -> bool:
        return any(stack.timing != SpfTiming.NEVER for stack in self.spf_stacks)

    def patch(self) -> bool:
        """Replace any vulnerable libSPF2 stack with the patched build.

        Returns True if anything changed.  This is what a package upgrade
        (or an admin switching SPF libraries) does to a running server.
        """
        changed = False
        for stack in self.spf_stacks:
            if stack.behavior.vulnerable:
                stack.behavior = PatchedLibSpf2Behavior()
                changed = True
        return changed

    # -- SPF validation -----------------------------------------------------------

    def _validate(
        self, timing: SpfTiming, client_ip: str, sender: str, helo: str
    ) -> List[CheckHostOutcome]:
        """Run every stack whose timing matches; returns their outcomes."""
        outcomes: List[CheckHostOutcome] = []
        if self.resolver is None:
            return outcomes
        domain = address_domain(sender) or helo
        if not domain:
            return outcomes
        try:
            ip = _ipmemo.ip_address(client_ip)
        except ValueError:
            return outcomes
        obs = _obs.ACTIVE
        for stack in self.spf_stacks:
            if stack.timing != timing:
                continue
            evaluator = SpfEvaluator(self.resolver, behavior=stack.behavior)
            outcome = evaluator.check_host(ip, domain, sender, helo_domain=helo)
            outcomes.append(outcome)
            if obs is not None:
                obs.metrics.counter("spf.validations").inc(outcome.result.value)
            if outcome.crashed:
                self.crash_count += 1
                if obs is not None:
                    obs.metrics.counter("smtp.spf_crashes").inc()
                    if obs.tracer.enabled:
                        obs.tracer.event(
                            "smtp.spf_crash",
                            server=self.ip,
                            timing=timing.value,
                            behavior=stack.behavior.name,
                        )
        return outcomes


class SmtpSession:
    """One SMTP connection's server-side state machine."""

    def __init__(self, server: SmtpServer, client_ip: str, now: _dt.datetime) -> None:
        self.server = server
        self.client_ip = client_ip
        self.now = now
        self.log = SessionLog(client_ip=client_ip, opened=now)
        self.closed = False
        self.crashed = False
        self._helo: Optional[str] = None
        self._sender: Optional[str] = None
        self._recipients: List[str] = []
        self._in_data = False
        self._spf_fail = False

    # -- helpers -----------------------------------------------------------------

    def _close(self) -> None:
        self.closed = True

    def _reply(self, code: ReplyCode, text: str = "") -> Reply:
        reply = Reply(code, text)
        self.log.note(f"<- {reply.to_text()}")
        obs = _obs.ACTIVE
        if obs is not None:
            obs.metrics.counter("smtp.replies").inc(str(code.value))
            if obs.tracer.enabled:
                obs.tracer.event("smtp.reply", code=code.value, server=self.server.ip)
        return reply

    def _policy_event(self, kind: str) -> None:
        """Record a policy-driven outcome (greylist, blacklist, ...)."""
        obs = _obs.ACTIVE
        if obs is not None:
            obs.metrics.counter("smtp.policy_outcomes").inc(kind)
            if obs.tracer.enabled:
                obs.tracer.event("smtp.policy", kind=kind, server=self.server.ip)

    def _maybe_crash(self, outcomes: List[CheckHostOutcome]) -> bool:
        if any(outcome.crashed for outcome in outcomes):
            self.crashed = True
            self._close()
            return True
        return False

    def _spf_failed(self, outcomes: List[CheckHostOutcome]) -> bool:
        return any(outcome.result is _SpfResult.FAIL for outcome in outcomes)

    # -- protocol ----------------------------------------------------------------

    def banner(self) -> Reply:
        """The 220 greeting (or the policy's failure response)."""
        if self.server._blacklisted:
            self._close()
            self._policy_event("blacklisted")
            return self._reply(ReplyCode.SERVICE_UNAVAILABLE, "access denied")
        policy = self.server.policy
        if (
            policy.flaky_rate > 0
            and self.server.sessions_accepted > policy.flaky_after_sessions
            and self.server._noise.random() < policy.flaky_rate
        ):
            self._close()
            self._policy_event("flaky")
            return self._reply(ReplyCode.SERVICE_UNAVAILABLE, "try again later")
        if self.server.policy.failure_stage == FailureStage.BANNER:
            self._close()
            self._policy_event("failure-stage")
            return self._reply(ReplyCode.SERVICE_UNAVAILABLE, "service not available")
        return self._reply(ReplyCode.READY, f"{self.server.hostname} ESMTP")

    def command(self, line: str) -> Reply:
        """Process one command line from the client."""
        if self.closed:
            raise SmtpProtocolError("session is closed")
        self.log.note(f"-> {line}")
        try:
            command, argument = parse_command_line(line)
        except SmtpProtocolError as exc:
            return self._reply(ReplyCode.SYNTAX_ERROR, str(exc))
        obs = _obs.ACTIVE
        if obs is not None:
            obs.metrics.counter("smtp.commands").inc(command.name)
            if obs.tracer.enabled:
                obs.tracer.event(
                    "smtp.command", verb=command.name, server=self.server.ip
                )

        return SmtpSession._DISPATCH[command](self, argument)

    def _on_helo(self, argument: str) -> Reply:
        if self.server.policy.failure_stage == FailureStage.HELO:
            self._close()
            return self._reply(ReplyCode.SERVICE_UNAVAILABLE, "closing")
        self._helo = argument or "unknown"
        return self._reply(ReplyCode.OK, f"{self.server.hostname} greets {self._helo}")

    def _on_mail(self, argument: str) -> Reply:
        if self._helo is None:
            return self._reply(ReplyCode.BAD_SEQUENCE, "send HELO first")
        if self.server.policy.failure_stage == FailureStage.MAIL_FROM:
            self._close()
            return self._reply(ReplyCode.TRANSACTION_FAILED, "rejected")
        try:
            sender = parse_path(argument, "FROM")
        except SmtpProtocolError as exc:
            return self._reply(ReplyCode.SYNTAX_ERROR, str(exc))
        self._sender = sender
        self._recipients = []

        outcomes = self.server._validate(
            SpfTiming.ON_MAIL_FROM, self.client_ip, sender, self._helo
        )
        if self._maybe_crash(outcomes):
            return self._reply(ReplyCode.SERVICE_UNAVAILABLE, "internal error")
        self._spf_fail = self._spf_failed(outcomes)
        return self._reply(ReplyCode.OK, "sender ok")

    def _on_rcpt(self, argument: str) -> Reply:
        if self._sender is None:
            return self._reply(ReplyCode.BAD_SEQUENCE, "send MAIL first")
        if self.server.policy.failure_stage == FailureStage.RCPT_TO:
            self._close()
            return self._reply(ReplyCode.TRANSACTION_FAILED, "rejected")
        try:
            recipient = parse_path(argument, "TO")
        except SmtpProtocolError as exc:
            return self._reply(ReplyCode.SYNTAX_ERROR, str(exc))

        if self._spf_fail:
            # The policy said -all and this server enforces at RCPT.
            self._policy_event("spf-rejected")
            return self._reply(ReplyCode.MAILBOX_UNAVAILABLE, "SPF check failed")

        local_part = recipient.rsplit("@", 1)[0] if "@" in recipient else recipient
        if not self.server.policy.recipients.accepts(local_part):
            self._policy_event("user-unknown")
            return self._reply(ReplyCode.MAILBOX_UNAVAILABLE, "user unknown")

        greylist = self.server.policy.greylist
        if greylist.enabled:
            key = (self.client_ip, self._sender or "")
            first = self.server._greylist_first_seen.get(key)
            if first is None:
                self.server._greylist_first_seen[key] = self.now
                self._policy_event("greylisted")
                return self._reply(ReplyCode.MAILBOX_BUSY, "greylisted, try again later")
            if (self.now - first).total_seconds() < greylist.retry_after_seconds:
                self._policy_event("greylisted")
                return self._reply(ReplyCode.MAILBOX_BUSY, "greylisted, try again later")

        self._recipients.append(recipient)
        return self._reply(ReplyCode.OK, "recipient ok")

    def _on_data(self, argument: str) -> Reply:
        if not self._recipients:
            return self._reply(ReplyCode.BAD_SEQUENCE, "need RCPT first")
        if self.server.policy.failure_stage == FailureStage.DATA:
            self._close()
            return self._reply(ReplyCode.TRANSACTION_FAILED, "rejected")

        outcomes = self.server._validate(
            SpfTiming.ON_DATA_COMMAND, self.client_ip, self._sender or "", self._helo or ""
        )
        if self._maybe_crash(outcomes):
            return self._reply(ReplyCode.SERVICE_UNAVAILABLE, "internal error")
        if self._spf_failed(outcomes):
            self._spf_fail = True

        self._in_data = True
        return self._reply(ReplyCode.START_MAIL_INPUT, "end with <CRLF>.<CRLF>")

    def send_message(self, data: str) -> Reply:
        """Deliver message content after a 354 (BlankMsg sends "")."""
        if not self._in_data:
            raise SmtpProtocolError("DATA was not accepted")
        self._in_data = False

        if self.server.policy.failure_stage == FailureStage.MESSAGE:
            self._close()
            return self._reply(ReplyCode.TRANSACTION_FAILED, "message rejected")

        outcomes = self.server._validate(
            SpfTiming.AFTER_MESSAGE, self.client_ip, self._sender or "", self._helo or ""
        )
        if self._maybe_crash(outcomes):
            return self._reply(ReplyCode.SERVICE_UNAVAILABLE, "internal error")
        if self._spf_fail or self._spf_failed(outcomes):
            return self._reply(ReplyCode.TRANSACTION_FAILED, "SPF check failed")

        for recipient in self._recipients:
            self.server.inbox.append(
                DeliveredMessage(
                    sender=self._sender or "",
                    recipient=recipient,
                    data=data,
                    received=self.now,
                )
            )
        self._sender = None
        self._recipients = []
        return self._reply(ReplyCode.OK, "message accepted")

    def _on_rset(self, argument: str) -> Reply:
        self._sender = None
        self._recipients = []
        self._in_data = False
        self._spf_fail = False
        return self._reply(ReplyCode.OK, "flushed")

    def _on_noop(self, argument: str) -> Reply:
        return self._reply(ReplyCode.OK, "ok")

    def _on_quit(self, argument: str) -> Reply:
        self._close()
        return self._reply(ReplyCode.CLOSING, "bye")

    def abort(self) -> None:
        """Client dropped the TCP connection (the NoMsg termination)."""
        self._close()

    # Class-level dispatch: built once, not per command line.
    _DISPATCH = {
        Command.HELO: _on_helo,
        Command.EHLO: _on_helo,
        Command.MAIL: _on_mail,
        Command.RCPT: _on_rcpt,
        Command.DATA: _on_data,
        Command.RSET: _on_rset,
        Command.NOOP: _on_noop,
        Command.QUIT: _on_quit,
    }
