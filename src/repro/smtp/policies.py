"""Per-server behavior policies.

The paper's Table 3 shows that real MTAs fall into several buckets:
refusing connections outright, failing the SMTP dialogue at various
stages, greylisting, accepting but never validating SPF, or validating
SPF at different points of the transaction.  :class:`ServerPolicy`
captures those degrees of freedom for one simulated MTA.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional


class SpfTiming(enum.Enum):
    """When (if ever) the server triggers SPF validation.

    The paper's NoMsg probe (terminate after the DATA command) only
    elicits SPF queries from servers that validate at or before the DATA
    command; BlankMsg (transmit an empty message) additionally catches
    servers that defer validation until a message has been received.
    """

    ON_MAIL_FROM = "on-mail-from"
    ON_DATA_COMMAND = "on-data-command"
    AFTER_MESSAGE = "after-message"
    NEVER = "never"

    @property
    def triggered_by_nomsg(self) -> bool:
        return self in (SpfTiming.ON_MAIL_FROM, SpfTiming.ON_DATA_COMMAND)

    @property
    def triggered_by_blankmsg(self) -> bool:
        return self != SpfTiming.NEVER


class FailureStage(enum.Enum):
    """Where in the dialogue a failing server breaks the transaction."""

    NONE = "none"
    BANNER = "banner"  # 421/554 immediately after connect
    HELO = "helo"
    MAIL_FROM = "mail-from"
    RCPT_TO = "rcpt-to"
    DATA = "data"
    MESSAGE = "message"  # rejects only at end-of-data (BlankMsg failures)


@dataclass(frozen=True)
class GreylistPolicy:
    """Greylisting: temporary 450 on the first delivery attempt.

    ``retry_after_seconds`` is the minimum age of the first attempt before
    a retry is accepted (the paper waited eight minutes before retrying
    greylisted servers).
    """

    enabled: bool = False
    retry_after_seconds: int = 300


@dataclass(frozen=True)
class RecipientPolicy:
    """Which RCPT TO addresses a server accepts.

    ``accept_any`` models catch-all servers.  Otherwise only local parts
    in ``accepted_usernames`` receive 250; everything else gets 550,
    prompting the prober to walk its curated username list.
    """

    accept_any: bool = True
    accepted_usernames: FrozenSet[str] = frozenset()

    def accepts(self, local_part: str) -> bool:
        return self.accept_any or local_part.lower() in self.accepted_usernames


@dataclass
class ServerPolicy:
    """All behavior knobs for one simulated MTA."""

    refuse_connections: bool = False
    failure_stage: FailureStage = FailureStage.NONE
    spf_timing: SpfTiming = SpfTiming.ON_MAIL_FROM
    greylist: GreylistPolicy = field(default_factory=GreylistPolicy)
    recipients: RecipientPolicy = field(default_factory=RecipientPolicy)
    #: Blacklisting: the server starts refusing the measurement client
    #: mid-campaign (a major cause of inconclusive longitudinal results).
    blacklists_after_probes: Optional[int] = None
    #: Transient flakiness: after ``flaky_after_sessions`` sessions, each
    #: further session fails at the banner with this probability (and
    #: succeeds again later) — the measurement-visible noise behind the
    #: paper's fluctuating per-round conclusiveness (Figure 5).
    flaky_rate: float = 0.0
    flaky_after_sessions: int = 2
