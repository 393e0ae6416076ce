"""Exception hierarchy for the SPFail reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch simulation-level failures without masking programming
errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class DnsError(ReproError):
    """Base class for DNS subsystem errors."""


class NameError_(DnsError):
    """A DNS name was malformed (too long, bad label, bad escape)."""


class WireFormatError(DnsError):
    """A DNS value does not fit its RFC 1035 field (an MX preference > 65535)."""


class ResolutionError(DnsError):
    """A DNS resolution failed (no server, network unreachable, loop)."""


class SpfError(ReproError):
    """Base class for SPF subsystem errors."""


class SpfSyntaxError(SpfError):
    """An SPF record or term was syntactically invalid (permerror)."""


class MacroError(SpfSyntaxError):
    """A macro string was malformed."""


class SmtpError(ReproError):
    """Base class for SMTP subsystem errors."""


class SmtpProtocolError(SmtpError):
    """The peer violated the SMTP protocol."""


class ConnectionRefusedError_(SmtpError):
    """The simulated host refused the TCP connection."""


class SimulationError(ReproError):
    """The simulation itself was misconfigured or used inconsistently."""


class CampaignError(ReproError):
    """A measurement campaign was driven out of order (e.g. a snapshot or
    longitudinal round requested before the initial sweep ran)."""


class StoreError(ReproError):
    """A run store could not satisfy a request (missing or torn
    checkpoints, config-hash mismatch, unusable manifest)."""


class CampaignAborted(ReproError):
    """A checkpointed run was deliberately interrupted (fault injection
    or ``--abort-after-round``); the store holds a resumable checkpoint."""


class ServeError(ReproError):
    """The scan service was misconfigured or could not start."""


class MemoryCorruptionError(ReproError):
    """The simulated C heap detected an out-of-bounds write.

    Raised by :mod:`repro.libspf2.cmem` when vulnerable code overruns an
    allocation, which is how the reproduction surfaces the CVE behavior.
    """

    def __init__(self, message: str, *, block_id: int = -1, offset: int = -1) -> None:
        super().__init__(message)
        self.block_id = block_id
        self.offset = offset
