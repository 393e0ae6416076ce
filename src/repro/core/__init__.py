"""The paper's primary contribution: benign remote vulnerability detection
and the longitudinal measurement built on it.

- :mod:`repro.core.fingerprint` — classify an observed macro expansion
  (the DNS query prefix) into an SPF-implementation behavior; the
  vulnerable libSPF2 pattern is uniquely distinguishable (Section 4.2).
- :mod:`repro.core.labels` — the unique ``<id>``/``<suite>`` labels that
  tie DNS queries to individual probe transactions and defeat caching.
- :mod:`repro.core.detector` — drive NoMsg/BlankMsg SMTP probes against
  one server and classify it from the measurement DNS log (Section 5.1).
- :mod:`repro.core.ethics` — the measurement's self-imposed limits:
  IP deduplication, concurrency cap, inter-connection waits, greylist
  backoff (Section 6).
- :mod:`repro.core.campaign` — the full measurement: MX resolution,
  initial sweep, 2-day longitudinal rounds in two windows, the final
  snapshot, and the notification hook (Sections 5.3, 7).
- :mod:`repro.core.inference` — the vulnerable-before/patched-after
  inference rules for rounds with missing results (Section 7.6).
"""

from .fingerprint import (
    ExpansionBehavior,
    classify_prefix,
    classify_prefixes,
    expected_prefixes,
)
from .labels import LabelAllocator
from .detector import (
    DetectionOutcome,
    DetectionResult,
    ProbeMethod,
    VulnerabilityDetector,
)
from .ethics import EthicsControls, EthicsViolation
from .campaign import (
    CampaignResult,
    DomainStatus,
    InitialMeasurement,
    IpInitialRecord,
    MeasurementCampaign,
    MeasurementRound,
)
from .inference import InferenceEngine, IpTimeline, RoundSummary
from .scanner import ScanReport, SpfVulnerabilityScanner

__all__ = [
    "ExpansionBehavior",
    "classify_prefix",
    "classify_prefixes",
    "expected_prefixes",
    "LabelAllocator",
    "DetectionOutcome",
    "DetectionResult",
    "ProbeMethod",
    "VulnerabilityDetector",
    "EthicsControls",
    "EthicsViolation",
    "CampaignResult",
    "DomainStatus",
    "InitialMeasurement",
    "IpInitialRecord",
    "MeasurementCampaign",
    "MeasurementRound",
    "InferenceEngine",
    "IpTimeline",
    "RoundSummary",
    "ScanReport",
    "SpfVulnerabilityScanner",
]
