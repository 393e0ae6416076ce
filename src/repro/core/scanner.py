"""A self-contained scanning front end over the detection technique.

:class:`SpfVulnerabilityScanner` is what a downstream operator would
actually run: point it at a set of mail-server addresses (or domains —
it resolves MX records itself), and it produces a
:class:`ScanReport` classifying every server's SPF macro behavior, with
the same ethics limits the paper imposed.

This wraps the lower-level pieces (labels, detector, ethics) behind one
object, so adopting the technique takes four lines:

>>> scanner = SpfVulnerabilityScanner(network, responder, clock=clock)
... # doctest: +SKIP
>>> report = scanner.scan_ips(["203.0.113.10", "203.0.113.20"])
... # doctest: +SKIP
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..clock import SimulatedClock
from ..dns.resolver import StubResolver
from ..dns.server import SpfTestResponder
from ..errors import ResolutionError
from ..exec import ExecutionEnvironment, ProbeExecutor, ProbeTask, RetryPolicy
from ..smtp.transport import Network
from .detector import DetectionOutcome, DetectionResult
from .ethics import EthicsControls
from .fingerprint import ExpansionBehavior
from .labels import LabelAllocator


@dataclass
class ScanReport:
    """The outcome of one scan invocation."""

    started: _dt.datetime
    results: Dict[str, DetectionResult] = field(default_factory=dict)
    #: domain → addresses, for domain-mode scans.
    domain_ips: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def scanned(self) -> int:
        return len(self.results)

    def vulnerable_ips(self) -> List[str]:
        return [
            ip
            for ip, result in self.results.items()
            if result.outcome == DetectionOutcome.VULNERABLE
        ]

    def erroneous_ips(self) -> List[str]:
        return [
            ip
            for ip, result in self.results.items()
            if result.outcome == DetectionOutcome.ERRONEOUS
        ]

    def vulnerable_domains(self) -> List[str]:
        vulnerable = set(self.vulnerable_ips())
        return sorted(
            name
            for name, ips in self.domain_ips.items()
            if any(ip in vulnerable for ip in ips)
        )

    def outcome_counts(self) -> Dict[DetectionOutcome, int]:
        counts: Dict[DetectionOutcome, int] = {}
        for result in self.results.values():
            counts[result.outcome] = counts.get(result.outcome, 0) + 1
        return counts

    def summary(self) -> str:
        """A terse operator-facing summary."""
        lines = [f"scanned {self.scanned} address(es)"]
        for outcome, count in sorted(
            self.outcome_counts().items(), key=lambda kv: (-kv[1], kv[0].value)
        ):
            lines.append(f"  {outcome.value:<14} {count}")
        vulnerable = self.vulnerable_ips()
        if vulnerable:
            lines.append("vulnerable addresses:")
            for ip in vulnerable:
                behaviors = sorted(
                    b.value for b in self.results[ip].behaviors
                )
                lines.append(f"  {ip}  ({', '.join(behaviors)})")
        if self.domain_ips:
            lines.append(
                f"vulnerable domains: {len(self.vulnerable_domains())} "
                f"of {len(self.domain_ips)}"
            )
        return "\n".join(lines)


class SpfVulnerabilityScanner:
    """Scan mail servers for the libSPF2 macro-expansion fingerprint."""

    def __init__(
        self,
        network: Network,
        responder: SpfTestResponder,
        *,
        clock: Optional[SimulatedClock] = None,
        resolver: Optional[StubResolver] = None,
        client_ip: str = "198.51.100.7",
        ethics: Optional[EthicsControls] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.clock = clock or SimulatedClock()
        self.responder = responder
        self.resolver = resolver
        self.labels = LabelAllocator(responder.base)
        self.ethics = ethics or EthicsControls()
        # The scanner is handed an already-clocked network, so it runs the
        # engine in direct-clock mode (no router): probes advance the
        # scanner's clock itself.
        self.env = ExecutionEnvironment(
            clock=self.clock,
            network=network,
            responder=responder,
            labels=self.labels,
            ethics=self.ethics,
            client_ip=client_ip,
        )
        self.executor = ProbeExecutor(self.env, retry=retry)

    # -- scanning ---------------------------------------------------------------

    def scan_ips(
        self, ips: Sequence[str], *, recipient_domains: Optional[Dict[str, str]] = None
    ) -> ScanReport:
        """Scan a list of server addresses (deduplicated, one suite)."""
        report = ScanReport(started=self.clock.now)
        suite = self.labels.new_suite()
        recipient_domains = recipient_domains or {}
        seen = set()
        unique: List[str] = []
        for ip in ips:
            if ip in seen:
                continue  # paper §6.1: duplicate addresses tested once
            seen.add(ip)
            unique.append(ip)
        tasks = [
            ProbeTask(ip=ip, suite=suite, recipient_domain=recipient_domains.get(ip))
            for ip in unique
        ]
        results = self.executor.run_stage("scan", tasks)
        for task, result in zip(tasks, results):
            report.results[task.ip] = result
        return report

    def scan_domains(self, domains: Sequence[str]) -> ScanReport:
        """Resolve each domain's MX records and scan the unique addresses.

        Requires the scanner to have been built with a ``resolver``.
        """
        if self.resolver is None:
            raise ResolutionError("scanner was built without a resolver")
        domain_ips: Dict[str, List[str]] = {}
        recipient_domains: Dict[str, str] = {}
        ordered: List[str] = []
        for name in domains:
            ips = self._resolve(name)
            domain_ips[name] = ips
            for ip in ips:
                if ip not in recipient_domains:
                    recipient_domains[ip] = name
                    ordered.append(ip)
        report = self.scan_ips(ordered, recipient_domains=recipient_domains)
        report.domain_ips = domain_ips
        return report

    def _resolve(self, domain: str) -> List[str]:
        assert self.resolver is not None
        try:
            exchanges = self.resolver.get_mx(domain)
            if exchanges:
                addresses: List[str] = []
                for _, exchange in exchanges:
                    addresses.extend(
                        str(a)
                        for a in self.resolver.get_addresses(exchange, want_ipv6=False)
                    )
                return addresses
            return [
                str(a)
                for a in self.resolver.get_addresses(domain, want_ipv6=False)
            ]
        except ResolutionError:
            return []
