"""Synthetic load for a live daemon, with ledger-ready results.

The load tester drives a deterministic request mix (seeded RNG over the
world's own domain and address lists) from a pool of client threads,
measures per-request latency client-side, and reduces everything to a
:class:`LoadTestReport` — exact percentiles, throughput, and error
counts.  :func:`loadtest_record` turns a report into a
performance-ledger record (``kind: "serve"``) so request latency rides
the same ``obs history`` / ``obs regress`` machinery as campaign
throughput; ``request_p99_ms`` and friends are registered as
lower-is-better metrics in :mod:`repro.obs.ledger`.

Requests that the service *refuses* (429, by design under overload or
rate limiting) are counted separately from 5xx-class failures: refusals
are the admission control working, failures are bugs.  The acceptance
gate for this module is zero 5xx over ≥ 10K requests.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ServeError
from ..obs.metrics import exact_percentile
from .client import ScanClient

#: Default request mix: heavily read-biased, like a census/status
#: dashboard with occasional live probes — weights are fractions of the
#: total request count.
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("spf_census_row", 0.60),
    ("run_status", 0.15),
    ("patch_status_since", 0.15),
    ("probe_domain", 0.05),
    ("check_mta", 0.05),
)


@dataclass
class LoadTestReport:
    """Everything one load-test run measured."""

    requests: int
    wall_seconds: float
    by_method: Dict[str, int] = field(default_factory=dict)
    by_status: Dict[int, int] = field(default_factory=dict)
    errors_5xx: int = 0
    rejected_429: int = 0
    transport_errors: int = 0
    latencies_ms: List[float] = field(default_factory=list)

    @property
    def requests_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.requests / self.wall_seconds

    def percentile_ms(self, q: float) -> float:
        return exact_percentile(self.latencies_ms, q)

    def summary(self) -> dict:
        out = {
            "requests": self.requests,
            "wall_seconds": round(self.wall_seconds, 3),
            "requests_per_second": round(self.requests_per_second, 3),
            "by_method": dict(sorted(self.by_method.items())),
            "by_status": {
                str(k): v for k, v in sorted(self.by_status.items())
            },
            "errors_5xx": self.errors_5xx,
            "rejected_429": self.rejected_429,
            "transport_errors": self.transport_errors,
        }
        if self.latencies_ms:
            out["latency_ms"] = {
                "p50": round(self.percentile_ms(0.50), 3),
                "p90": round(self.percentile_ms(0.90), 3),
                "p99": round(self.percentile_ms(0.99), 3),
                "max": round(max(self.latencies_ms), 3),
            }
        return out

    def render(self) -> str:
        lines = [
            f"loadtest: {self.requests:,} requests in "
            f"{self.wall_seconds:.2f}s ({self.requests_per_second:,.0f} req/s)",
            f"  statuses: "
            + ", ".join(
                f"{status}×{count:,}"
                for status, count in sorted(self.by_status.items())
            ),
            f"  5xx errors: {self.errors_5xx:,} · 429 refusals: "
            f"{self.rejected_429:,} · transport errors: "
            f"{self.transport_errors:,}",
        ]
        if self.latencies_ms:
            lines.append(
                f"  latency: p50 {self.percentile_ms(0.5):.2f}ms · "
                f"p90 {self.percentile_ms(0.9):.2f}ms · "
                f"p99 {self.percentile_ms(0.99):.2f}ms · "
                f"max {max(self.latencies_ms):.2f}ms"
            )
        return "\n".join(lines)


def build_plan(
    count: int,
    *,
    domains: Sequence[str],
    ips: Sequence[str] = (),
    seed: int = 20211011,
    mix: Sequence[Tuple[str, float]] = DEFAULT_MIX,
) -> List[Tuple[str, dict]]:
    """A deterministic request plan: ``count`` (method, payload) pairs.

    The plan is a pure function of its arguments, so two load tests of
    the same world and seed drive byte-identical request streams.
    Methods whose target pool is empty (``check_mta`` with no address
    list) fall back to ``spf_census_row``.
    """
    if not domains:
        raise ServeError("load-test plan needs a non-empty domain list")
    rng = random.Random(seed)
    methods: List[str] = []
    weights: List[float] = []
    for method, weight in mix:
        methods.append(method)
        weights.append(weight)
    plan: List[Tuple[str, dict]] = []
    for _ in range(count):
        method = rng.choices(methods, weights=weights, k=1)[0]
        if method == "check_mta" and not ips:
            method = "spf_census_row"
        if method == "run_status":
            plan.append((method, {}))
        elif method == "check_mta":
            plan.append((method, {"target": rng.choice(list(ips))}))
        elif method == "patch_status_since":
            plan.append(
                (method, {"target": rng.choice(list(domains)), "since": 0})
            )
        else:
            plan.append((method, {"target": rng.choice(list(domains))}))
    return plan


def run_loadtest(
    make_client: Callable[[], ScanClient],
    plan: Sequence[Tuple[str, dict]],
    *,
    threads: int = 8,
) -> LoadTestReport:
    """Drive ``plan`` through ``threads`` concurrent clients.

    Each worker owns one keep-alive client and a contiguous slice of the
    plan; latency is measured client-side around the full round trip.
    """
    if not plan:
        raise ServeError("load test needs a non-empty plan")
    threads = max(1, min(threads, len(plan)))
    guard = threading.Lock()
    report = LoadTestReport(requests=0, wall_seconds=0.0)

    def worker(slice_: Sequence[Tuple[str, dict]]) -> None:
        client = make_client()
        local_latencies: List[float] = []
        local_status: Dict[int, int] = {}
        local_methods: Dict[str, int] = {}
        transport = 0
        try:
            for method, payload in slice_:
                started = time.perf_counter()
                try:
                    status, _ = client.request(method, payload)
                except ServeError:
                    transport += 1
                    continue
                local_latencies.append(
                    (time.perf_counter() - started) * 1000.0
                )
                local_status[status] = local_status.get(status, 0) + 1
                local_methods[method] = local_methods.get(method, 0) + 1
        finally:
            client.close()
        with guard:
            report.latencies_ms.extend(local_latencies)
            report.transport_errors += transport
            for status, count in local_status.items():
                report.by_status[status] = (
                    report.by_status.get(status, 0) + count
                )
                if status >= 500:
                    report.errors_5xx += count
                elif status == 429:
                    report.rejected_429 += count
            for method, count in local_methods.items():
                report.by_method[method] = (
                    report.by_method.get(method, 0) + count
                )

    chunk = -(-len(plan) // threads)
    slices = [plan[i : i + chunk] for i in range(0, len(plan), chunk)]
    pool = [
        threading.Thread(target=worker, args=(s,), daemon=True)
        for s in slices
    ]
    started = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    report.wall_seconds = time.perf_counter() - started
    report.requests = len(plan)
    return report


def loadtest_record(
    report: LoadTestReport, *, config, noise: Optional[float] = None
) -> dict:
    """A performance-ledger record (``kind: "serve"``) for one load test.

    The header is :func:`repro.obs.ledger.record_header`'s.  Latency
    percentiles land top-level (``request_p50_ms`` / ``request_p99_ms``,
    registered lower-is-better) next to ``requests_per_second``, so
    ``obs regress --metric request_p99_ms`` gates serve latency exactly
    like campaign throughput.
    """
    from ..obs.ledger import record_header

    record = record_header("serve", config=config, noise=noise)
    record.update(
        requests=report.requests,
        wall_seconds=round(report.wall_seconds, 6),
        requests_per_second=round(report.requests_per_second, 3),
        errors_5xx=report.errors_5xx,
        rejected_429=report.rejected_429,
        transport_errors=report.transport_errors,
        by_method=dict(sorted(report.by_method.items())),
    )
    if report.latencies_ms:
        record["request_p50_ms"] = round(report.percentile_ms(0.50), 3)
        record["request_p90_ms"] = round(report.percentile_ms(0.90), 3)
        record["request_p99_ms"] = round(report.percentile_ms(0.99), 3)
        record["request_max_ms"] = round(max(report.latencies_ms), 3)
    return record
