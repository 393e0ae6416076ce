"""A registry of named counters and histograms.

An open registry any subsystem can write to: SMTP reply-code
distributions, DNS queries per probe, SPF macro expansions, probe
outcomes.  Counters support an optional key, so one
instrument holds a whole distribution (e.g. ``smtp.replies`` keyed by
reply code).  A stage's counts and wall time are not copied here: they
live once, in the executor's :class:`repro.exec.metrics.StageMetrics`.

Every instrument a batch run writes is a function of the simulation, so
its registry — the ``--metrics-out`` JSON's ``metrics`` and
``histogram_percentiles`` blocks and the report's Observability tables
— is identical across runs and resumes of the same seed.  Only the
serve daemon adds a wall-clock instrument (``serve.request_ms``).
Exports are sorted by name and key so diffs between runs stay readable.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence


def exact_percentile(samples: Sequence[float], q: float) -> float:
    """The exact q-quantile (nearest-rank) of a non-empty sample list.

    ``q`` is a fraction in [0, 1]: the value at rank ``ceil(q * n)``
    (at least 1) of the sorted samples.
    """
    return sorted_percentile(sorted(samples), q)


def sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """:func:`exact_percentile` of samples already in ascending order."""
    if not ordered:
        raise ValueError("percentile of an empty sample set")
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 1))))
    return ordered[rank - 1]


class Counter:
    """A monotonically increasing count, optionally broken out by key."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._total = 0.0
        self._by_key: Dict[str, float] = {}
        self._lock = threading.Lock()

    def inc(self, key: Optional[str] = None, amount: float = 1.0) -> None:
        with self._lock:
            self._total += amount
            if key is not None:
                self._by_key[key] = self._by_key.get(key, 0.0) + amount

    @property
    def total(self) -> float:
        return self._total

    def by_key(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._by_key)

    def to_dict(self) -> dict:
        out: dict = {"total": self._total}
        if self._by_key:
            out["by_key"] = {k: self._by_key[k] for k in sorted(self._by_key)}
        return out


class Histogram:
    """A distribution of observed values with on-demand percentiles.

    Observations are kept verbatim — campaign scales here put a few
    hundred thousand floats at the high end, which is cheap — so
    percentiles are exact rather than bucket-interpolated.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    def percentile(self, p: float) -> float:
        """Exact percentile ``p`` (0–100, nearest-rank); 0 when empty."""
        with self._lock:
            values = list(self._values)
        return exact_percentile(values, p / 100.0) if values else 0.0

    def to_dict(self) -> dict:
        with self._lock:
            values = list(self._values)
        if not values:
            return {"count": 0}
        values.sort()
        return {
            "count": len(values),
            "sum": sum(values),
            "min": values[0],
            "max": values[-1],
            "mean": sum(values) / len(values),
            "p50": exact_percentile(values, 0.50),
            "p90": exact_percentile(values, 0.90),
            "p99": exact_percentile(values, 0.99),
        }


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(name, Histogram(name))
        return instrument

    def to_dict(self) -> dict:
        return {
            "counters": {n: self._counters[n].to_dict() for n in sorted(self._counters)},
            "histograms": {
                n: self._histograms[n].to_dict() for n in sorted(self._histograms)
            },
        }

    def snapshot(self) -> dict:
        """The registry's raw contents, suitable for :meth:`merge`.

        Unlike :meth:`to_dict` this keeps histogram observations verbatim
        (not summarized), so a checkpointed registry can be folded into a
        resumed run's without losing exact percentiles.
        """
        with self._lock:
            counters = {
                n: {"total": c._total, "by_key": dict(c._by_key)}
                for n, c in self._counters.items()
            }
            histograms = {n: list(h._values) for n, h in self._histograms.items()}
        return {"counters": counters, "histograms": histograms}

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Counter totals add and histogram observations extend.
        Every derived artifact stays deterministic: sums are exact and
        histogram summaries sort their values before rendering.
        """
        for name, state in snapshot["counters"].items():
            counter = self.counter(name)
            with counter._lock:
                counter._total += state["total"]
                for key, amount in state["by_key"].items():
                    counter._by_key[key] = counter._by_key.get(key, 0.0) + amount
        for name, values in snapshot["histograms"].items():
            histogram = self.histogram(name)
            with histogram._lock:
                histogram._values.extend(values)

    def percentiles(self) -> dict:
        """p50/p90/p99 per histogram, as a compact name-keyed summary.

        This is the distilled view the report's Observability section
        and the ``--metrics-out`` JSON surface alongside (not instead
        of) the full histogram dumps: one small dict an operator or a
        regression script can read without digging through raw values.
        """
        out: dict = {}
        for name in sorted(self._histograms):
            d = self._histograms[name].to_dict()
            if not d.get("count"):
                out[name] = {"count": 0}
                continue
            out[name] = {
                "count": d["count"],
                "p50": d["p50"],
                "p90": d["p90"],
                "p99": d["p99"],
            }
        return out

    def render_markdown(self) -> str:
        """Counter and histogram tables for the report's Observability section."""
        lines = ["| counter | total | top keys |", "|---|---|---|"]
        for name in sorted(self._counters):
            counter = self._counters[name]
            keyed = sorted(
                counter.by_key().items(), key=lambda kv: (-kv[1], kv[0])
            )[:5]
            keys = ", ".join(f"{k}={v:g}" for k, v in keyed) or "-"
            lines.append(f"| {name} | {counter.total:g} | {keys} |")
        if self._histograms:
            lines.append("")
            lines.append("| histogram | count | mean | p50 | p90 | p99 | max |")
            lines.append("|---|---|---|---|---|---|---|")
            for name in sorted(self._histograms):
                d = self._histograms[name].to_dict()
                if d["count"] == 0:
                    lines.append(f"| {name} | 0 | - | - | - | - | - |")
                    continue
                lines.append(
                    f"| {name} | {d['count']} | {d['mean']:.3g} | {d['p50']:.3g} "
                    f"| {d['p90']:.3g} | {d['p99']:.3g} | {d['max']:.3g} |"
                )
        return "\n".join(lines)
