"""Cross-run performance ledger: persist measurements, detect regressions.

Everything else in :mod:`repro.obs` looks at *one* run in depth — the
tracer records it, the perf sideband times its spans and ``trace
profile`` attributes its wall time.  None of it persists across runs: the
benchmark trajectory is invisible PR-over-PR, and a hot-path
optimization has no instrument that proves (or protects) its win.  The
ledger is that instrument: an append-only JSONL history of compact
per-run performance records, plus a noise-aware comparator that can say
"candidate is slower than baseline *and the machine can resolve the
difference*" — or refuse to cry wolf when it cannot.

Record shape (one JSON object per line, compact, sorted keys)::

    {"v": 1, "kind": "run", "ts": 1723100000.0,
     "config_hash": "<sha256 of the RunConfig semantic fields>",
     "env": {"cpus": 2, "python": "3.11.7",
             "git_commit": "5a9d62d...", "git_dirty": false},
     "scale": 0.02, "seed": 20211011, "noise": null,
     "wall_seconds": 6.1, "probe_wall_seconds": 5.2,
     "sim_seconds": 9676800.0, "probes": 38000,
     "probes_per_second": 7300.0, "retried": 0, "refused": 12,
     "counters": {"population.row_regens": ..., ...},
     "stages": [{"stage": "initial", "wall_seconds": ..., ...}, ...]}

- The header is spelled once, by :func:`record_header`: ``v``,
  ``kind``, ``ts`` and ``env`` on every record, plus ``config_hash``,
  ``scale``, ``seed`` and ``noise`` on a record backed by a run.
- ``kind`` is ``run`` / ``resume`` (CLI campaigns, written only to the
  ``--ledger`` file), ``serve`` (a ``serve --loadtest`` latency record,
  :func:`repro.serve.loadtest.loadtest_record`), or ``bench`` (a
  ``BENCH_*.json`` emission mirrored by ``benchmarks/conftest.emit_json``;
  its scalar payload lands under ``metrics``).
- ``config_hash`` is :meth:`repro.api.RunConfig.content_hash`, so a
  history can be filtered down to byte-comparable experiments.
- ``env`` carries machine + commit provenance
  (:func:`environment_info`) of the process that made the measurement:
  bench numbers are meaningless without knowing what produced them.
- ``stages`` holds one row per executor stage,
  :meth:`repro.exec.metrics.StageMetrics.to_dict` verbatim: the rows
  ``--metrics-out`` writes under ``executor_stages``, whatever the run's
  tracing or profiling.  Their ``wall_seconds`` add up to
  ``probe_wall_seconds``.
- ``noise`` optionally declares the machine's measured wall-noise
  spread (identical-run max/min − 1) so later comparisons can gate on
  it; ``null`` means "not measured".

The ledger is a **performance artifact**, not a determinism artifact:
like ``--metrics-out`` it may carry wall-clock values and timestamps.
Writing it never touches a deterministic code path — trace, CSV, and
report bytes are identical with the ledger on or off.

Noise-aware comparison
----------------------

:func:`compare` promotes the order-alternating pair-ratio protocol of
``benchmarks/bench_perf.py`` into a reusable primitive.  Baseline and
candidate samples are paired index-wise (most recent aligned last), the
per-pair ratio is taken, and the **median ratio** is the measured
change: two paired measurements taken close together share the
machine's momentary state, so host-level slowdowns inflate both legs
and cancel in the ratio.  The gate is explicit about what it can
resolve:

- ``noise`` = max(declared noise of the records, the spread of the
  baseline samples, the caller's floor).  It is the measurement's own
  error bar.
- a change worse than ``threshold`` **and** worse than ``noise`` is a
  confirmed ``regression`` (exit 1 from ``obs regress``);
- a change worse than ``threshold`` but within ``noise`` is
  ``noise-mooted``: recorded loudly, never asserted — wall clock on
  this machine cannot distinguish it from nothing (the same
  honest-numbers policy ``bench_perf.py`` applies to its overhead
  budget);
- a change *better* than both is an ``improvement``; anything else is
  ``ok``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = [
    "LEDGER_VERSION",
    "LEDGER_FILENAME",
    "LedgerError",
    "ComparisonResult",
    "append_record",
    "build_record",
    "compare",
    "compare_records",
    "environment_info",
    "filter_records",
    "git_provenance",
    "history_dict",
    "load_slice",
    "metric_value",
    "pair_ratios",
    "read_ledger",
    "record_header",
    "render_history",
    "validate_record",
]

LEDGER_VERSION = 1

#: The ledger file a directory spelling of a slice reads
#: (``benchmarks/ledger.jsonl`` is the benchmark suite's).
LEDGER_FILENAME = "ledger.jsonl"

#: Record keys every ledger line must carry (schema floor).
REQUIRED_KEYS = ("v", "kind", "ts", "env")

#: Metrics where a *smaller* value is the better one.  Everything else
#: (throughputs, rates) is treated as higher-is-better.
LOWER_IS_BETTER = frozenset(
    {
        "wall_seconds",
        "probe_wall_seconds",
        "overhead",
        "baseline_wall_seconds",
        "profiled_wall_seconds",
        "analyze_seconds",
        "parse_seconds",
        "render_seconds",
        "total_seconds",
        # serve records: request latency percentiles (milliseconds).
        "request_p50_ms",
        "request_p90_ms",
        "request_p99_ms",
        "request_max_ms",
    }
)


class LedgerError(ValueError):
    """A ledger file, record, or comparison request is unusable."""


# -- provenance ---------------------------------------------------------------


def available_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def git_provenance(cwd: Optional[str] = None) -> Dict[str, object]:
    """``{"git_commit": <sha or None>, "git_dirty": <bool or None>}``.

    Shells out to ``git``; degrades to ``None`` values outside a work
    tree (or without a ``git`` binary) rather than failing — a ledger
    record with unknown provenance beats no record.
    """
    commit: Optional[str] = None
    dirty: Optional[bool] = None
    try:
        commit = (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=cwd,
                capture_output=True,
                timeout=10,
            )
            .stdout.decode("utf-8", "replace")
            .strip()
            or None
        )
        if commit is not None and len(commit) != 40:
            commit = None
        if commit is not None:
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=cwd,
                capture_output=True,
                timeout=10,
            )
            if status.returncode == 0:
                dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_commit": commit, "git_dirty": dirty}


def environment_info(cwd: Optional[str] = None) -> Dict[str, object]:
    """Machine + commit provenance stamped into every ledger record."""
    env: Dict[str, object] = {
        "cpus": available_cpus(),
        "python": platform.python_version(),
    }
    env.update(git_provenance(cwd))
    return env


# -- record construction ------------------------------------------------------


def _round_floats(value, digits: int = 6):
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {k: _round_floats(v, digits) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v, digits) for v in value]
    return value


def record_header(
    kind: str,
    *,
    config=None,
    noise: Optional[float] = None,
    env: Optional[Dict[str, object]] = None,
) -> dict:
    """The fields every ledger record starts with, spelled only here.

    ``v``, ``kind``, ``ts`` and ``env`` on every record (``env`` is
    probed with :func:`environment_info` unless the caller already
    holds one); a record backed by a run passes its
    :class:`~repro.api.RunConfig` as ``config``, which adds
    ``config_hash``, ``scale``, ``seed`` and the declared ``noise``.
    """
    header: dict = {
        "v": LEDGER_VERSION,
        "kind": kind,
        "ts": round(time.time(), 3),
        "env": dict(env) if env is not None else environment_info(),
    }
    if config is not None:
        header["config_hash"] = config.content_hash()
        header["scale"] = config.scale
        header["seed"] = config.seed
        header["noise"] = noise
    return header


def build_record(sim, *, kind: str, wall_seconds: float) -> dict:
    """One ledger record for a completed :class:`~repro.simulation.Simulation`.

    ``wall_seconds`` is the campaign's end-to-end wall time as the
    caller measured it.  Everything else comes from the run itself: the
    executor's :class:`~repro.exec.metrics.StageMetrics` (the one record
    of stage wall time) give the totals and one ``stages`` row per
    stage, and :func:`~repro.obs.perf.simulation_counters` the world's
    cache counters.  The record has the same keys whether or not the run
    was traced or profiled.
    """
    if sim.config is None:
        raise LedgerError(
            "ledger records need a config-built Simulation "
            "(Simulation.build(config=...))"
        )
    from .perf import simulation_counters

    metrics = sim.campaign.executor.metrics
    total = metrics.total()
    record = record_header(kind, config=sim.config)
    record.update(
        wall_seconds=round(wall_seconds, 6),
        probe_wall_seconds=round(total.wall_seconds, 6),
        sim_seconds=round(total.sim_seconds, 3),
        probes=total.probes_attempted,
        retried=total.retried,
        refused=total.refused,
        probes_per_second=round(total.probes_per_second, 3),
        counters=simulation_counters(sim),
        stages=[stage.to_dict() for stage in metrics.stages],
    )
    return record


def validate_record(record: dict) -> dict:
    """Schema-floor check; returns the record or raises :class:`LedgerError`."""
    if not isinstance(record, dict):
        raise LedgerError(f"ledger record must be an object, got {type(record).__name__}")
    missing = [key for key in REQUIRED_KEYS if key not in record]
    if missing:
        raise LedgerError(f"ledger record missing keys: {', '.join(missing)}")
    if record["v"] != LEDGER_VERSION:
        raise LedgerError(f"unsupported ledger record version {record['v']!r}")
    if not isinstance(record["env"], dict):
        raise LedgerError("ledger record 'env' must be an object")
    return record


# -- persistence --------------------------------------------------------------


def serialize_record(record: dict) -> str:
    """The canonical one-line form (compact, sorted keys)."""
    return json.dumps(_round_floats(record), sort_keys=True, separators=(",", ":"))


def append_record(path: str, record: dict) -> dict:
    """Append one validated record to ``path`` (append-only, atomic line).

    The line is written with a single ``O_APPEND`` ``os.write`` so
    concurrent appenders (CI matrix legs sharing a ledger artifact,
    bench sessions) interleave whole records, never torn ones.
    """
    validate_record(record)
    line = serialize_record(record) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)
    return record


def read_ledger(path: str) -> List[dict]:
    """Every record of one ledger file, in append order."""
    records: List[dict] = []
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise LedgerError(f"cannot read ledger {path!r}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise LedgerError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
        records.append(validate_record(payload))
    return records


def load_slice(path: str) -> List[dict]:
    """Records from a ledger path in any accepted spelling.

    ``path`` may be a ledger JSONL file, a directory holding one
    (``<dir>/ledger.jsonl``, as ``benchmarks/`` does), or a ``.json``
    file holding a single record object (a committed baseline like
    ``benchmarks/BASELINE.json``).
    """
    if os.path.isdir(path):
        candidate = os.path.join(path, LEDGER_FILENAME)
        if not os.path.isfile(candidate):
            raise LedgerError(f"no {LEDGER_FILENAME} inside directory {path!r}")
        return read_ledger(candidate)
    if path.endswith(".json"):
        try:
            with open(path, "r") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise LedgerError(f"cannot read {path!r}: {exc}") from exc
        except ValueError as exc:
            raise LedgerError(f"{path}: not valid JSON: {exc}") from exc
        if isinstance(payload, list):
            return [validate_record(record) for record in payload]
        return [validate_record(payload)]
    return read_ledger(path)


def filter_records(
    records: Sequence[dict],
    *,
    config_hash: Optional[str] = None,
    kinds: Optional[Sequence[str]] = None,
    metric: Optional[str] = None,
    last: Optional[int] = None,
) -> List[dict]:
    """Slice a history: by config-hash prefix, kind, metric presence, recency."""
    out = list(records)
    if config_hash:
        out = [
            r for r in out
            if str(r.get("config_hash", "")).startswith(config_hash)
        ]
    if kinds:
        out = [r for r in out if r.get("kind") in set(kinds)]
    if metric:
        out = [r for r in out if metric_value(r, metric) is not None]
    if last is not None and last >= 0:
        out = out[-last:] if last else []
    return out


def metric_value(record: dict, metric: str) -> Optional[float]:
    """The named metric of one record, top-level or under ``metrics``."""
    for container in (record, record.get("metrics") or {}):
        value = container.get(metric)
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
    return None


# -- comparison ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """Plain median (no statistics import: 2-value mean for even counts)."""
    if not values:
        raise LedgerError("median of an empty sample set")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def spread(values: Sequence[float]) -> float:
    """Relative spread ``max/min − 1`` (identical-run wall noise); 0 if
    fewer than two positive samples."""
    positive = [v for v in values if v > 0]
    if len(positive) < 2:
        return 0.0
    return max(positive) / min(positive) - 1.0


def pair_ratios(
    baseline: Sequence[float], candidate: Sequence[float]
) -> List[float]:
    """Index-wise candidate/baseline ratios over the aligned recent tail.

    The two sample lists are aligned at their *ends* (most recent
    last) and paired index-wise — for interleaved A/B runs (the
    ``bench_perf`` protocol) each pair executed back to back, so
    host-level noise inflates both legs and cancels in the ratio.
    """
    if not baseline or not candidate:
        raise LedgerError("pair_ratios needs at least one sample on each side")
    n = min(len(baseline), len(candidate))
    base = list(baseline)[-n:]
    cand = list(candidate)[-n:]
    ratios = []
    for b, c in zip(base, cand):
        if b <= 0:
            raise LedgerError(f"non-positive baseline sample {b!r}")
        ratios.append(c / b)
    return ratios


@dataclass(frozen=True)
class ComparisonResult:
    """The verdict of one noise-gated baseline/candidate comparison."""

    metric: str
    #: whether a smaller metric value is the better one.
    lower_is_better: bool
    #: per-pair candidate/baseline ratios, sorted.
    pair_ratios: List[float] = field(default_factory=list)
    #: median of :attr:`pair_ratios`.
    median_ratio: float = 1.0
    #: signed regression magnitude: positive = candidate worse.
    change: float = 0.0
    #: the regression budget the caller asked to enforce.
    threshold: float = 0.15
    #: the measurement's own error bar (declared + measured + floor).
    noise: float = 0.0
    #: samples used on each side.
    baseline_samples: int = 0
    candidate_samples: int = 0
    baseline_median: float = 0.0
    candidate_median: float = 0.0
    #: ``regression`` / ``noise-mooted`` / ``improvement`` / ``ok``.
    verdict: str = "ok"
    #: False when noise exceeds the threshold: the machine cannot
    #: resolve the budget, so the threshold is recorded, not asserted.
    asserted: bool = True

    @property
    def regressed(self) -> bool:
        """True only for a *confirmed* (noise-cleared) regression."""
        return self.verdict == "regression"

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "lower_is_better": self.lower_is_better,
            "pair_ratios": [round(r, 6) for r in self.pair_ratios],
            "median_ratio": round(self.median_ratio, 6),
            "change": round(self.change, 6),
            "threshold": self.threshold,
            "noise": round(self.noise, 6),
            "baseline_samples": self.baseline_samples,
            "candidate_samples": self.candidate_samples,
            "baseline_median": round(self.baseline_median, 6),
            "candidate_median": round(self.candidate_median, 6),
            "verdict": self.verdict,
            "asserted": self.asserted,
        }

    def render(self) -> str:
        """Human summary for the ``obs regress`` output."""
        direction = "lower is better" if self.lower_is_better else "higher is better"
        lines = [
            f"metric {self.metric} ({direction}): "
            f"baseline median {self.baseline_median:g} "
            f"({self.baseline_samples} sample(s)) vs candidate median "
            f"{self.candidate_median:g} ({self.candidate_samples} sample(s))",
            f"  median pair ratio {self.median_ratio:.4f} → change "
            f"{self.change:+.1%} (positive = worse); budget "
            f"{self.threshold:.0%}, noise gate {self.noise:.1%}",
        ]
        if self.verdict == "regression":
            lines.append(
                f"  REGRESSION: {self.change:+.1%} exceeds both the budget "
                f"and the noise gate"
            )
        elif self.verdict == "noise-mooted":
            lines.append(
                f"  noise-mooted: {self.change:+.1%} exceeds the budget but "
                f"is within the {self.noise:.1%} noise gate — recorded, "
                f"not asserted"
            )
        elif self.verdict == "improvement":
            lines.append(
                f"  improvement: {-self.change:+.1%} clears both the budget "
                f"and the noise gate"
            )
        else:
            lines.append("  ok: within budget")
        return "\n".join(lines)


def compare(
    baseline: Sequence[float],
    candidate: Sequence[float],
    *,
    metric: str = "probes_per_second",
    threshold: float = 0.15,
    noise_floor: float = 0.0,
    lower_is_better: Optional[bool] = None,
) -> ComparisonResult:
    """Noise-gated comparison of two sample lists (see module docstring).

    This is ``bench_perf.py``'s order-alternating pair-ratio protocol as
    a library call: median of index-wise pair ratios measures the
    change, the baseline's own spread (plus the caller's declared
    ``noise_floor``) gates what may be asserted.
    """
    if lower_is_better is None:
        lower_is_better = metric in LOWER_IS_BETTER
    ratios = sorted(pair_ratios(baseline, candidate))
    med = median(ratios)
    change = (med - 1.0) if lower_is_better else (1.0 - med)
    noise = max(float(noise_floor), spread(baseline))
    if change > threshold and change > noise:
        verdict = "regression"
    elif change > threshold:
        verdict = "noise-mooted"
    elif -change > max(threshold, noise):
        verdict = "improvement"
    else:
        verdict = "ok"
    return ComparisonResult(
        metric=metric,
        lower_is_better=lower_is_better,
        pair_ratios=ratios,
        median_ratio=med,
        change=change,
        threshold=threshold,
        noise=noise,
        baseline_samples=len(baseline),
        candidate_samples=len(candidate),
        baseline_median=median(list(baseline)),
        candidate_median=median(list(candidate)),
        verdict=verdict,
        asserted=noise <= threshold,
    )


def compare_records(
    baseline: Sequence[dict],
    candidate: Sequence[dict],
    *,
    metric: str = "probes_per_second",
    threshold: float = 0.15,
    noise_floor: float = 0.0,
    lower_is_better: Optional[bool] = None,
) -> ComparisonResult:
    """:func:`compare` over two ledger slices.

    Samples are the records' ``metric`` values; the noise gate folds in
    every ``noise`` value the records themselves declare (a committed
    baseline measured on a known-noisy container carries its own error
    bar into every later comparison against it).
    """
    base_samples = [metric_value(r, metric) for r in baseline]
    cand_samples = [metric_value(r, metric) for r in candidate]
    base_samples = [v for v in base_samples if v is not None]
    cand_samples = [v for v in cand_samples if v is not None]
    if not base_samples:
        raise LedgerError(f"baseline slice has no records with metric {metric!r}")
    if not cand_samples:
        raise LedgerError(f"candidate slice has no records with metric {metric!r}")
    declared = [
        float(r["noise"])
        for r in list(baseline) + list(candidate)
        if isinstance(r.get("noise"), (int, float)) and not isinstance(r.get("noise"), bool)
    ]
    floor = max([float(noise_floor)] + declared)
    return compare(
        base_samples,
        cand_samples,
        metric=metric,
        threshold=threshold,
        noise_floor=floor,
        lower_is_better=lower_is_better,
    )


# -- history rendering --------------------------------------------------------

DEFAULT_HISTORY_METRICS = ("probes_per_second", "wall_seconds")


def _fmt_ts(ts) -> str:
    if not isinstance(ts, (int, float)):
        return "—"
    import datetime as _dt

    stamp = _dt.datetime.fromtimestamp(float(ts), tz=_dt.timezone.utc)
    return stamp.strftime("%Y-%m-%d %H:%M:%S")


def _record_label(record: dict) -> str:
    if record.get("kind") == "bench":
        return f"bench:{record.get('bench', '?')}"
    config_hash = str(record.get("config_hash", ""))
    return config_hash[:8] or "—"


def history_dict(
    records: Sequence[dict],
    metrics: Sequence[str] = DEFAULT_HISTORY_METRICS,
) -> dict:
    """Machine-readable trend data: rows + exact percentiles per metric."""
    from .metrics import Histogram

    out: dict = {"records": len(records), "metrics": {}}
    for metric in metrics:
        rows = []
        histogram = Histogram(metric)
        for index, record in enumerate(records):
            value = metric_value(record, metric)
            if value is None:
                continue
            histogram.observe(value)
            env = record.get("env") or {}
            commit = env.get("git_commit")
            rows.append(
                {
                    "index": index,
                    "ts": record.get("ts"),
                    "kind": record.get("kind"),
                    "label": _record_label(record),
                    "git_commit": commit[:12] if isinstance(commit, str) else None,
                    "scale": record.get("scale"),
                    "value": value,
                }
            )
        out["metrics"][metric] = {
            "rows": rows,
            "summary": histogram.to_dict(),
        }
    return out


def render_history(
    records: Sequence[dict],
    metrics: Sequence[str] = DEFAULT_HISTORY_METRICS,
) -> str:
    """The ``obs history`` markdown: one trend table per metric."""
    data = history_dict(records, metrics)
    parts = [f"# Performance ledger history ({data['records']} record(s))"]
    for metric in metrics:
        entry = data["metrics"][metric]
        rows = entry["rows"]
        parts.append("")
        parts.append(f"## {metric}")
        parts.append("")
        if not rows:
            parts.append("(no records carry this metric)")
            continue
        parts.append(
            "| # | when (UTC) | kind | config/bench | commit | scale | value |"
        )
        parts.append("|---|---|---|---|---|---|---|")
        for row in rows:
            parts.append(
                f"| {row['index']} | {_fmt_ts(row['ts'])} | {row['kind']} "
                f"| {row['label']} | {row['git_commit'] or '—'} "
                f"| {row['scale'] if row['scale'] is not None else '—'} "
                f"| {row['value']:g} |"
            )
        summary = entry["summary"]
        if summary.get("count"):
            parts.append("")
            parts.append(
                f"exact percentiles over {summary['count']} value(s): "
                f"min {summary['min']:g} · p50 {summary['p50']:g} · "
                f"p90 {summary['p90']:g} · max {summary['max']:g}"
            )
    parts.append("")
    return "\n".join(parts)
