"""Observability: virtual-time tracing and metrics for the whole system.

The SPFail detection method is itself observational — a remote server's
vulnerability is inferred from nothing but the DNS queries its SPF macro
expansion emits — and this package makes the *reproduction* equally
observable: every probe becomes an auditable transcript, every subsystem
a metrics source.

- :mod:`repro.obs.trace` — spans and events stamped with virtual time
  from the simulation clock, carrying stable probe/task ids, exported as
  canonically ordered JSONL that is byte-identical across runs (and
  resumes) of the same seed.
- :mod:`repro.obs.metrics` — named counters/gauges/histograms (SMTP
  reply codes, DNS queries per probe, macro expansions, probe outcomes,
  retry backoff) for what the executor's per-stage
  :class:`repro.exec.metrics.StageMetrics` does not record; a batch
  run's registry holds no wall-clock value.
- :mod:`repro.obs.context` — the ambient :class:`Observation` that
  instrumented hot paths consult with a single global read, so the layer
  costs nothing when disabled (the default).
- :mod:`repro.obs.logbridge` — stdlib-``logging`` integration: console
  output for ``--log-level`` and a handler that mirrors ``repro.*``
  records into the trace.
- :mod:`repro.obs.records` / :mod:`repro.obs.analyze` — the consumption
  side: parse canonical JSONL back into typed records, reconstruct span
  trees and per-probe timelines, aggregate per-stage/per-span virtual
  time, and render the ``trace summary`` markdown and folded stacks.
- :mod:`repro.obs.diff` — determinism diff: the first divergent event
  between two traces, with scope/seq/attrs delta and context
  (``python -m repro trace diff A B``).
- :mod:`repro.obs.progress` — live stderr progress for a running
  campaign (``--progress``): stage, tasks done/total, probes/s, ETA.
- :mod:`repro.obs.perf` — the wall-clock sideband (``--perf <dir>``):
  per-span ``perf_counter`` timings and resource/cache-counter samples
  written to separate files that join the canonical trace by span id,
  consumed by ``trace profile``; deterministic artifacts stay
  byte-identical with perf on or off.
- :mod:`repro.obs.ledger` — the cross-run performance ledger: every
  ``run``/``resume``/benchmark appends one compact JSON record
  (config hash, env + git commit, throughput, stage wall attribution)
  to an append-only ``ledger.jsonl``; ``obs history`` renders trend
  tables and ``obs regress`` compares two slices with explicit noise
  gating (non-zero exit only on a *confirmed* regression).

Usage::

    from repro.api import RunConfig
    from repro.obs import Observation
    from repro.simulation import Simulation

    obs = Observation(trace=True)
    sim = Simulation.build(config=RunConfig(scale=0.01), observation=obs)
    sim.run()
    obs.tracer.write_jsonl("trace.jsonl")

or via the CLI: ``python -m repro run --trace t.jsonl --metrics-out m.json``.
"""

from .analyze import TraceAnalysis
from .context import Observation, activate, active, deactivate, observing
from .diff import TraceDivergence, assert_traces_identical, diff_events, diff_files
from .ledger import ComparisonResult, LedgerError
from .logbridge import TraceLogHandler, attach_trace_handler, configure_logging
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .perf import PerfProfile, PerfRecorder
from .progress import ProgressReporter
from .records import ParsedEvent, load_jsonl, parse_jsonl
from .trace import TraceEvent, Tracer

__all__ = [
    "ComparisonResult",
    "Counter",
    "Gauge",
    "Histogram",
    "LedgerError",
    "MetricsRegistry",
    "Observation",
    "ParsedEvent",
    "PerfProfile",
    "PerfRecorder",
    "ProgressReporter",
    "TraceAnalysis",
    "TraceDivergence",
    "TraceEvent",
    "TraceLogHandler",
    "Tracer",
    "activate",
    "active",
    "assert_traces_identical",
    "attach_trace_handler",
    "configure_logging",
    "deactivate",
    "diff_events",
    "diff_files",
    "load_jsonl",
    "observing",
    "parse_jsonl",
]
