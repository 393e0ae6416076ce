"""Bench: the perf sideband must cost under 5% wall overhead; and what
does tracing itself cost?

``--perf`` hangs a write-only sink off the tracer, so every span/task/
stage boundary pays one ``perf_counter()`` call plus a buffered record
append, and ``finalize()`` takes one end-of-run RSS/GC/counter reading.
The sideband's whole value proposition is that it can stay on during
real campaigns; this bench holds it to that claim.

Protocol: tracing enabled on BOTH sides (the sideband rides the
tracer, so the fair baseline is a traced run), perf toggled.
One discarded warm-up, then ``REPS`` baseline/profiled pairs with the
within-pair order alternating (frequency scaling and page-cache warmth
bias whichever run goes second).  The reported overhead is the **median
of the per-pair ratios**: the two runs of a pair execute back to back
and share the machine's momentary state, so a host-level slowdown
inflates both legs and cancels in the ratio, where a min-vs-min
comparison needs at least one of each leg to dodge every noise spike.
The per-leg minima are still recorded for reference.  The measured
window covers ``sim.run()`` plus the perf ``finalize()``, i.e.
everything profiling adds.

Each pair also runs one *untraced* leg (``Observation(trace=False)``:
metrics on, tracer off), so the same protocol measures what tracing
itself costs: ``tracing_overhead`` is the median of the per-pair
traced/untraced ``sim.run()`` wall ratios, minus one.  It is recorded
and printed, never asserted — the ROADMAP's 25% budget for full
tracing is a target, not a claim.

**The <5% bound is asserted only when the machine can resolve it**: if
the baseline legs alone spread wider than the budget (max/min - 1 over
identical runs), wall clock on this box cannot distinguish a 1% sideband
from a 5% one and the measurement is recorded, not asserted.  CI's
runners are stable enough to keep the assertion live there; the honest
numbers land in ``BENCH_perf.json`` with the container's core count,
Python version, and the measured noise spread.

Runnable standalone (``PYTHONPATH=src python benchmarks/bench_perf.py``)
or under pytest-benchmark with the rest of the bench suite.
"""

from __future__ import annotations

import gc
import shutil
import sys
import tempfile
import warnings
from time import perf_counter

from repro.api import RunConfig
from repro.obs import Observation, PerfRecorder
from repro.obs import ledger as obs_ledger
from repro.obs.perf import simulation_counters

from repro.simulation import Simulation

PERF_SCALE = 0.02
PERF_SEED = 20211011
REPS = 5
MAX_OVERHEAD = 0.05
#: the ROADMAP's target for full tracing's wall overhead (recorded only).
TRACING_TARGET = 0.25


def _run(perf_dir, *, trace: bool = True) -> dict:
    """One campaign, traced unless ``trace`` is False; ``perf_dir``
    toggles the sideband (traced legs only)."""
    gc.collect()
    config = RunConfig(scale=PERF_SCALE, seed=PERF_SEED, trace=trace)
    obs = Observation(trace=trace)
    if perf_dir:
        obs.attach_perf(PerfRecorder(perf_dir))
    sim = Simulation.build(config=config, observation=obs)
    started = perf_counter()
    sim.run()
    summary = (
        obs.perf.finalize(simulation_counters(sim))
        if obs.perf is not None
        else None
    )
    wall = perf_counter() - started
    return {
        "wall": wall,
        "events": obs.tracer.event_count(),
        "records": summary["records"] if summary else 0,
    }


def _compare(scratch: str) -> dict:
    _run(None)  # warm-up, discarded
    untraced = []
    baseline = []
    profiled = []
    for rep in range(REPS):
        legs = ["untraced", "baseline", "profiled"]
        if rep % 2:
            legs.reverse()
        for leg in legs:
            if leg == "untraced":
                untraced.append(_run(None, trace=False))
            elif leg == "baseline":
                baseline.append(_run(None))
            else:
                perf_dir = f"{scratch}/perf-{rep}"
                profiled.append(_run(perf_dir))
                shutil.rmtree(perf_dir)
    # The pair-ratio protocol lives in repro.obs.ledger now (``obs
    # regress`` uses the same call); the bench keeps only its measurement
    # loop and translates the ComparisonResult back into its record shape.
    result = obs_ledger.compare(
        [run["wall"] for run in baseline],
        [run["wall"] for run in profiled],
        metric="wall_seconds",
        threshold=MAX_OVERHEAD,
    )
    tracing = obs_ledger.compare(
        [run["wall"] for run in untraced],
        [run["wall"] for run in baseline],
        metric="wall_seconds",
        threshold=TRACING_TARGET,
    )
    return {
        "scale": PERF_SCALE,
        "seed": PERF_SEED,
        "reps": REPS,
        "trace_events": profiled[-1]["events"],
        "span_records": profiled[-1]["records"],
        "baseline_wall_seconds": min(run["wall"] for run in baseline),
        "profiled_wall_seconds": min(run["wall"] for run in profiled),
        "pair_ratios": result.pair_ratios,
        "overhead": result.change,
        "max_overhead": MAX_OVERHEAD,
        # The spread of identical baseline runs: the machine's own wall
        # noise.  When it exceeds the budget, the assertion is moot.
        "baseline_noise": result.noise,
        "overhead_asserted": result.asserted,
        "verdict": result.verdict,
        # Tracing's own cost (traced baseline over untraced), recorded
        # next to the sideband's; not asserted.
        "untraced_wall_seconds": min(run["wall"] for run in untraced),
        "tracing_pair_ratios": tracing.pair_ratios,
        "tracing_overhead": tracing.change,
        "tracing_target": TRACING_TARGET,
        "untraced_noise": tracing.noise,
    }


def _render(record: dict) -> str:
    return (
        f"Perf sideband overhead (scale {record['scale']}, serial, "
        f"median of {record['reps']} alternating pairs):\n"
        f"  untraced          {record['untraced_wall_seconds']:8.3f}s (best)\n"
        f"  traced baseline   {record['baseline_wall_seconds']:8.3f}s (best)  "
        f"tracing overhead {record['tracing_overhead']:+.1%} (target "
        f"{record['tracing_target']:.0%}, untraced noise "
        f"{record['untraced_noise']:.1%}; recorded, not asserted)\n"
        f"  with --perf       {record['profiled_wall_seconds']:8.3f}s (best)  "
        f"({record['span_records']:,} span records)\n"
        f"  overhead          {record['overhead']:+8.1%}  "
        f"(budget {record['max_overhead']:.0%}; baseline noise "
        f"{record['baseline_noise']:.1%}"
        + (
            ")"
            if record["overhead_asserted"]
            else " exceeds the budget: recorded, not asserted)"
        )
    )


def _check(record: dict) -> list:
    failures = []
    if record["overhead_asserted"] and (
        record["overhead"] > record["max_overhead"]
    ):
        failures.append(
            f"perf overhead {record['overhead']:+.1%} exceeds the "
            f"{record['max_overhead']:.0%} budget"
        )
    return failures


def _warn_if_unasserted(record: dict) -> None:
    """A silent pass is worse than a loud one: when noise moots the
    budget, say so where it cannot be missed (the pytest warnings
    summary, or stderr standalone) instead of quietly going green."""
    if record["overhead_asserted"]:
        return
    warnings.warn(
        f"perf overhead budget NOT asserted: baseline noise "
        f"{record['baseline_noise']:.1%} exceeds the "
        f"{record['max_overhead']:.0%} budget on this machine — the "
        f"measured {record['overhead']:+.1%} overhead is recorded in the "
        f"ledger, not asserted",
        stacklevel=2,
    )


def test_perf_sideband_overhead_under_budget(benchmark, tmp_path):
    from conftest import emit, emit_json

    record = benchmark.pedantic(
        _compare, args=(str(tmp_path),), rounds=1, iterations=1
    )
    emit(_render(record))
    emit_json("perf", record)
    _warn_if_unasserted(record)
    assert record["span_records"] > 10_000
    failures = _check(record)
    assert not failures, "; ".join(failures)


def main() -> int:
    from conftest import emit_json

    scratch = tempfile.mkdtemp(prefix="bench-perf-")
    try:
        record = _compare(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(_render(record))
    path = emit_json("perf", record)
    print(f"(record written to {path})")
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        _warn_if_unasserted(record)
    failures = _check(record)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
