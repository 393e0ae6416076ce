"""Bench: lazy world construction — memory tracks *touched*, not world size.

The lazy world (PR 6) promises two things this bench measures directly:

- **O(1) construction**: building the population, fleet, geography, and
  network allocates no per-domain or per-server objects, so build wall
  time and peak memory are flat across scales (the paper's world is
  scale 1; the ROADMAP's north star is scale 10 — about 4.4M domains).
- **O(touched) steady state**: after a fixed-size probe sweep, peak
  memory is a function of the probes performed (the rows and units they
  touched) plus the bounded layout cache — not of the world behind
  them.  The census (prefix indexes + calibration counts) is the one
  O(world)-time pass, paid on first touch and recorded separately; its
  *memory* is O(#chunks).

Each scale's record lands in ``BENCH_world.json``: build and census wall
time, tracemalloc peaks, touched-vs-total server counts, and the rows
drawn and units materialized after the sweep.  The pytest entry point
runs scale 0.1 only (the bench suite stays fast); the standalone form
runs the full ladder::

    PYTHONPATH=src python benchmarks/bench_world.py
    PYTHONPATH=src python benchmarks/bench_world.py --scales 1 --budget-mb 256

``--budget-mb`` turns the sweep's tracemalloc peak into a hard gate —
the CI scale smoke job runs under it.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc

from repro.clock import SimulatedClock
from repro.internet.geo import assign_geography
from repro.internet.mta_fleet import _encode_slot, build_fleet
from repro.internet.population import PopulationConfig, generate_population

BENCH_SEED = 20211011
SCALES = (0.1, 1.0, 10.0)
SWEEP_PROBES = 500


def _measure_scale(scale: float, *, probes: int = SWEEP_PROBES) -> dict:
    """Build a world at ``scale``, sweep ``probes`` addresses, record."""
    tracemalloc.start()
    t0 = time.perf_counter()
    population = generate_population(PopulationConfig(scale=scale, seed=BENCH_SEED))
    fleet = build_fleet(population)
    assign_geography(fleet, seed=BENCH_SEED)
    clock = SimulatedClock()
    network = fleet.build_network(lambda: clock.now, fleet.dns_backend)
    build_seconds = time.perf_counter() - t0
    _, build_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # The census: the one O(world)-time pass, O(#chunks) memory.
    tracemalloc.start()
    t0 = time.perf_counter()
    total_ips = fleet.total_ip_count()
    total_slots = fleet.total_slot_count()
    total_units = fleet.unit_count
    census_seconds = time.perf_counter() - t0
    _, census_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # A fixed-size probe sweep: touch evenly spaced address slots.  Every
    # touch materializes (at most) one unit, its domains, and one server.
    tracemalloc.start()
    t0 = time.perf_counter()
    stride = max(1, total_slots // probes)
    swept = 0
    for slot in range(0, total_slots, stride):
        if swept >= probes:
            break
        network.server_at(_encode_slot(slot))
        swept += 1
    sweep_seconds = time.perf_counter() - t0
    _, sweep_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "scale": scale,
        "seed": BENCH_SEED,
        "domains": len(population),
        "total_units": total_units,
        "total_addresses": total_ips,
        "total_slots": total_slots,
        "build_seconds": build_seconds,
        "build_peak_mb": build_peak / 1e6,
        "census_seconds": census_seconds,
        "census_peak_mb": census_peak / 1e6,
        "sweep_probes": swept,
        "sweep_seconds": sweep_seconds,
        "sweep_peak_mb": sweep_peak / 1e6,
        "touched_servers": network.materialized_count,
        "population.row_regens": population.row_regens,
        "fleet.unit_materializations": fleet.unit_materializations,
    }


def _render(records: list) -> str:
    lines = [
        f"Lazy world construction (seed {BENCH_SEED}, "
        f"{SWEEP_PROBES}-address probe sweep):",
        "  scale     domains     servers   build(s)  build(MB)  "
        "census(s)  sweep(MB)  touched/total",
    ]
    for r in records:
        lines.append(
            f"  {r['scale']:>5g}  {r['domains']:>10,}  {r['total_addresses']:>10,}"
            f"  {r['build_seconds']:>8.3f}  {r['build_peak_mb']:>9.1f}"
            f"  {r['census_seconds']:>9.2f}  {r['sweep_peak_mb']:>9.1f}"
            f"  {r['touched_servers']:>7,}/{r['total_addresses']:,}"
        )
    return "\n".join(lines)


def _check(records: list, budget_mb: float = None) -> list:
    """Acceptance: memory grows with touched servers, not world size."""
    failures = []
    for r in records:
        # Construction allocates no per-server objects: a scale-10 world
        # (~4.4M domains) must build in well under the memory one probe
        # round would need eagerly.
        if r["build_peak_mb"] > 50.0:
            failures.append(
                f"scale {r['scale']}: build peak {r['build_peak_mb']:.1f}MB "
                "suggests eager materialization"
            )
        if r["touched_servers"] > r["sweep_probes"] + 1:
            failures.append(
                f"scale {r['scale']}: sweep touched {r['touched_servers']} "
                f"servers for {r['sweep_probes']} probes"
            )
        if budget_mb is not None:
            peak = max(r["build_peak_mb"], r["census_peak_mb"], r["sweep_peak_mb"])
            if peak > budget_mb:
                failures.append(
                    f"scale {r['scale']}: peak {peak:.1f}MB exceeds the "
                    f"{budget_mb:.0f}MB budget"
                )
    if len(records) >= 2:
        small, large = records[0], records[-1]
        world_growth = large["total_addresses"] / max(1, small["total_addresses"])
        sweep_growth = large["sweep_peak_mb"] / max(1e-9, small["sweep_peak_mb"])
        # Same probe count at every scale: the sweep's peak must stay
        # decoupled from the world behind it (generous 8x headroom for
        # cache-geometry effects versus the world's ~100x growth).
        if world_growth >= 10 and sweep_growth > 8.0:
            failures.append(
                f"sweep peak grew {sweep_growth:.1f}x across a "
                f"{world_growth:.0f}x world — memory is tracking world size"
            )
    return failures


def test_world_build_is_lazy(benchmark):
    from conftest import emit, emit_json

    record = benchmark.pedantic(
        lambda: _measure_scale(0.1), rounds=1, iterations=1
    )
    emit(_render([record]))
    emit_json("world", {"records": [record], "partial": "pytest runs scale 0.1 only"})
    failures = _check([record])
    assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    from conftest import emit_json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scales", type=float, nargs="+", default=list(SCALES),
        help="world scales to measure (default: 0.1 1 10)",
    )
    parser.add_argument(
        "--probes", type=int, default=SWEEP_PROBES,
        help="probe-sweep size per scale",
    )
    parser.add_argument(
        "--budget-mb", type=float, default=None,
        help="fail if any phase's tracemalloc peak exceeds this budget",
    )
    args = parser.parse_args(argv)

    records = []
    for scale in args.scales:
        records.append(_measure_scale(scale, probes=args.probes))
        print(_render(records[-1:]))
    path = emit_json("world", {"records": records})
    print(f"(record written to {path})")
    failures = _check(records, budget_mb=args.budget_mb)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
