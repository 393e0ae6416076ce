"""Post-campaign outputs for the CLI.

``emit_outputs`` is everything that happens after a campaign finishes —
artifacts (rendered through :data:`repro.analysis.ARTIFACTS`), reports,
CSVs, traces, metrics, and the throughput summary line.
"""

from __future__ import annotations

import argparse
import json

from ..analysis import ARTIFACT_NAMES, ARTIFACTS
from ..simulation import Simulation


def write_trace(sim: Simulation, path: str) -> int:
    """Write the canonical JSONL trace; returns the event count."""
    assert sim.observation is not None
    return sim.observation.tracer.write_jsonl(path)


def write_metrics(sim: Simulation, path: str) -> None:
    assert sim.observation is not None and sim.config is not None
    payload = {
        "scale": sim.config.scale,
        "seed": sim.config.seed,
        "metrics": sim.observation.metrics.to_dict(),
        "histogram_percentiles": sim.observation.metrics.percentiles(),
        "executor_stages": sim.campaign.executor.metrics.to_dict(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def emit_outputs(sim: Simulation, args: argparse.Namespace) -> int:
    """Everything after a (completed) campaign: artifacts + observability."""
    if args.report:
        from ..analysis.report import generate_report

        text = generate_report(sim)
        with open(args.report, "w") as handle:
            handle.write(text)
        print(f"report written to {args.report}")
    if args.export_csv:
        from ..analysis.export import export_all

        written = export_all(sim, args.export_csv)
        print(f"{len(written)} CSV files written to {args.export_csv}")

    if not (args.report or args.export_csv) or args.artifact:
        for name in args.artifact or ARTIFACT_NAMES:
            print()
            print(ARTIFACTS[name](sim))

    if args.trace:
        count = write_trace(sim, args.trace)
        print(f"trace: {count:,} events written to {args.trace}")
    if args.metrics_out:
        write_metrics(sim, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")

    total = sim.campaign.executor.metrics.total()
    print()
    print(
        f"probe execution: {total.probes_attempted:,} probes "
        f"({total.retried} retried, {total.refused} refused) in "
        f"{total.wall_seconds:.2f}s wall / {total.sim_seconds:,.0f}s simulated "
        f"({total.probes_per_second:,.0f} probes/s)"
    )
    return 0
