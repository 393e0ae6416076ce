"""Artifact generation and post-campaign outputs for the CLI.

The artifact registry maps every paper table/figure name to a renderer
over a completed :class:`repro.simulation.Simulation`; ``emit_outputs``
is everything that happens after a campaign finishes — reports, CSVs,
traces, metrics, and the throughput summary line.
"""

from __future__ import annotations

import argparse
import json
from typing import Callable, Dict

from .. import analysis
from ..simulation import Simulation

ARTIFACT_NAMES = (
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "figure2", "figure3", "figure4", "figure5", "figure6", "figure7",
    "figure8", "notification",
)


def artifact_registry(sim: Simulation) -> Dict[str, Callable[[], str]]:
    result = sim.run()
    return {
        "table1": lambda: analysis.render_table1(analysis.build_table1(sim.population)),
        "table2": lambda: analysis.render_table2(analysis.build_table2(sim.population)),
        "table3": lambda: analysis.render_table3(
            analysis.build_table3(sim.population, result.initial)
        ),
        "table4": lambda: analysis.render_table4(
            analysis.build_table4(sim.population, result.initial)
        ),
        "table5": lambda: analysis.render_table5(analysis.build_table5(sim)),
        "table6": lambda: analysis.render_table6(analysis.build_table6()),
        "table7": lambda: analysis.render_table7(analysis.build_table7(result.initial)),
        "figure2": lambda: analysis.render_figure2(analysis.build_figure2(sim)),
        "figure3": lambda: analysis.render_figure3(analysis.build_figure3(sim)),
        "figure4": lambda: analysis.render_figure4(analysis.build_figure4(sim)),
        "figure5": lambda: analysis.render_figure5(analysis.build_figure5(sim)),
        "figure6": lambda: analysis.render_figure6(analysis.build_figure6(sim)),
        "figure7": lambda: analysis.render_figure7(analysis.build_figure7(sim)),
        "figure8": lambda: analysis.render_figure8(analysis.build_figure8(sim)),
        "notification": lambda: analysis.render_notification_funnel(
            analysis.build_notification_funnel(sim)
        ),
    }


def write_trace(sim: Simulation, path: str) -> int:
    """Write the canonical JSONL trace; returns the event count."""
    assert sim.observation is not None
    return sim.observation.tracer.write_jsonl(path)


def write_metrics(sim: Simulation, path: str) -> None:
    assert sim.observation is not None and sim.config is not None
    payload = {
        "scale": sim.config.resolved_population().scale,
        "seed": sim.config.seed,
        "workers": 1,
        "executor": type(sim.campaign.executor).__name__,
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
        registry = artifact_registry(sim)
        names = args.artifact or list(ARTIFACT_NAMES)
        for name in names:
            print()
            print(registry[name]())

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
