"""Markdown experiment report: paper vs. measured, for every artifact.

``generate_report(sim)`` produces the document that EXPERIMENTS.md is
built from: a paper-target scorecard followed by every regenerated table
and figure, plus run provenance (scale, seed, population sizes).  Each
artifact is built once; the scorecard reads the same objects the
"Regenerated artifacts" section renders.
"""

from __future__ import annotations

import io
from typing import List

from ..simulation import Simulation
from . import ARTIFACTS, BuiltArtifacts
from .paper_targets import TargetResult, evaluate_targets, score_targets


def _scorecard(results: List[TargetResult]) -> str:
    lines = [
        "| paper claim | source | paper | measured | band | ok |",
        "|---|---|---|---|---|---|",
    ]
    for item in results:
        target = item.target
        measured = "-" if item.measured is None else f"{item.measured:.3f}"
        check = "yes" if item.within_band else "NO"
        lines.append(
            f"| {target.description} | {target.source} | "
            f"{target.paper_value:.3f} | {measured} | "
            f"[{target.band[0]:.2f}, {target.band[1]:.2f}] | {check} |"
        )
    return "\n".join(lines)


def generate_report(sim: Simulation, *, title: str = "SPFail reproduction report") -> str:
    """The full markdown report for one completed run."""
    result = sim.run()
    built = BuiltArtifacts(sim)
    out = io.StringIO()
    write = lambda *parts: print(*parts, file=out)

    write(f"# {title}")
    write()
    write(
        f"Run provenance: scale={sim.population.config.scale}, "
        f"seed={sim.population.config.seed}; "
        f"{len(sim.population):,} domains, {len(sim.fleet.units):,} hosting "
        f"units, {sim.fleet.total_ip_count():,} addresses; "
        f"{len(result.initial.ip_records):,} addresses probed, "
        f"{len(result.initial.vulnerable_ips()):,} vulnerable "
        f"({len(result.initial.vulnerable_domains()):,} domains); "
        f"{len(result.rounds)} longitudinal rounds."
    )
    provenance = getattr(sim, "provenance", None)
    if provenance is not None:
        write()
        write(
            f"Resumed from checkpoint: {provenance.checkpoint_kind!r} with "
            f"{provenance.rounds_completed} rounds completed "
            f"(run {provenance.run_id}, config "
            f"{provenance.config_hash[:12]}); campaign artifacts are "
            f"byte-identical to an uninterrupted run of the same config."
        )
    write()
    write("## Paper-target scorecard")
    write()
    write(_scorecard(score_targets(built)))
    write()
    write("## Probe-execution metrics")
    write()
    write(sim.campaign.executor.metrics.render_markdown())
    write()
    write("## Observability")
    write()
    if sim.observation is not None:
        obs = sim.observation
        trace_events = obs.tracer.event_count()
        write(
            f"Trace events captured: {trace_events:,} "
            f"(tracing {'enabled' if obs.tracer.enabled else 'disabled'})."
        )
        write()
        write(obs.metrics.render_markdown())
        percentiles = {
            name: summary
            for name, summary in obs.metrics.percentiles().items()
            if summary.get("count")
        }
        if percentiles:
            write()
            write("### Histogram percentiles")
            write()
            write("| histogram | count | p50 | p90 | p99 |")
            write("|---|---|---|---|---|")
            for name, summary in percentiles.items():
                write(
                    f"| {name} | {summary['count']} | {summary['p50']:.3g} "
                    f"| {summary['p90']:.3g} | {summary['p99']:.3g} |"
                )
        if obs.tracer.enabled and trace_events:
            from ..obs.analyze import TraceAnalysis

            trace_analysis = TraceAnalysis.from_tracer(obs.tracer)
            write()
            write("### Trace analysis")
            write()
            write(trace_analysis.render_stage_table())
            write()
            write(trace_analysis.render_span_table())
            write()
            write("Critical path (virtual time):")
            write()
            write(trace_analysis.render_critical_path())
    else:
        write(
            "Observability disabled for this run. Re-run with `--trace` / "
            "`--metrics-out` to capture virtual-time spans and metrics."
        )
    write()
    write("### World cache efficiency")
    write()
    write(
        "Deterministic access counters from the lazy world — a pure "
        "function of the probe pattern, so they are identical with or "
        "without `--perf` (wall-clock telemetry lives in the perf "
        "sideband, never here)."
    )
    write()
    from ..obs.perf import simulation_counters

    counters = simulation_counters(sim)
    write("| counter | value |")
    write("|---|---|")
    for name in sorted(counters):
        write(f"| {name} | {counters[name]:,} |")
    write()

    write("## Regenerated artifacts")
    write()
    for name, artifact in ARTIFACTS.items():
        write("```")
        write(artifact.render(built[name]))
        write("```")
        write()
    return out.getvalue()


def targets_all_within_band(sim: Simulation) -> bool:
    """True if every encoded paper claim lands in its tolerance band."""
    return all(item.within_band for item in evaluate_targets(sim))
