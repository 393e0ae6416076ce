"""Per-stage execution counters.

The executor keeps one :class:`StageMetrics` per measurement stage
(the initial sweep, each longitudinal round, the final snapshot).  The
counters answer the operational questions a large-scale scan raises:
how many probes ran (including retries), how many were refused, how much
DNS evidence arrived, and how the stage's wall-clock cost compares to
the simulated time it covered.

This is the only record of a stage's counts and wall time: the
checkpoint persists it, the ``stage.end`` trace event and ``--progress``
read it, the report's stage table and ``--metrics-out``'s
``executor_stages`` render it, and the ledger takes its totals from it.
The open :class:`~repro.obs.metrics.MetricsRegistry` holds only what no
stage row records (per-probe outcomes, DNS queries per probe, retry
backoff), so a batch run's registry carries no wall-clock value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class StageMetrics:
    """Counters for one executed measurement stage."""

    stage: str
    tasks: int = 0
    #: detector invocations, including executor-level retries.
    probes_attempted: int = 0
    retried: int = 0
    refused: int = 0
    #: DNS queries observed at the measurement server for this stage.
    queries_observed: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0

    @property
    def probes_per_second(self) -> float:
        """Wall-clock probe throughput."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.probes_attempted / self.wall_seconds

    def to_dict(self) -> dict:
        """JSON-ready snapshot (``--metrics-out`` and benchmark files)."""
        return {
            "stage": self.stage,
            "tasks": self.tasks,
            "probes_attempted": self.probes_attempted,
            "retried": self.retried,
            "refused": self.refused,
            "queries_observed": self.queries_observed,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "probes_per_second": self.probes_per_second,
        }


@dataclass
class ExecutorMetrics:
    """All stages an executor has run, in order."""

    stages: List[StageMetrics] = field(default_factory=list)

    def begin_stage(self, stage: str) -> StageMetrics:
        metrics = StageMetrics(stage=stage)
        self.stages.append(metrics)
        return metrics

    def total(self) -> StageMetrics:
        """All stages aggregated."""
        total = StageMetrics(stage="total")
        for stage in self.stages:
            total.tasks += stage.tasks
            total.probes_attempted += stage.probes_attempted
            total.retried += stage.retried
            total.refused += stage.refused
            total.queries_observed += stage.queries_observed
            total.wall_seconds += stage.wall_seconds
            total.sim_seconds += stage.sim_seconds
        return total

    def to_dict(self) -> dict:
        """Per-stage snapshots plus the aggregate, JSON-ready."""
        return {
            "stages": [stage.to_dict() for stage in self.stages],
            "total": self.total().to_dict(),
        }

    def render_markdown(self) -> str:
        """A markdown table over every stage plus the aggregate row."""
        lines = [
            "| stage | tasks | probes | retried | refused | queries | sim s | wall s | probes/s |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for m in self.stages + ([self.total()] if self.stages else []):
            lines.append(
                f"| {m.stage} | {m.tasks} | {m.probes_attempted} | {m.retried} | "
                f"{m.refused} | {m.queries_observed} | {m.sim_seconds:.1f} | "
                f"{m.wall_seconds:.3f} | {m.probes_per_second:.0f} |"
            )
        return "\n".join(lines)
