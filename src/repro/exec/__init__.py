"""The probe-execution engine.

The paper's measurement tool probed ~180K MTA addresses per round; this
package decouples **what to probe** (a work list of :class:`ProbeTask`)
from **how probes run** (:class:`ProbeExecutor`), so the campaign, the
scanner, and the serve daemon share one engine.

The executor is the faithful one-at-a-time tool: the shared
simulated clock advances after every probe, firing scheduled events
(patches, MX moves) exactly where the paper's serial tool would have
observed them.  Task ``k`` of a stage starts at
``stage_base + k * SECONDS_PER_PROBE``, and in-task waits (greylist
backoff, ethics pacing) advance only that task's :class:`VirtualClock`,
so every stamp and label is a pure function of the work list.
"""

from .engine import SECONDS_PER_PROBE, ExecutionEnvironment, ProbeExecutor
from .metrics import ExecutorMetrics, StageMetrics
from .task import ProbeTask
from .virtualclock import ClockRouter, VirtualClock

__all__ = [
    "ClockRouter",
    "ExecutionEnvironment",
    "ExecutorMetrics",
    "ProbeExecutor",
    "ProbeTask",
    "SECONDS_PER_PROBE",
    "StageMetrics",
    "VirtualClock",
]
