"""The probe executor.

:class:`ProbeExecutor` runs every :class:`~repro.exec.task.ProbeTask`
of a stage one at a time: task ``k`` starts at
``stage_base + k * SECONDS_PER_PROBE`` of simulated time, and the
*shared* clock (which fires scheduled events: patches, MX migrations,
blacklist flips) advances to the end of each task's slot before the next
task runs, the way the one-at-a-time paper tool experienced time.

In-task waits (greylist backoff, ethics pacing) advance only the task's
own :class:`~repro.exec.virtualclock.VirtualClock`, and each task draws
its id labels from a block reserved by its position in the work list.
Every virtual-time stamp, label and trace key is therefore a pure
function of the work list, which is what keeps traces, CSVs and resumed
runs byte-identical for the same seed.  Like the paper's tool, the
executor does not retry: a dialogue that broke is SMTP-Failed for the
stage.

The executor owns its probe context — the task clock, the SMTP client
and the detector — and builds it once, so a stage (one per serve probe)
costs no set-up of its own.
"""

from __future__ import annotations

import datetime as _dt
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..clock import SimulatedClock
from ..obs import context as _obs
from ..obs.progress import ProgressReporter
from ..core.detector import (
    DetectionOutcome,
    DetectionResult,
    VulnerabilityDetector,
)
from ..core.ethics import EthicsControls
from ..core.labels import LabelAllocator
from ..dns.server import SpfTestResponder
from ..smtp.client import PROBE_CLIENT_IP, SmtpClient
from ..smtp.transport import Network
from .metrics import ExecutorMetrics, StageMetrics
from .task import ProbeTask
from .virtualclock import ClockRouter, VirtualClock

#: Simulated seconds of the shared clock each probe's timeslot spans.
SECONDS_PER_PROBE = 0.25
#: Id labels reserved per task: one ``detect()`` drives at most two
#: probe methods, each with its own label.
_LABEL_STRIDE = 2


@dataclass
class ExecutionEnvironment:
    """Everything an executor needs from its host (campaign or scanner).

    ``router`` must be the clock the host's network, resolvers and query
    log read: while a task runs it answers with the task's
    :class:`VirtualClock`, between tasks with the shared clock
    (:attr:`clock`, ``router.shared``).
    """

    router: ClockRouter
    network: Network
    responder: SpfTestResponder
    labels: LabelAllocator
    ethics: EthicsControls
    client_ip: str = PROBE_CLIENT_IP

    @property
    def clock(self) -> SimulatedClock:
        """The shared clock, which fires scheduled events between tasks."""
        return self.router.shared


class ProbeExecutor:
    """Runs a stage's tasks one at a time, advancing the shared clock after each."""

    def __init__(self, env: ExecutionEnvironment) -> None:
        self.env = env
        self.metrics = ExecutorMetrics()
        #: optional live stderr reporter (``--progress``); operator-facing
        #: only — it never writes into the trace or the metrics registry.
        self.progress: Optional[ProgressReporter] = None
        #: the running task's clock: the task's waits advance it, never
        #: the shared clock.
        self._vclock = vclock = VirtualClock(env.clock.now)
        self.detector = VulnerabilityDetector(
            SmtpClient(env.network, client_ip=env.client_ip),
            env.responder,
            env.labels,
            ethics=env.ethics,
            wait=vclock.advance_seconds,
            # Reads the clock, not ``self``: the detector is held by this
            # executor, so a closure over ``self`` would be a cycle.
            now=lambda: vclock.now,
        )

    # -- public API -----------------------------------------------------------

    def run_stage(
        self, stage: str, tasks: Sequence[ProbeTask]
    ) -> List[DetectionResult]:
        """Execute one stage's work list; results align with ``tasks``."""
        clock = self.env.clock
        metrics = self.metrics.begin_stage(stage)
        metrics.tasks = len(tasks)
        obs = self._begin_stage_obs(stage, tasks)
        started = time.perf_counter()
        base = clock.now
        slot = _dt.timedelta(seconds=SECONDS_PER_PROBE)
        results: List[DetectionResult] = []
        for index, task in enumerate(tasks):
            results.append(self._execute(task, index, base + index * slot, metrics))
            # Fire any events due inside this probe's timeslot before the
            # next probe runs — the serial tool's view of time.
            clock.advance_to(max(clock.now, base + (index + 1) * slot))
        metrics.wall_seconds = time.perf_counter() - started
        metrics.sim_seconds = (clock.now - base).total_seconds()
        self._end_stage_obs(obs, metrics)
        return results

    # -- per-stage and per-task machinery ---------------------------------------

    def _begin_stage_obs(self, stage: str, tasks: Sequence[ProbeTask]):
        """Open a trace stage scope; returns the active observation."""
        if self.progress is not None:
            self.progress.begin_stage(stage, len(tasks))
        obs = _obs.ACTIVE
        if obs is not None and obs.tracer.enabled:
            obs.tracer.begin_stage(stage, tasks=len(tasks))
        return obs

    def _end_stage_obs(self, obs, metrics: StageMetrics) -> None:
        """Close the stage scope.

        Trace attributes are limited to simulation-derived values (task
        and probe counts, simulated seconds): wall time differs between
        any two runs and is banned from the trace — it stays in the
        stage's :class:`StageMetrics` only.
        """
        if self.progress is not None:
            self.progress.end_stage(metrics)
        if obs is None:
            return
        if obs.tracer.enabled:
            obs.tracer.end_stage(
                probes=metrics.probes_attempted,
                retried=metrics.retried,
                refused=metrics.refused,
                queries=metrics.queries_observed,
                sim_seconds=metrics.sim_seconds,
            )
        # Sideband only: push buffered wall-timing records to disk at
        # stage boundaries (after the stage's wall_seconds is captured, so
        # the flush itself is not charged to the stage).
        perf = getattr(obs, "perf", None)
        if perf is not None:
            perf.flush()

    def _execute(
        self,
        task: ProbeTask,
        index: int,
        virtual_start: _dt.datetime,
        metrics: StageMetrics,
    ) -> DetectionResult:
        env = self.env
        env.labels.reserve_block(
            task.suite, index * _LABEL_STRIDE, _LABEL_STRIDE
        )
        obs = _obs.ACTIVE
        tracing = obs is not None and obs.tracer.enabled
        if tracing:
            obs.tracer.begin_task(
                index,
                f"{task.suite}/{task.ip}",
                vt=virtual_start,
                ip=task.ip,
                suite=task.suite,
                preferred_method=(
                    task.preferred_method.value if task.preferred_method else None
                ),
            )
        self._vclock.reset(virtual_start)
        env.router.push(self._vclock)
        try:
            result = self.detector.detect(
                task.ip,
                task.suite,
                preferred_method=task.preferred_method,
                recipient_domain=task.recipient_domain,
            )
            metrics.probes_attempted += 1
            metrics.queries_observed += result.queries_observed
            if result.outcome == DetectionOutcome.REFUSED:
                metrics.refused += 1
            if obs is not None:
                # Still inside the task's virtual timeslot: stamp the end
                # event with the task clock, not the shared one.
                self._observe_task(obs, tracing, result, self._vclock.now)
            if self.progress is not None:
                self.progress.task_done(metrics)
            return result
        except BaseException:
            if tracing:
                obs.tracer.drop_task()
            raise
        finally:
            env.labels.release_block()
            env.router.pop()

    def _observe_task(self, obs, tracing: bool, result, end_vt: _dt.datetime) -> None:
        """Per-task metrics and the ``task.end`` trace event."""
        obs.metrics.counter("exec.outcomes").inc(result.outcome.value)
        obs.metrics.histogram("dns.queries_per_probe").observe(result.queries_observed)
        if tracing:
            obs.tracer.end_task(
                vt=end_vt,
                outcome=result.outcome.value,
                queries=result.queries_observed,
                method=(
                    result.successful_method.value
                    if result.successful_method is not None
                    else None
                ),
                behaviors=sorted(b.value for b in result.behaviors),
            )
