"""Live campaign progress: an operator-facing stderr reporter.

A four-month campaign compressed into a silent multi-minute process is
operationally opaque; this reporter gives the operator one updating line
per stage — tasks done/total, wall-clock probe throughput, retry and
refusal counts, and an ETA — exactly the view a real Internet-scale scan
console shows.

Wall clock is allowed here, deliberately: progress output is rendered to
*stderr* for a human and is never byte-compared, so the DESIGN.md ban on
wall-clock in **trace payloads** does not apply.  The reporter touches
neither the tracer nor the metrics registry; attaching it cannot change
any trace, report, or CSV byte (``tests/obs/test_progress.py`` asserts
the trace half of that).

Rendering is throttled by wall clock (default: at most one repaint per
0.2 s) so the reporter adds no measurable overhead at tens of thousands
of probes per second; the stage's final state is always rendered.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional, TextIO


def _format_eta(seconds: float) -> str:
    if seconds < 0:
        return "-"
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressReporter:
    """Throttled single-line stage progress, rendered to ``stream``.

    The executor drives it: :meth:`begin_stage` once per stage,
    :meth:`task_done` after every completed task (with the stage's
    live :class:`~repro.exec.metrics.StageMetrics`), and
    :meth:`end_stage` when the work list is drained.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        *,
        min_interval: float = 0.2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.clock = clock
        #: when set (the CLI sets it under ``--perf``) the line also
        #: shows live RSS (same stderr-only exemption as the rest of
        #: this module).
        self.show_rss = False
        self._stage: Optional[str] = None
        self._total = 0
        self._done = 0
        self._started = 0.0
        self._last_render = float("-inf")
        self._last_width = 0

    # -- executor lifecycle hooks ---------------------------------------------

    def begin_stage(self, stage: str, total_tasks: int) -> None:
        self._stage = stage
        self._total = total_tasks
        self._done = 0
        self._started = self.clock()
        self._last_render = float("-inf")
        self._render(retried=0, refused=0, probes=0, force=True)

    def task_done(self, metrics) -> None:
        """One task finished; ``metrics`` is the stage's live counters."""
        if self._stage is None:
            return
        self._done += 1
        self._render(
            retried=metrics.retried,
            refused=metrics.refused,
            probes=metrics.probes_attempted,
        )

    def end_stage(self, metrics) -> None:
        if self._stage is None:
            return
        # end_stage means the work list drained; the final frame says so
        # even when throttling swallowed the last task_done repaints.
        self._done = self._total
        self._render(
            retried=metrics.retried,
            refused=metrics.refused,
            probes=metrics.probes_attempted,
            force=True,
        )
        self.stream.write("\n")
        self.stream.flush()
        self._stage = None
        self._last_width = 0

    # -- rendering -------------------------------------------------------------

    def _render(
        self, *, retried: int, refused: int, probes: int, force: bool = False
    ) -> None:
        now = self.clock()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        elapsed = max(now - self._started, 1e-9)
        rate = probes / elapsed
        task_rate = self._done / elapsed
        if self._done >= self._total:
            eta = "done"
        elif task_rate > 0:
            eta = _format_eta((self._total - self._done) / task_rate)
        else:
            eta = "-"
        percent = 100.0 * self._done / self._total if self._total else 100.0
        line = (
            f"stage {self._stage}: {self._done}/{self._total} tasks "
            f"({percent:.0f}%) | {rate:,.0f} probes/s | "
            f"{retried} retried, {refused} refused | ETA {eta}"
        )
        if self.show_rss:
            from .perf import rss_kb

            line += f" | rss {rss_kb() / 1024:,.0f}MB"
        padding = " " * max(0, self._last_width - len(line))
        self._last_width = len(line)
        self.stream.write("\r" + line + padding)
        self.stream.flush()
