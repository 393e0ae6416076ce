"""Wall-clock performance telemetry: the sideband profiler.

Everything else in :mod:`repro.obs` stamps *virtual* time — wall clocks
are banned from trace payloads because they would differ between runs,
breaking the byte-identical canonical export.  This module is the
explicit, structural exception: a :class:`PerfRecorder` observes the
same span/task/stage boundaries the tracer emits, but writes
``perf_counter`` wall timings into *separate* sideband files that no
deterministic artifact ever reads or embeds.

The design makes perturbation impossible rather than merely avoided:

- the recorder is a write-only **sink** hung off :class:`~.trace.Tracer`
  (``tracer.sink``); it receives span ids and never returns a value the
  tracer could incorporate into an event;
- records go to files of their own in the ``--perf`` directory,
  appended with raw ``os.write`` calls so no Python-level stream buffer
  can hold records back or flush them twice;
- the join back to the deterministic world happens offline: each span
  record carries the tracer's span id (``s<stage>.t<task>#<n>``), which
  matches the ``span`` field of the canonical trace 1:1, so ``trace
  profile`` can attribute wall seconds to virtual spans after the fact.

The files
---------

The run's one process writes both, and starts no thread to do so:

- ``perf.jsonl``: one record per closed span, task and stage, buffered
  in memory and appended at every stage boundary (and whenever the
  buffer fills);
- ``perf_meta.json``: written once by :meth:`PerfRecorder.finalize`,
  the end-of-run reading — peak RSS (``getrusage``), final RSS, the
  collector's statistics, and the lazy world's counters
  (:func:`simulation_counters`: row draws, unit/server materializations,
  DNS cache hits).  Reading counters cannot disturb them: they are plain
  integers the world increments whether or not perf is enabled, which
  is also what lets the report print them deterministically.

The performance ledger never reads this directory: its per-stage rows
come from the executor's :class:`~repro.exec.metrics.StageMetrics`, the
one record of stage wall time, in every mode.
"""

from __future__ import annotations

import gc as _gc
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from .analyze import add_folded

__all__ = [
    "PerfRecorder",
    "PerfProfile",
    "SPAN_STREAM",
    "simulation_counters",
    "load_perf_dir",
    "rss_kb",
]

#: File names inside a ``--perf`` directory.
SPAN_STREAM = "perf.jsonl"
META_FILE = "perf_meta.json"

#: Span records buffered in memory before an ``os.write`` flush.
_FLUSH_LINES = 50_000


def _peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 when unknown)."""
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (ImportError, OSError):  # no ``resource`` module off Unix
        return 0


def rss_kb() -> int:
    """Resident set size of this process in KiB (the peak when the
    current size is unreadable, 0 when both are)."""
    try:
        with open("/proc/self/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return _peak_rss_kb()


def _gc_stats() -> Dict[str, object]:
    stats = _gc.get_stats()
    return {
        "counts": list(_gc.get_count()),
        "collections": sum(int(s.get("collections", 0)) for s in stats),
        "collected": sum(int(s.get("collected", 0)) for s in stats),
        "uncollectable": sum(int(s.get("uncollectable", 0)) for s in stats),
    }


class PerfRecorder:
    """The run's wall-clock sideband writer.

    Acts as the tracer's ``sink``: :meth:`enter` / :meth:`exit` bracket a
    span, task or stage by its tracer-assigned id and append one JSON
    record per closed pair.  All writes go to the sideband's own files,
    never near a deterministic artifact.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.record_count = 0
        os.makedirs(directory, exist_ok=True)
        self._span_path = os.path.join(directory, SPAN_STREAM)
        # A rerun into the same directory must not append to a stale stream.
        try:
            os.remove(self._span_path)
        except OSError:
            pass
        self._epoch = time.perf_counter()
        self._open: Dict[str, Tuple[float, str, str, Optional[str]]] = {}
        self._buf: List[str] = []
        self._esc_cache: Dict[Optional[str], str] = {None: "null"}

    # -- tracer sink protocol -------------------------------------------------

    def enter(self, sid: str, kind: str, name: str, probe: Optional[str]) -> None:
        """A span/task/stage with tracer id ``sid`` just began."""
        self._open[sid] = (time.perf_counter(), kind, name, probe)

    def exit(self, sid: str) -> None:
        """The pending entry for ``sid`` just ended; record its wall time."""
        entry = self._open.pop(sid, None)
        if entry is None:
            return
        ended = time.perf_counter()
        t0, kind, name, probe = entry
        cache = self._esc_cache
        escaped_name = cache.get(name)
        if escaped_name is None:
            escaped_name = cache[name] = json.dumps(name)
        escaped_probe = cache.get(probe)
        if escaped_probe is None:
            escaped_probe = cache[probe] = json.dumps(probe)
        # Keys in sorted order, matching json.dumps(sort_keys=True).  The
        # sid is tracer-generated ([a-z0-9.#] only) and embeds raw.
        self._buf.append(
            f'{{"kind":"{kind}","name":{escaped_name},"probe":{escaped_probe},'
            f'"sid":"{sid}","t0":{t0 - self._epoch:.6f},"wall":{ended - t0:.9f}}}\n'
        )
        self.record_count += 1
        if len(self._buf) >= _FLUSH_LINES:
            self.flush()

    def discard(self, sid: str) -> None:
        """Abandon a pending entry (task dropped on exception unwind)."""
        self._open.pop(sid, None)

    # -- file plumbing --------------------------------------------------------

    def flush(self) -> None:
        """Append buffered span records to ``perf.jsonl``.

        The executor calls this at every stage boundary, so a run's span
        records are on disk stage by stage.
        """
        if not self._buf:
            return
        text, self._buf = "".join(self._buf), []
        fd = os.open(self._span_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, text.encode("utf-8"))
        finally:
            os.close(fd)

    # -- finish ---------------------------------------------------------------

    def finalize(self, counters: Dict[str, int]) -> Dict[str, object]:
        """Write out buffered records and the end-of-run reading.

        The reading is taken once, here: peak and final RSS, the
        collector's statistics, and ``counters`` (the caller's
        :func:`simulation_counters` snapshot of the finished run).
        """
        self.flush()
        meta = {
            "python": sys.version.split()[0],
            "records": self.record_count,
            "rss_peak_kb": _peak_rss_kb(),
            "rss_last_kb": rss_kb(),
            "gc": _gc_stats(),
            "counters": dict(counters),
        }
        # No ``indent``: it selects json's pure-Python encoder, whose
        # closures leave a reference cycle behind on every call.
        with open(os.path.join(self.directory, META_FILE), "w") as handle:
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
        return dict(meta, directory=self.directory)


# -- counter surface ----------------------------------------------------------


def simulation_counters(sim) -> Dict[str, int]:
    """Read-only counter snapshot of one simulation's (lazy) world.

    Duck-typed over the ``perf_counters()`` methods of the campaign's
    population, fleet, resolver and network.
    """
    campaign = sim.campaign
    counters: Dict[str, int] = {}
    for source in (
        getattr(campaign, "population", None),
        getattr(campaign, "fleet", None),
        getattr(campaign, "resolver", None),
        getattr(campaign, "network", None),
    ):
        exporter = getattr(source, "perf_counters", None)
        if exporter is not None:
            counters.update(exporter())
    return counters


# -- consumption: load + join ------------------------------------------------


def load_perf_dir(directory: str) -> Tuple[list, dict]:
    """``(PerfRecord list, end-of-run reading)`` from a ``--perf`` directory.

    The reading is ``{}`` when ``perf_meta.json`` is missing (a run
    that never finalized).
    """
    from .records import TraceFormatError, parse_perf_jsonl

    span_path = os.path.join(directory, SPAN_STREAM)
    records = []
    if os.path.exists(span_path):
        with open(span_path, "r") as handle:
            records = parse_perf_jsonl(handle.read())
    meta_path = os.path.join(directory, META_FILE)
    meta: dict = {}
    if os.path.exists(meta_path):
        with open(meta_path, "r") as handle:
            try:
                meta = json.load(handle)
            except ValueError as exc:
                raise TraceFormatError(
                    f"{meta_path}: not valid JSON: {exc}"
                ) from exc
    return records, meta


def _fmt_seconds(value: float) -> str:
    return f"{value:.3f}"


def _pct(part: float, whole: float) -> str:
    if whole <= 0:
        return "—"
    return f"{100.0 * part / whole:.1f}%"


def _rate(hits: int, total: int) -> str:
    if total <= 0:
        return "—"
    return f"{100.0 * hits / total:.1f}%"


# Post-order span-tree walks, kept at module level for the reason given
# beside ``analyze.add_folded``: a self-calling closure is a reference
# cycle.  Each returns the node's wall seconds (its children's sum when
# the node has no wall record).


def _aggregate_span_wall(
    node, span_wall: Dict[str, float], agg: Dict[str, dict]
) -> float:
    child_wall = 0.0
    for child in node.children:
        child_wall += _aggregate_span_wall(child, span_wall, agg)
    wall = span_wall.get(node.sid)
    if wall is None:
        return child_wall
    row = agg.setdefault(
        node.name,
        {"name": node.name, "count": 0, "wall": 0.0, "self_wall": 0.0,
         "virtual_self": 0.0},
    )
    row["count"] += 1
    row["wall"] += wall
    row["self_wall"] += max(0.0, wall - child_wall)
    row["virtual_self"] += node.self_seconds
    return wall


def _fold_wall(
    weights: Dict[str, int], span_wall: Dict[str, float], prefix: str, node
) -> float:
    path = f"{prefix};{node.name}"
    child_wall = 0.0
    for child in node.children:
        child_wall += _fold_wall(weights, span_wall, path, child)
    wall = span_wall.get(node.sid)
    if wall is None:
        return child_wall
    add_folded(weights, path, max(0.0, wall - child_wall))
    return wall


class PerfProfile:
    """The wall-clock profile: perf sideband joined to the span trees.

    Joins each perf record back to the canonical trace by span id and
    answers the question the virtual-time analysis cannot: where do the
    *real* seconds go ("stage X is 2% of virtual time but 41% of wall
    time"), which span types are wall-hot, and how well the lazy world's
    caches performed.
    """

    def __init__(self, analysis, records: list, meta: dict) -> None:
        self.analysis = analysis
        self.records = records
        #: the end-of-run reading (``perf_meta.json``).
        self.meta = meta
        self.span_wall: Dict[str, float] = {}
        self.task_wall: Dict[str, float] = {}
        #: stage ordinal -> wall seconds (covers stage bookkeeping, not
        #: just probe work).
        self.stage_wall: Dict[int, float] = {}
        for record in records:
            if record.kind == "span":
                self.span_wall[record.sid] = (
                    self.span_wall.get(record.sid, 0.0) + record.wall
                )
            elif record.kind == "task":
                self.task_wall[record.sid] = record.wall
            elif record.kind == "stage" and record.sid.startswith("s"):
                try:
                    ordinal = int(record.sid[1:])
                except ValueError:
                    continue
                self.stage_wall[ordinal] = record.wall

    @classmethod
    def load(cls, trace_path: str, perf_dir: str) -> "PerfProfile":
        from .analyze import TraceAnalysis

        records, meta = load_perf_dir(perf_dir)
        return cls(TraceAnalysis.from_file(trace_path), records, meta)

    # -- attribution ----------------------------------------------------------

    def stage_rows(self) -> List[dict]:
        """Wall-vs-virtual attribution rows, one per stage.

        Floats are pre-rounded (µs precision) so the rows are JSON-stable
        in ``trace profile --json``.
        """
        total_virtual = sum(s.seconds for s in self.analysis.stages)
        total_wall = sum(self.stage_wall.values())
        rows = []
        for stage in self.analysis.stages:
            wall = self.stage_wall.get(stage.ordinal, 0.0)
            rows.append(
                {
                    "ordinal": stage.ordinal,
                    "name": stage.name,
                    "probes": stage.probes,
                    "virtual": round(stage.seconds, 6),
                    "virtual_share": _pct(stage.seconds, total_virtual),
                    "wall": round(wall, 6),
                    "wall_share": _pct(wall, total_wall),
                    "wall_per_probe_us": round(
                        1e6 * wall / stage.probes if stage.probes else 0.0, 3
                    ),
                }
            )
        return rows

    def span_profile(self) -> List[dict]:
        """Per-span-name wall aggregate (self time excludes child spans)."""
        agg: Dict[str, dict] = {}
        for task in self.analysis.tasks:
            for root in task.spans:
                _aggregate_span_wall(root, self.span_wall, agg)
        return sorted(agg.values(), key=lambda r: (-r["self_wall"], r["name"]))

    # -- the end-of-run reading ----------------------------------------------

    def resources(self) -> Optional[dict]:
        """Peak and final RSS and GC collections (``None`` when the run
        recorded no reading)."""
        meta = self.meta
        if "rss_peak_kb" not in meta:
            return None
        return {
            "rss_peak_kb": int(meta["rss_peak_kb"]),
            "rss_last_kb": int(meta.get("rss_last_kb", 0)),
            "gc_collections": int((meta.get("gc") or {}).get("collections", 0)),
        }

    def final_counters(self) -> Dict[str, int]:
        """The end-of-run counter snapshot (empty when none was taken)."""
        counters = self.meta.get("counters") or {}
        return {key: int(value) for key, value in counters.items()}

    # -- folded wall stacks ---------------------------------------------------

    def folded_wall_stacks(self) -> str:
        """Flamegraph input weighted by *wall* self-time microseconds.

        Same ``campaign;<stage>;<probe>;<span...>`` paths as
        :meth:`~.analyze.TraceAnalysis.folded_stacks`, so the two graphs
        line up frame-for-frame; only the sample weights differ.
        """
        weights: Dict[str, int] = {}
        stage_task_wall: Dict[int, float] = {}
        for task in self.analysis.tasks:
            stage = (
                self.analysis._stages_by_ordinal.get(task.stage_ordinal)
                if task.stage_ordinal is not None
                else None
            )
            stage_label = stage.name if stage is not None else "(no stage)"
            base = f"campaign;{stage_label};{task.probe or task.scope}"
            span_wall = 0.0
            for root in task.spans:
                span_wall += _fold_wall(weights, self.span_wall, base, root)
            wall = self.task_wall.get(task.scope)
            if wall is not None:
                add_folded(weights, base, max(0.0, wall - span_wall))
                if task.stage_ordinal is not None:
                    stage_task_wall[task.stage_ordinal] = (
                        stage_task_wall.get(task.stage_ordinal, 0.0) + wall
                    )
        # Stage overhead not inside any task: scheduling and bookkeeping.
        for ordinal, wall in self.stage_wall.items():
            stage = self.analysis._stages_by_ordinal.get(ordinal)
            label = stage.name if stage is not None else f"s{ordinal}"
            add_folded(
                weights,
                f"campaign;{label}",
                max(0.0, wall - stage_task_wall.get(ordinal, 0.0)),
            )
        return "\n".join(f"{path} {weights[path]}" for path in sorted(weights))

    # -- machine-readable export ----------------------------------------------

    def to_dict(self, *, top_spans: int = 15) -> dict:
        """The ``trace profile --json`` payload."""
        total_wall = sum(self.stage_wall.values())
        total_virtual = sum(s.seconds for s in self.analysis.stages)
        counters = self.final_counters()
        return {
            "records": len(self.records),
            "stage_wall_seconds": total_wall,
            "virtual_seconds": total_virtual,
            "stages": self.stage_rows(),
            "spans": self.span_profile()[:top_spans],
            "counters": {key: counters[key] for key in sorted(counters)},
            "resources": self.resources(),
        }

    # -- rendering ------------------------------------------------------------

    def render_stage_table(self) -> str:
        lines = [
            "| # | stage | probes | virtual s | virtual % | wall s | wall % "
            "| wall µs/probe |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for row in self.stage_rows():
            lines.append(
                f"| {row['ordinal']} | {row['name']} | {row['probes']} "
                f"| {row['virtual']:.1f} | {row['virtual_share']} "
                f"| {_fmt_seconds(row['wall'])} | {row['wall_share']} "
                f"| {row['wall_per_probe_us']:.0f} |"
            )
        return "\n".join(lines)

    def render_span_table(self, top: int = 15) -> str:
        lines = [
            "| span | count | wall s | wall self s | mean µs | virtual self s |",
            "|---|---|---|---|---|---|",
        ]
        for row in self.span_profile()[:top]:
            mean_us = 1e6 * row["wall"] / row["count"] if row["count"] else 0.0
            lines.append(
                f"| {row['name']} | {row['count']} "
                f"| {_fmt_seconds(row['wall'])} "
                f"| {_fmt_seconds(row['self_wall'])} | {mean_us:.0f} "
                f"| {row['virtual_self']:.1f} |"
            )
        return "\n".join(lines)

    def render_cache_table(self) -> str:
        totals = self.final_counters()
        if not totals:
            return "(no end-of-run counters recorded)"
        lines = ["| counter | total |", "|---|---|"]
        for key in sorted(totals):
            lines.append(f"| {key} | {totals[key]:,} |")
        derived = [
            ("fleet layout hit rate", "fleet.layout_hits", "fleet.layout_misses"),
            ("dns resolver hit rate", "dns.resolver.cache_hits",
             "dns.resolver.queries"),
        ]
        extras = []
        for label, hit_key, other_key in derived:
            hits = totals.get(hit_key, 0)
            if other_key == "dns.resolver.queries":
                total = totals.get(other_key, 0)
            else:
                total = hits + totals.get(other_key, 0)
            if total:
                extras.append(f"- {label}: {_rate(hits, total)}")
        if extras:
            lines.append("")
            lines.extend(extras)
        return "\n".join(lines)

    def render_resource_table(self) -> str:
        row = self.resources()
        if row is None:
            return "(no end-of-run reading recorded)"
        return "\n".join(
            [
                "| peak RSS MB | final RSS MB | gc collections |",
                "|---|---|---|",
                f"| {row['rss_peak_kb'] / 1024.0:.1f} "
                f"| {row['rss_last_kb'] / 1024.0:.1f} "
                f"| {row['gc_collections']} |",
            ]
        )

    def render_markdown(self, *, top_spans: int = 15) -> str:
        """The ``trace profile`` document."""
        total_wall = sum(self.stage_wall.values())
        total_virtual = sum(s.seconds for s in self.analysis.stages)
        parts = [
            "# Wall-clock profile",
            "",
            f"- perf records: {len(self.records):,} spans/tasks/stages",
            f"- stage wall time: {total_wall:.2f} s for "
            f"{total_virtual:,.0f} virtual s "
            f"({total_virtual / total_wall:,.0f}x real-time)"
            if total_wall > 0
            else f"- stage wall time: (no stage records)",
            "",
            "## Wall vs virtual attribution by stage",
            "",
            self.render_stage_table(),
            "",
            f"## Hottest span types (wall self-time, top {top_spans})",
            "",
            self.render_span_table(top=top_spans),
            "",
            "## Cache efficiency (end-of-run counters)",
            "",
            self.render_cache_table(),
            "",
            "## Resource usage",
            "",
            self.render_resource_table(),
            "",
        ]
        return "\n".join(parts)
