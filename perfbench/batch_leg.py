"""One leg of a batch workload, run in a fresh interpreter by ``run.py``.

    python3 perfbench/batch_leg.py MODE --workdir DIR [--wrappers]

Modes:

- ``setup``: import ``repro`` and ``api.open_run``, nothing more (a
  set-up sample);
- ``campaign``: ``api.open_run`` then ``RunHandle.run``, then the report
  and CSVs, as ``repro run --report --export-csv`` does;
- ``traced``: the same with program tracing on; the trace is written
  with ``Tracer.write_jsonl`` and the report includes ``TraceAnalysis``;
- ``interrupt``: a checkpointed run (``RunStore`` under the work dir)
  stopped by ``RunStore.abort_after_round`` after round 17;
- ``resume``: ``api.resume`` on that store, run to the end, then the
  report and CSVs.

The leg prints one JSON object as its last stdout line: monotonic
timestamps (comparable with the parent's clock: ``ready`` once the
world is built, ``handle_started`` when ``RunHandle.run`` is called),
wall times, the probe
count, a digest of the CSVs and the process's peak RSS.  With
``--wrappers`` it also installs the layer spans (``spans.py``), writes
them to ``<workdir>/spans-<mode>.jsonl`` and adds their sums.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

#: the scale and world seed of every committed baseline and CI smoke run.
SCALE = 0.02
WORLD_SEED = 20211011
#: the mid-campaign round after which checkpoint_resume is stopped.
ABORT_AFTER_ROUND = 17


def csv_digest(directory: str) -> str:
    """sha256 over every CSV file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "mode", choices=("setup", "campaign", "traced", "interrupt", "resume")
    )
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--wrappers", action="store_true")
    args = parser.parse_args(argv)
    mode = args.mode

    recorder = None
    if args.wrappers:
        import spans

        recorder = spans.install()
    span = recorder.span if recorder else (lambda name: contextlib.nullcontext())

    from repro import api
    from repro.errors import CampaignAborted

    tracing = mode == "traced"
    config = api.RunConfig(scale=SCALE, seed=WORLD_SEED, trace=tracing)
    store_dir = os.path.join(args.workdir, "store")
    out = {"mode": mode}
    restored = resumed = None

    if mode == "resume":
        from repro.obs.perf import simulation_counters
        from repro.store import RunStore

        out["ready"] = time.monotonic()
        store = RunStore(store_dir)
        with span("run"):
            started = time.monotonic()
            with span("store.resume"):
                handle = api.resume(store, config.content_hash())
            out["resume_s"] = time.monotonic() - started
            restored = handle.simulation.campaign.executor.metrics.total()
            resumed = simulation_counters(handle.simulation)
            out["handle_started"] = started = time.monotonic()
            handle.run(store=store)
            out["handle_run_s"] = time.monotonic() - started
            _emit_outputs(handle, args.workdir, span, out, trace=False)
        out["run_s"] = time.monotonic() - out["ready"]
    else:
        observation = None
        if tracing:
            from repro.obs import Observation

            observation = Observation(trace=True)
        handle = api.open_run(config, observation=observation)
        out["ready"] = time.monotonic()
        if mode == "setup":
            print(json.dumps(out))
            return 0
        store = None
        if mode == "interrupt":
            from repro.store import RunStore

            store = RunStore(store_dir)
            store.abort_after_round = ABORT_AFTER_ROUND
        with span("run"):
            out["handle_started"] = started = time.monotonic()
            try:
                handle.run(store=store)
                out["aborted"] = False
            except CampaignAborted:
                out["aborted"] = True
            out["handle_run_s"] = time.monotonic() - started
            if mode != "interrupt":
                _emit_outputs(handle, args.workdir, span, out, trace=tracing)
        out["run_s"] = time.monotonic() - out["ready"]

    sim = handle.simulation
    total = sim.campaign.executor.metrics.total()
    out["probes"] = total.probes_attempted
    out["stage_wall_s"] = total.wall_seconds - (restored.wall_seconds if restored else 0)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if mode in ("interrupt", "resume"):
        out["manifest_bytes"] = _manifest_bytes(store_dir)
    if recorder is not None:
        out["layers"] = _layer_sums(recorder, sim, total, restored, resumed)
        recorder.write_jsonl(os.path.join(args.workdir, f"spans-{mode}.jsonl"))
    print(json.dumps(out))
    return 0


def _emit_outputs(handle, workdir, span, out, *, trace) -> None:
    """Report, CSVs and (traced) the trace file, in the CLI's order."""
    from repro.analysis.export import export_all
    from repro.analysis.report import generate_report

    sim = handle.simulation
    with span("analysis.report"):
        text = generate_report(sim)
        with open(os.path.join(workdir, "report.md"), "w") as report:
            report.write(text)
    csv_dir = os.path.join(workdir, "csv")
    with span("analysis.csv"):
        export_all(sim, csv_dir)
    if trace:
        out["trace_events"] = sim.observation.tracer.write_jsonl(
            os.path.join(workdir, "trace.jsonl")
        )
    out["csv_digest"] = csv_digest(csv_dir)
    out["report_ok"] = (
        "## Paper-target scorecard" in text
        and "## Probe-execution metrics" in text
        and (not trace or "### Trace analysis" in text)
    )


def _manifest_bytes(store_dir) -> int:
    """Checkpoint bytes the store's manifest indexes."""
    for root, _, files in os.walk(store_dir):
        if "manifest.json" in files:
            with open(os.path.join(root, "manifest.json")) as handle:
                return sum(e["size"] for e in json.load(handle)["checkpoints"])
    return 0


def _layer_sums(recorder, sim, total, restored, resumed) -> dict:
    """Span sums plus the program's own counters, all additive.

    ``api.resume`` puts the interrupted leg's cumulative counters back
    (executor totals, connection and resolver counts) and materializes
    every server that leg touched again.  ``restored`` (the executor
    totals) and ``resumed`` (the other counters), both taken right after
    ``api.resume``, are taken off so the two legs add up to one run.
    """
    import spans
    from repro.obs.perf import simulation_counters

    sums = spans.summarize(recorder.spans)
    for key, value in recorder.outcomes.items():
        sums[f"count.{key}"] = value
    sums["count.exec_probes"] = total.probes_attempted
    sums["count.exec_retried"] = total.retried
    sums["count.exec_refused"] = total.refused
    if restored is not None:
        sums["count.exec_probes"] -= restored.probes_attempted
        sums["count.exec_retried"] -= restored.retried
        sums["count.exec_refused"] -= restored.refused
    for key, value in simulation_counters(sim).items():
        sums[f"counter.{key}"] = value - (resumed or {}).get(key, 0)
    if sim.observation is not None and sim.observation.tracer.enabled:
        sums["count.trace_events"] = sim.observation.tracer.event_count()
    return sums


if __name__ == "__main__":
    sys.exit(main())
