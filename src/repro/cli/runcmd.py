"""``repro run`` / ``repro resume``: the batch campaign commands.

Both commands go through the public facade in :mod:`repro.api` —
``api.open_run`` / ``api.resume`` — rather than constructing
:class:`Simulation` directly, so the CLI exercises exactly the surface
embedded callers and the serve daemon use.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..analysis import ARTIFACT_NAMES
from ..obs import Observation, attach_trace_handler, configure_logging
from .artifacts import emit_outputs


def make_observation(
    args: argparse.Namespace, *, trace: bool
) -> Optional[Observation]:
    perf_dir = getattr(args, "perf", None)
    observation = None
    if trace or args.metrics_out or args.log_level or perf_dir:
        observation = Observation(trace=trace)
    if perf_dir:
        from ..obs.perf import PerfRecorder

        # Span wall-timing rides the tracer's sink hooks, so callers
        # force trace=True whenever --perf is given.
        observation.attach_perf(PerfRecorder(perf_dir))
    if args.log_level:
        configure_logging(args.log_level)
        if observation is not None and observation.tracer.enabled:
            attach_trace_handler(observation.tracer)
    return observation


def finalize_perf(observation: Optional[Observation]) -> None:
    """Finish the perf streams and print a one-line summary."""
    if observation is None or observation.perf is None:
        return
    summary = observation.perf.finalize()
    print(
        f"perf: {summary['records']:,} span records, "
        f"{summary['samples']:,} samples written to {summary['directory']}"
    )


def append_ledger(
    sim,
    args: argparse.Namespace,
    *,
    store,
    wall_seconds: float,
    kind: str,
) -> None:
    """Append one performance-ledger record for a completed run.

    Targets: the RunStore run directory's ``ledger.jsonl`` (when the run
    was checkpointed) and the shared ``--ledger`` file (when given).
    Appending happens strictly *after* every deterministic artifact and
    the perf streams are on disk — the ledger reads the run, never the
    other way around, so trace/CSV/report bytes are identical with the
    ledger on or off.
    """
    paths = []
    if store is not None and sim.config is not None:
        paths.append(store.ledger_path(sim.config))
    shared = getattr(args, "ledger", None)
    if shared:
        paths.append(shared)
    if not paths:
        return
    from ..obs.ledger import append_record, build_record

    record = build_record(
        sim,
        kind=kind,
        wall_seconds=wall_seconds,
        perf_dir=getattr(args, "perf", None),
    )
    for path in paths:
        append_record(path, record)
    print(f"ledger: record appended to {', '.join(paths)}")


def finish_run(
    handle, args: argparse.Namespace, observation, store, *, kind: str
) -> int:
    """Run ``handle`` to the end of its timeline and write everything after.

    The tail ``run`` and ``resume`` share: start the perf sampler, attach
    the ``--progress`` reporter, time ``handle.run``, emit the outputs,
    finalize the perf streams and append the ledger record.  ``kind``
    (``"run"`` or ``"resume"``) prefixes an abort or failure message and
    labels the ledger record.
    """
    from time import perf_counter

    from ..errors import CampaignAborted
    from ..store import StoreError

    sim = handle.simulation
    if observation is not None and observation.perf is not None:
        from ..obs.perf import simulation_counters

        observation.perf.start_sampler(lambda: simulation_counters(sim))
    if args.progress:
        from ..obs.progress import ProgressReporter

        reporter = ProgressReporter()
        if observation is not None:
            reporter.perf = observation.perf
        sim.campaign.executor.progress = reporter
    try:
        started = perf_counter()
        try:
            handle.run(store=store)
        except CampaignAborted as abort:
            print(f"{kind} aborted: {abort}")
            return 0
        except StoreError as error:
            # Most commonly: another writer (a batch run or a serve
            # daemon) holds the run's single-writer lock.
            print(f"{kind} failed: {error}", file=sys.stderr)
            return 2
        run_wall = perf_counter() - started
        code = emit_outputs(sim, args)
    finally:
        finalize_perf(observation)
    # The ledger record is built after the perf streams are finalized so
    # a profiled run's record can embed the per-stage wall attribution.
    append_ledger(sim, args, store=store, wall_seconds=run_wall, kind=kind)
    return code


def run_command(args: argparse.Namespace) -> int:
    if args.list:
        print("\n".join(ARTIFACT_NAMES))
        return 0

    store_dir = getattr(args, "store", None)
    abort_after_round = getattr(args, "abort_after_round", None)
    # Rejected before anything is built: opening the perf sideband would
    # already clear a previous run's streams.
    if abort_after_round is not None and not store_dir:
        print("--abort-after-round requires --store", file=sys.stderr)
        return 2

    from .. import api

    trace = bool(args.trace) or bool(getattr(args, "perf", None))
    observation = make_observation(args, trace=trace)
    config = api.RunConfig(scale=args.scale, seed=args.seed, trace=trace)
    print(f"Building the synthetic Internet (scale={args.scale}, seed={args.seed})...")
    handle = api.open_run(config, observation=observation)
    sim = handle.simulation

    store = None
    if store_dir:
        from ..store import RunStore

        store = RunStore(store_dir)
        store.abort_after_round = abort_after_round
    print(
        f"  {len(sim.population):,} domains / {sim.fleet.total_ip_count():,} addresses; "
        "running the four-month campaign..."
    )
    return finish_run(handle, args, observation, store, kind="run")


def resume_command(args: argparse.Namespace) -> int:
    from .. import api
    from ..store import RunStore, StoreError

    store = RunStore(args.store)
    expected = None
    if hasattr(args, "resume_scale") or hasattr(args, "resume_seed"):
        expected = api.RunConfig(
            scale=getattr(args, "resume_scale", 0.01),
            seed=getattr(args, "resume_seed", 20211011),
        )
    try:
        state = store.load_latest(
            config_hash=expected.content_hash() if expected is not None else None
        )
    except StoreError as error:
        print(f"resume failed: {error}", file=sys.stderr)
        return 2

    perf_dir = getattr(args, "perf", None)
    trace = state.config.trace or bool(args.trace) or bool(perf_dir)
    if args.trace and not state.config.trace:
        print(
            "warning: the stored run was not traced; the resumed trace "
            "will miss the checkpointed prefix",
            file=sys.stderr,
        )
    # Whether the resumed leg is profiled is this invocation's choice:
    # the sideband hangs off the observation, not the stored config.
    observation = make_observation(args, trace=trace)
    handle = api.resume(state, observation=observation)
    provenance = handle.simulation.provenance
    print(
        f"Resuming {state.run_id} (config {provenance.config_hash[:12]}) from "
        f"checkpoint '{provenance.checkpoint_kind}' with "
        f"{provenance.rounds_completed} rounds completed..."
    )
    return finish_run(handle, args, observation, store, kind="resume")
