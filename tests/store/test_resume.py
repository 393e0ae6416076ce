"""Interrupted campaigns must resume to byte-identical artifacts.

The checkpoint/resume contract (see :mod:`repro.store`) is that a run
killed after round *k* and resumed from its store finishes with the
same canonical trace and the same exported CSVs, down to the byte, and
the same metrics registry, as a run that was never interrupted.  This
module fault-injects an exception raised mid-timeline at scale 0.02, a
run interrupted twice (so the last leg folds deltas that a resumed
writer wrote), a store attached to a campaign already under way, and a
torn-checkpoint crash that must fall back to the previous complete
checkpoint.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest

from repro import api
from repro.analysis.export import export_all
from repro.api import RunConfig
from repro.errors import CampaignAborted
from repro.obs import Observation
from repro.simulation import Simulation
from repro.store import RunStore, capture_world_state

SCALE = 0.02
SEED = 20211011
ABORT_AFTER = 2


def _canon_transaction(transaction):
    return (
        transaction.kind.value,
        transaction.status.value,
        transaction.sender,
        transaction.recipient,
        transaction.server_ip,
        tuple(reply.code.value for reply in transaction.replies),
    )


def _canon_detection(result):
    return (
        result.ip,
        result.suite,
        result.outcome.value,
        tuple(sorted(b.value for b in result.behaviors)),
        tuple(result.test_ids),
        result.successful_method.value if result.successful_method else None,
        result.queries_observed,
        tuple(sorted((m.value, o.value) for m, o in result.method_outcomes.items())),
        tuple(_canon_transaction(t) for t in result.transactions),
    )


def canonicalize(result):
    """A fully ordered, comparable view of a campaign result."""
    initial = result.initial
    out = [
        initial.date.isoformat(),
        tuple(sorted((d, tuple(ips)) for d, ips in initial.domain_ips.items())),
        tuple(
            sorted(
                (ip, _canon_detection(record.result))
                for ip, record in initial.ip_records.items()
            )
        ),
        tuple(sorted((d, s.value) for d, s in initial.domain_status.items())),
    ]
    for rnd in result.rounds:
        out.append(
            (
                rnd.date.isoformat(),
                tuple(sorted((ip, o.value) for ip, o in rnd.results.items())),
                tuple(
                    sorted(
                        (ip, m.value if m else None)
                        for ip, m in rnd.methods.items()
                    )
                ),
            )
        )
    out.append(
        tuple(sorted((d, s.value) for d, s in result.snapshot_status.items()))
    )
    out.append(result.snapshot_date.isoformat() if result.snapshot_date else None)
    return out


def _csv_bytes(directory):
    return {
        name: (directory / name).read_bytes()
        for name in sorted(os.listdir(directory))
    }


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The uninterrupted serial run every resumed run must reproduce."""
    root = tmp_path_factory.mktemp("reference")
    obs = Observation(trace=True)
    sim = Simulation.build(
        config=RunConfig(scale=SCALE, seed=SEED, trace=True),
        observation=obs,
    )
    sim.run()
    trace = root / "trace.jsonl"
    obs.tracer.write_jsonl(str(trace))
    csv_dir = root / "csv"
    export_all(sim, str(csv_dir))
    return SimpleNamespace(
        sim=sim,
        trace_bytes=trace.read_bytes(),
        csv=_csv_bytes(csv_dir),
        metrics=obs.metrics,
    )


def _assert_matches_reference(resumed, obs, reference, tmp_path):
    trace = tmp_path / "resumed.jsonl"
    obs.tracer.write_jsonl(str(trace))
    assert trace.read_bytes() == reference.trace_bytes
    csv_dir = tmp_path / "csv"
    export_all(resumed, str(csv_dir))
    assert _csv_bytes(csv_dir) == reference.csv
    # A batch run's registry holds no wall-clock value, so the
    # checkpointed prefix merged with the resumed legs must equal the
    # uninterrupted run's registry exactly.
    assert obs.metrics.to_dict() == reference.metrics.to_dict()
    assert obs.metrics.percentiles() == reference.metrics.percentiles()


def test_serial_exception_mid_timeline_resumes_byte_identical(
    reference, tmp_path
):
    """Kill a serial run with an exception after round k; resume it."""
    store = RunStore(str(tmp_path / "store"))
    store.abort_after_round = ABORT_AFTER
    obs = Observation(trace=True)
    sim = Simulation.build(
        config=RunConfig(scale=SCALE, seed=SEED, trace=True),
        observation=obs,
    )
    with pytest.raises(CampaignAborted):
        sim.run(store=store)

    store.abort_after_round = None
    obs2 = Observation(trace=True)
    resumed = Simulation.resume(store.load_latest(), observation=obs2)
    assert resumed.provenance.rounds_completed == ABORT_AFTER
    assert resumed.provenance.checkpoint_kind == "round"
    resumed.run(store=store)

    _assert_matches_reference(resumed, obs2, reference, tmp_path)


def test_double_interruption_resumes_byte_identical(reference, tmp_path):
    """Abort after round 2, resume and abort after round 5, then finish.

    The second leg's checkpoints are deltas a resumed writer took
    against the state it folded on load; the last leg folds the whole
    chain, both legs' files, back into one state.  At each abort point
    the folded chain must equal the world it was written from.
    """
    config = RunConfig(scale=SCALE, seed=SEED, trace=True)
    store = RunStore(str(tmp_path / "store"))
    store.abort_after_round = ABORT_AFTER
    sim = Simulation.build(config=config, observation=Observation(trace=True))
    with pytest.raises(CampaignAborted):
        sim.run(store=store)
    assert store.load_latest().checkpoint.world == capture_world_state(sim)

    store.abort_after_round = 5
    second = Simulation.resume(
        store.load_latest(), observation=Observation(trace=True)
    )
    with pytest.raises(CampaignAborted):
        second.run(store=store)
    state = store.load_latest()
    assert len(state.checkpoint.rounds) == 5
    assert len(state.entries) == 6
    assert state.checkpoint.world == capture_world_state(second)

    store.abort_after_round = None
    obs3 = Observation(trace=True)
    third = Simulation.resume(store.load_latest(), observation=obs3)
    assert third.provenance.rounds_completed == 5
    third.run(store=store)

    _assert_matches_reference(third, obs3, reference, tmp_path)


def test_store_attached_mid_campaign_resumes_byte_identical(reference, tmp_path):
    """Attach a store after three rounds ran on a handle, abort after
    round 5, resume.  A fresh writer's first checkpoint is the base and
    carries all evidence emitted before the store was attached."""
    config = RunConfig(scale=SCALE, seed=SEED, trace=True)
    store = RunStore(str(tmp_path / "store"))
    store.abort_after_round = 5
    handle = api.open_run(config, observation=Observation(trace=True))
    handle.ensure_initial()
    handle.advance_rounds(3)
    with pytest.raises(CampaignAborted):
        handle.run(store=store)
    state = store.load_latest()
    assert [entry["rounds_completed"] for entry in state.entries] == [4, 5]

    store.abort_after_round = None
    obs = Observation(trace=True)
    resumed = Simulation.resume(store.load_latest(), observation=obs)
    assert resumed.provenance.rounds_completed == 5
    resumed.run(store=store)

    _assert_matches_reference(resumed, obs, reference, tmp_path)


def test_torn_newest_checkpoint_falls_back_to_previous(tmp_path):
    """A kill mid-write leaves a torn newest file; load must degrade.

    The manifest still references the torn checkpoint, but its digest no
    longer matches, so the chain ends one entry earlier — and resuming
    from there still reproduces the uninterrupted campaign exactly.
    """
    config = RunConfig(scale=0.005, seed=SEED)
    store = RunStore(str(tmp_path / "store"))
    store.abort_after_round = 2
    sim = Simulation.build(config=config)
    with pytest.raises(CampaignAborted):
        sim.run(store=store)

    run_dir = tmp_path / "store" / f"run-{config.content_hash()[:8]}"
    newest = run_dir / "checkpoint-0002.pkl"
    data = newest.read_bytes()
    newest.write_bytes(data[: len(data) // 2])

    state = store.load_latest()
    assert state.checkpoint.kind == "round"
    assert len(state.checkpoint.rounds) == 1
    assert len(state.entries) == 2  # initial + round 1 survived

    store.abort_after_round = None
    resumed = Simulation.resume(state)
    result = resumed.run()

    ref = Simulation.build(config=config).run()
    assert repr(canonicalize(result)).encode() == repr(canonicalize(ref)).encode()
