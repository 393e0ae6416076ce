"""The collector policy (:mod:`repro.collector`) and what it rests on.

Batch work (the run, the report, the CSVs) pauses automatic cyclic
garbage collection.  That is safe only because a run makes no reference
cycles: :class:`TestCycleFreedom` runs campaigns with automatic
collection off and asserts that a full collection then finds nothing,
with the simulation alive and after it is dropped.  Any new cycle in
the world, the run, the report, the CSVs, the trace, the perf sideband
or the checkpoint store fails it instead of quietly costing collections
(or, under the pause, memory).
"""

from __future__ import annotations

import contextlib
import gc
import os

import pytest

from repro import api
from repro.analysis import ARTIFACTS, Artifact
from repro.analysis.export import EXPORTERS, export_all
from repro.analysis.report import generate_report
from repro.collector import collector_paused
from repro.errors import CampaignAborted
from repro.obs import Observation, PerfRecorder
from repro.obs.perf import simulation_counters
from repro.store import RunStore

SEED = 20211011


@contextlib.contextmanager
def _collection_off():
    """Automatic collection off for the block, restored in a finally."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture()
def handoffs(monkeypatch):
    """Counts the policy's freeze/unfreeze handoffs (still performed)."""
    calls = []
    freeze, unfreeze = gc.freeze, gc.unfreeze

    def counting_freeze():
        calls.append("freeze")
        freeze()

    def counting_unfreeze():
        calls.append("unfreeze")
        unfreeze()

    monkeypatch.setattr(gc, "freeze", counting_freeze)
    monkeypatch.setattr(gc, "unfreeze", counting_unfreeze)
    return calls


def _in_generation(obj, generation: int) -> bool:
    return any(other is obj for other in gc.get_objects(generation=generation))


class TestPolicy:
    def test_pauses_then_reenables(self, handoffs):
        assert gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()
        assert handoffs == ["freeze", "unfreeze"]

    def test_reenabled_after_an_exception(self):
        with pytest.raises(ValueError):
            with collector_paused():
                raise ValueError("boom")
        assert gc.isenabled()

    def test_survivors_are_handed_to_the_oldest_generation(self):
        with collector_paused():
            survivor = [[]]
            assert _in_generation(survivor, 0)
        assert not _in_generation(survivor, 0)
        assert _in_generation(survivor, 2)

    def test_does_nothing_when_collection_is_already_off(self, handoffs):
        gc.disable()
        try:
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert handoffs == []

    def test_nested_pauses_hand_off_once(self, handoffs):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
            assert handoffs == []
        assert gc.isenabled()
        assert handoffs == ["freeze", "unfreeze"]

    def test_a_callers_freeze_is_not_undone(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            with collector_paused():
                survivor = [[]]
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled()
            assert survivor
        finally:
            gc.unfreeze()


class TestWhereItApplies:
    """Batch calls run paused; the serve daemon's dispatch does not."""

    def test_simulation_run_is_paused_and_reenables_after_abort(self, tmp_path):
        handle = api.open_run(api.RunConfig(scale=0.002, seed=SEED))
        campaign = handle.simulation.campaign
        seen = []
        advance = campaign.advance_rounds

        def recording_advance(*args, **kwargs):
            seen.append(gc.isenabled())
            return advance(*args, **kwargs)

        campaign.advance_rounds = recording_advance
        store = RunStore(str(tmp_path / "store"))
        store.abort_after_round = 1
        with pytest.raises(CampaignAborted):
            handle.run(store=store)
        assert seen == [False]
        assert gc.isenabled()

    def test_serve_warm_up_is_paused_and_dispatch_is_not(self):
        handle = api.open_run(api.RunConfig(scale=0.002, seed=SEED))
        campaign = handle.simulation.campaign
        seen = {}
        run_initial, probe_ips = campaign.run_initial, campaign.probe_ips

        def recording_initial(*args, **kwargs):
            seen["initial"] = gc.isenabled()
            return run_initial(*args, **kwargs)

        def recording_probe(*args, **kwargs):
            seen.setdefault("probe", gc.isenabled())
            return probe_ips(*args, **kwargs)

        campaign.run_initial = recording_initial
        handle.ensure_initial()
        handle.advance_rounds(1)
        assert gc.isenabled()
        campaign.probe_ips = recording_probe
        handle.check_mta(sorted(campaign.tracked_ips())[0])
        assert seen == {"initial": False, "probe": True}

    def test_report_and_csvs_are_paused_and_reenable_after_a_raise(
        self, monkeypatch, tmp_path
    ):
        handle = api.open_run(api.RunConfig(scale=0.002, seed=SEED))
        handle.run()
        sim = handle.simulation
        seen = []
        table6 = ARTIFACTS["table6"]

        def recording_build(sim):
            seen.append(gc.isenabled())
            return table6.build(sim)

        def recording_csv(sim):
            seen.append(gc.isenabled())
            return ""

        monkeypatch.setitem(
            ARTIFACTS, "table6", Artifact(recording_build, table6.render)
        )
        monkeypatch.setitem(EXPORTERS, "table1.csv", recording_csv)
        generate_report(sim)
        export_all(sim, str(tmp_path / "csv"))
        assert seen == [False, False]
        assert gc.isenabled()

        def failing_build(sim):
            seen.append(gc.isenabled())
            raise ValueError("builder failed")

        monkeypatch.setitem(
            ARTIFACTS, "table6", Artifact(failing_build, table6.render)
        )
        with pytest.raises(ValueError, match="builder failed"):
            generate_report(sim)
        assert seen[-1] is False
        assert gc.isenabled()


def _emit(sim, directory, *, trace: bool) -> None:
    """The report, the CSVs and (traced) the trace, as ``repro run``."""
    generate_report(sim)
    export_all(sim, os.path.join(directory, "csv"))
    if trace:
        sim.observation.tracer.write_jsonl(os.path.join(directory, "t.jsonl"))


class TestCycleFreedom:
    """A run leaves no cyclic garbage, so pausing the collector is free.

    Each case checks twice: with the simulation alive (the run, its
    outputs and the store made no cycles) and after dropping it (a world
    holds no cycle of its own, so reference counting frees it whole and a
    process running many campaigns under the pause keeps no dead world).
    """

    SCALE = 0.005

    def test_untraced_run_report_and_csvs_make_no_cycles(self, tmp_path):
        config = api.RunConfig(scale=self.SCALE, seed=SEED)
        with _collection_off():
            handle = api.open_run(config)
            handle.run()
            _emit(handle.simulation, str(tmp_path), trace=False)
            assert gc.collect() == 0
            del handle
            assert gc.collect() == 0

    def test_traced_profiled_run_makes_no_cycles(self, tmp_path):
        # ``repro run --trace --perf``: the tracer, and the perf sideband
        # with its end-of-run counter reading.
        config = api.RunConfig(scale=self.SCALE, seed=SEED, trace=True)
        with _collection_off():
            observation = Observation(trace=True)
            observation.attach_perf(PerfRecorder(str(tmp_path / "perf")))
            handle = api.open_run(config, observation=observation)
            sim = handle.simulation
            handle.run()
            observation.perf.finalize(simulation_counters(sim))
            _emit(sim, str(tmp_path), trace=True)
            assert gc.collect() == 0
            del handle, sim, observation
            assert gc.collect() == 0

    def test_checkpointed_abort_and_resume_make_no_cycles(self, tmp_path):
        config = api.RunConfig(scale=self.SCALE, seed=SEED)
        store = RunStore(str(tmp_path / "store"))
        with _collection_off():
            aborted = api.open_run(config)
            store.abort_after_round = 3
            try:
                aborted.run(store=store)
            except CampaignAborted:
                pass
            else:
                pytest.fail("the run was not aborted after round 3")
            assert gc.collect() == 0
            del aborted
            assert gc.collect() == 0
            store.abort_after_round = None
            resumed = api.resume(store, config.content_hash())
            assert resumed.simulation.provenance.rounds_completed == 3
            resumed.run(store=store)
            _emit(resumed.simulation, str(tmp_path), trace=False)
            assert gc.collect() == 0
            del resumed
            assert gc.collect() == 0
