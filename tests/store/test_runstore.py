"""Unit tests for the RunConfig value and the on-disk RunStore.

Checkpoint chains, manifests, digests, atomic writes, and the
hash-keyed store layout — everything below the full resume tests in
:mod:`tests.store.test_resume`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from types import SimpleNamespace

import pytest

from repro.api import RunConfig
from repro.simulation import Simulation
from repro.store import CampaignAborted, RunStore, StoreError
from repro.store.checkpoint import WORLD_MAPS, diff_world_state, fold_world_state
from repro.store.runstore import _atomic_write

SCALE = 0.002
SEED = 5


class TestRunConfig:
    def test_fields_are_what_varies(self):
        """The paper's method is constants; a run varies only by these."""
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "scale", "seed", "trace",
        ]

    def test_json_round_trip(self):
        config = RunConfig(scale=0.004, seed=7, trace=True)
        clone = RunConfig.from_json(config.to_json())
        assert clone == config
        assert clone.content_hash() == config.content_hash()
        # Configs written by older versions carry "perf" and the
        # sub-config keys; they are ignored on load.
        legacy = dict(
            config.to_dict(),
            perf="perf",
            population={"scale": 0.004, "seed": 7},
            campaign={"round_interval": {"$seconds": 172800.0}},
            retry=None,
        )
        assert RunConfig.from_dict(legacy) == config

    def test_runtime_fields_do_not_change_the_hash(self):
        base = RunConfig(scale=0.004, seed=7)
        traced = RunConfig(scale=0.004, seed=7, trace=True)
        assert traced.content_hash() == base.content_hash()

    def test_an_int_scale_is_the_same_experiment_as_its_float(self):
        as_int, as_float = RunConfig(scale=1, seed=5), RunConfig(scale=1.0, seed=5)
        assert as_int == as_float
        assert as_int.scale.__class__ is float
        assert as_int.content_hash() == as_float.content_hash()
        # A float config keeps the hash it always had.
        assert as_float.content_hash()[:12] == "a8d2351d0ff4"

    def test_semantic_fields_change_the_hash(self):
        base = RunConfig(scale=0.004, seed=7)
        assert RunConfig(scale=0.005, seed=7).content_hash() != base.content_hash()
        assert RunConfig(scale=0.004, seed=8).content_hash() != base.content_hash()


@pytest.fixture(scope="module")
def aborted(tmp_path_factory):
    """A run checkpointed into a store and aborted after round 2: a
    base and two deltas."""
    root = tmp_path_factory.mktemp("store")
    config = RunConfig(scale=SCALE, seed=SEED)
    store = RunStore(str(root))
    store.abort_after_round = 2
    sim = Simulation.build(config=config)
    with pytest.raises(CampaignAborted):
        sim.run(store=store)
    store.abort_after_round = None
    return SimpleNamespace(store=store, config=config, root=root)


def _copy_store(aborted, tmp_path):
    copy = tmp_path / "store"
    shutil.copytree(aborted.root, copy)
    return RunStore(str(copy)), copy


class TestStoreLayout:
    def test_run_directory_keyed_by_config_hash(self, aborted):
        run_id = f"run-{aborted.config.content_hash()[:8]}"
        assert aborted.store.runs() == [run_id]
        run_dir = aborted.root / run_id
        assert (run_dir / "config.json").is_file()
        stored = RunConfig.from_json((run_dir / "config.json").read_text())
        assert stored == aborted.config

    def test_manifest_indexes_the_chain_with_digests(self, aborted):
        run_dir = aborted.root / aborted.store.runs()[0]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config_hash"] == aborted.config.content_hash()
        entries = manifest["checkpoints"]
        assert [e["kind"] for e in entries] == ["initial", "round", "round"]
        assert [e["rounds_completed"] for e in entries] == [0, 1, 2]
        for entry in entries:
            data = (run_dir / entry["file"]).read_bytes()
            assert len(data) == entry["size"]
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_round_checkpoints_are_deltas_against_the_base(self, aborted):
        # Only the initial checkpoint holds the whole world; a round
        # holds what that round changed.
        run_dir = aborted.root / aborted.store.runs()[0]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        base, *rounds = manifest["checkpoints"]
        assert rounds
        for entry in rounds:
            assert entry["size"] < base["size"] / 4, (entry, base)

    def test_no_temp_files_left_behind(self, aborted):
        run_dir = aborted.root / aborted.store.runs()[0]
        assert not [n for n in os.listdir(run_dir) if n.endswith(".tmp")]

    def test_load_latest_empty_store(self, tmp_path):
        with pytest.raises(StoreError, match="no checkpointed runs"):
            RunStore(str(tmp_path / "empty")).load_latest()

    def test_load_latest_hash_mismatch_lists_candidates(self, aborted):
        other = RunConfig(scale=0.003, seed=6)
        with pytest.raises(StoreError, match=r"no stored run matches.*holds: run-"):
            aborted.store.load_latest(config_hash=other.content_hash())

    def test_hash_mismatch_listing_survives_a_mistyped_hash(
        self, aborted, tmp_path
    ):
        store, copy = _copy_store(aborted, tmp_path)
        path = copy / store.runs()[0] / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config_hash"] = 5
        path.write_text(json.dumps(manifest))
        other = RunConfig(scale=0.003, seed=6)
        with pytest.raises(StoreError, match=r"holds: run-\w+ \(5\)"):
            store.load_latest(config_hash=other.content_hash())

    def test_load_latest_matching_hash(self, aborted):
        state = aborted.store.load_latest(
            config_hash=aborted.config.content_hash()
        )
        assert state.checkpoint.kind == "round"
        assert len(state.checkpoint.rounds) == 2
        assert state.config == aborted.config

    def test_missing_checkpoint_file_truncates_the_chain(self, aborted, tmp_path):
        store, copy = _copy_store(aborted, tmp_path)
        run_id = store.runs()[0]
        os.remove(copy / run_id / "checkpoint-0002.pkl")
        state = store.load_latest()
        assert state.checkpoint.kind == "round"
        assert len(state.checkpoint.rounds) == 1
        assert len(state.entries) == 2
        # A hole mid-chain ends it there: round 2's delta is intact but
        # is never folded onto a state that lacks round 1.
        os.remove(copy / run_id / "checkpoint-0001.pkl")
        shutil.copy(
            aborted.root / run_id / "checkpoint-0002.pkl",
            copy / run_id / "checkpoint-0002.pkl",
        )
        state = store.load_latest()
        assert state.checkpoint.kind == "initial"
        assert state.checkpoint.rounds == []
        assert [e["file"] for e in state.entries] == ["checkpoint-0000.pkl"]
        assert len(state.trace_segments) == len(state.querylog_segments) == 1

    def test_all_checkpoints_torn_is_an_error(self, aborted, tmp_path):
        store, copy = _copy_store(aborted, tmp_path)
        run_id = store.runs()[0]
        for name in os.listdir(copy / run_id):
            if name.startswith("checkpoint-"):
                (copy / run_id / name).write_bytes(b"torn")
        with pytest.raises(StoreError, match="no usable checkpoint"):
            store.load_latest()

    def test_old_checkpoint_format_is_refused_by_version(self, aborted, tmp_path):
        store, copy = _copy_store(aborted, tmp_path)
        path = copy / store.runs()[0] / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["checkpoint_version"] = 5
        path.write_text(json.dumps(manifest))
        with pytest.raises(
            StoreError, match=r"format version 5, .*reads only version 6; re-run"
        ):
            store.load_latest()

    def test_old_format_under_another_hash_is_refused_by_version(
        self, aborted, tmp_path
    ):
        # An older build may have hashed the same experiment differently:
        # the format refusal, not "no stored run matches", is the answer.
        store, copy = _copy_store(aborted, tmp_path)
        path = copy / store.runs()[0] / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["checkpoint_version"] = 5
        manifest["config_hash"] = "0" * 64
        path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=r"format version 5, .*; re-run"):
            store.load_latest(config_hash=aborted.config.content_hash())


def _drop_sha256(manifest):
    del manifest["checkpoints"][1]["sha256"]


def _checkpoints_as_dict(manifest):
    manifest["checkpoints"] = {"0": manifest["checkpoints"][0]}


def _drop_config(manifest):
    del manifest["config"]


def _config_hash_as_number(manifest):
    manifest["config_hash"] = 5


def _file_outside_run_dir(manifest):
    manifest["checkpoints"][0]["file"] = "../x.pkl"


def _file_out_of_order(manifest):
    manifest["checkpoints"][1]["file"] = "checkpoint-0002.pkl"


def _size_as_text(manifest):
    entry = manifest["checkpoints"][2]
    entry["size"] = str(entry["size"])


def _entry_not_an_object(manifest):
    manifest["checkpoints"][1] = ["checkpoint-0001.pkl"]


def _config_not_a_run_config(manifest):
    del manifest["config"]["scale"]


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_drop_sha256, r"entry 1 has no str 'sha256'"),
        (_checkpoints_as_dict, r"'checkpoints' is not a list"),
        (_drop_config, r"no 'config' object"),
        (_config_hash_as_number, r"no 'config_hash' string"),
        (_file_outside_run_dir, r"entry 0 names file '\.\./x\.pkl'"),
        (_file_out_of_order, r"entry 1 names file 'checkpoint-0002\.pkl'"),
        (_size_as_text, r"entry 2 has no int 'size'"),
        (_entry_not_an_object, r"entry 1 is not an object"),
        (_config_not_a_run_config, r"'config' is not a RunConfig"),
    ],
)
def test_malformed_manifest_is_refused_naming_the_entry(
    aborted, tmp_path, tamper, message
):
    store, copy = _copy_store(aborted, tmp_path)
    path = copy / store.runs()[0] / "manifest.json"
    manifest = json.loads(path.read_text())
    tamper(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match=message):
        store.load_latest()


class TestWorldDelta:
    def test_fold_of_diff_reproduces_the_current_snapshot(self):
        # Map values are compared by identity: a kept object is left
        # out, a replaced or added one is stored, a dropped key removed.
        kept, replaced = object(), object()
        previous = {name: {} for name in WORLD_MAPS}
        previous["resolver_cache"] = {"kept": kept, "replaced": replaced, "gone": 1}
        previous["next_suite"] = 3
        current = {name: {} for name in WORLD_MAPS}
        current["resolver_cache"] = {"kept": kept, "replaced": object(), "added": 2}
        current["next_suite"] = 4

        delta = diff_world_state(previous, current)
        changed, removed = delta["resolver_cache"]
        assert sorted(changed) == ["added", "replaced"]
        assert removed == ["gone"]
        assert delta["next_suite"] == 4

        fold_world_state(previous, delta)
        assert previous == current


class TestAtomicWrite:
    def test_replaces_content_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "file.bin"
        _atomic_write(str(target), b"one")
        _atomic_write(str(target), b"two")
        assert target.read_bytes() == b"two"
        assert os.listdir(tmp_path) == ["file.bin"]


class TestWriter:
    def test_requires_config_built_simulation(self, tmp_path):
        store = RunStore(str(tmp_path / "s"))
        sim = Simulation.build(config=RunConfig(scale=SCALE, seed=SEED))
        sim.config = None
        with pytest.raises(StoreError, match="RunConfig"):
            store.writer(sim)

    def test_fresh_run_replaces_a_previous_attempt(self, aborted, tmp_path):
        store, _ = _copy_store(aborted, tmp_path)
        sim = Simulation.build(config=aborted.config)
        sim.run(store=store)
        state = store.load_latest()
        assert state.checkpoint.kind == "round"
        assert len(state.checkpoint.rounds) == len(sim.result.rounds)
        # initial + one entry per round, freshly renumbered from zero
        assert len(state.entries) == len(sim.result.rounds) + 1

    def test_resumed_chain_continues_in_the_directory_it_came_from(
        self, aborted, tmp_path
    ):
        # A run directory need not carry today's hash (an older build may
        # have named it): the chain goes on where it was loaded from.
        store, copy = _copy_store(aborted, tmp_path)
        os.rename(copy / store.runs()[0], copy / "run-renamed")
        state = store.load_latest(config_hash=aborted.config.content_hash())
        assert state.run_id == "run-renamed"
        sim = Simulation.resume(state)
        store.abort_after_round = 3
        with pytest.raises(CampaignAborted):
            sim.run(store=store)
        assert store.runs() == ["run-renamed"]
        manifest = json.loads((copy / "run-renamed" / "manifest.json").read_text())
        entries = manifest["checkpoints"]
        assert [e["rounds_completed"] for e in entries] == [0, 1, 2, 3]
        assert (copy / "run-renamed" / entries[-1]["file"]).is_file()
