"""Crash-safe on-disk persistence for checkpointed campaigns.

Layout, under the store root::

    <root>/
      run-<hash8>/                 one directory per RunConfig content hash
        config.json                the full RunConfig (trace flag too)
        manifest.json              ordered checkpoint index + digests
        checkpoint-0000.pkl        after run_initial: the base, in full
        checkpoint-0001.pkl        after round 1: a delta against 0000
        ...                        (see repro.store.checkpoint)

Durability relies on exactly two properties, both provided by
:func:`_atomic_write` (write to a temp file in the same directory,
``fsync``, then ``os.replace``):

- a checkpoint or manifest file is always either the complete previous
  version or the complete next version, never a torn hybrid;
- the checkpoint file is renamed into place *before* the manifest that
  references it, so a kill between the two leaves a manifest that
  simply does not know about the orphan file yet.

On load, the manifest's shape is checked first — a malformed or
tampered manifest, or one written in another checkpoint format, is
refused with :class:`StoreError` — then every entry's size and SHA-256
are re-verified before its file is unpickled and folded into one
running state.  The longest valid prefix wins: a truncated or corrupted
newest checkpoint silently degrades to the one before it (the
torn-checkpoint test exercises exactly this), and since each delta
needs every file before it, a hole ends the chain.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

try:
    import fcntl
except ImportError:  # non-unix: locking degrades to a no-op
    fcntl = None  # type: ignore[assignment]

from ..collector import collector_paused
from ..errors import CampaignAborted, SimulationError, StoreError
from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    RunProvenance,
    capture_checkpoint,
)

if TYPE_CHECKING:
    from ..api import RunConfig
    from ..core.campaign import MeasurementCampaign
    from ..simulation import Simulation

MANIFEST_VERSION = 1

#: the keys and value types of one manifest checkpoint entry.
_ENTRY_TYPES: Dict[str, type] = {
    "file": str,
    "sha256": str,
    "size": int,
    "kind": str,
    "rounds_completed": int,
    "clock_now": str,
}


def _atomic_write(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` such that a kill at any instant
    leaves either the old complete file or the new complete file."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class StoreLock:
    """An fcntl single-writer lock over one run's checkpoint chain.

    The lock file lives *beside* the run directory
    (``<root>/run-<hash8>.lock``), not inside it: a fresh run replaces
    the whole run directory, and deleting a locked file's inode would
    silently defeat conflict detection for every later opener.

    ``flock`` locks belong to the open file description, so two
    handles — even in the same process — conflict, which is exactly
    what the two-writer regression test needs.  On platforms without
    ``fcntl`` the lock degrades to a no-op (single-writer discipline is
    then the operator's responsibility, as before this lock existed).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fd: Optional[int] = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self) -> "StoreLock":
        """Take the lock, or raise :class:`StoreError` if another writer
        (this process or any other) already holds it."""
        if self._fd is not None:
            return self
        if fcntl is None:
            return self
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise StoreError(
                f"run is locked by another writer (lock file {self.path}); "
                "a daemon or concurrent run owns this store — stop it "
                "before resuming"
            )
        self._fd = fd
        return self

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def __enter__(self) -> "StoreLock":
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


@dataclass
class RunState:
    """A run loaded from the store, ready to hand to ``Simulation.resume``."""

    run_id: str
    run_dir: str
    config: "RunConfig"
    #: the valid prefix of the chain folded into one full state.
    checkpoint: Checkpoint
    #: per-checkpoint trace deltas, in checkpoint order.
    trace_segments: List[list]
    #: per-checkpoint query-log deltas, in checkpoint order.
    querylog_segments: List[list]
    #: manifest entries for the valid prefix (what a resumed writer keeps).
    entries: List[dict]


class CheckpointWriter:
    """Writes one run's checkpoint chain; bound to a live simulation.

    The campaign calls :meth:`after_initial` / :meth:`after_round`; each
    call captures a :class:`~repro.store.checkpoint.Checkpoint`, pickles
    it — in full for the chain's first file, else as a delta against the
    previous capture — renames it into place, then publishes it in the
    manifest.  A fresh writer's first file is the base and carries every
    piece of evidence emitted so far, even when the store was attached
    to a campaign already under way; a writer given ``resumed`` (the
    :class:`~repro.store.checkpoint.RunProvenance` a restore left)
    continues that chain instead.  ``abort_after_round``
    turns the writer into a fault injector: once that many rounds are
    checkpointed it raises :class:`~repro.errors.CampaignAborted` —
    *after* the checkpoint hit disk — which is how tests and the CI
    smoke job kill a run at a deterministic point.
    """

    def __init__(
        self,
        run_dir: str,
        sim: "Simulation",
        *,
        resumed: Optional[RunProvenance] = None,
        abort_after_round: Optional[int] = None,
        lock: Optional[StoreLock] = None,
    ) -> None:
        self.run_dir = run_dir
        self.sim = sim
        self.abort_after_round = abort_after_round
        #: the single-writer lock this writer owns (released by
        #: :meth:`close`); ``None`` for writers built directly in tests.
        self.lock = lock
        self._entries: List[dict] = []
        #: the full state the chain on disk folds to (None before the base).
        self._state: Optional[Checkpoint] = None
        # Evidence below these positions is already persisted by the
        # chain: nothing for a fresh writer, everything the restore
        # stitched back for a resumed one.
        self._trace_mark = 0
        self._qlog_mark = 0
        if resumed is not None:
            self._entries = list(resumed.entries)
            self._state = resumed.checkpoint
            obs = sim.observation
            if obs is not None and obs.tracer.enabled:
                self._trace_mark = obs.tracer.event_count()
            self._qlog_mark = len(sim.campaign.responder.log)

    # -- campaign hooks -------------------------------------------------------

    def after_initial(self, campaign: "MeasurementCampaign") -> None:
        self._write("initial")

    def after_round(self, campaign: "MeasurementCampaign") -> None:
        self._write("round")
        rounds = len(campaign.rounds)
        if self.abort_after_round is not None and rounds >= self.abort_after_round:
            raise CampaignAborted(
                f"aborted after round {rounds} as requested; "
                f"checkpoint saved in {self.run_dir}"
            )

    def close(self) -> None:
        """Release the single-writer lock (idempotent).

        :meth:`repro.simulation.Simulation.run` calls this in its
        ``finally`` so an aborted or raising run never leaves the store
        locked against a later resume.
        """
        if self.lock is not None:
            self.lock.release()

    # -- persistence ----------------------------------------------------------

    def _write(self, kind: str) -> None:
        checkpoint = capture_checkpoint(
            self.sim,
            kind=kind,
            trace_mark=self._trace_mark,
            qlog_mark=self._qlog_mark,
            previous=self._state,
        )
        payload = (
            checkpoint
            if self._state is None
            else checkpoint.delta_since(self._state)
        )
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        filename = f"checkpoint-{len(self._entries):04d}.pkl"
        _atomic_write(os.path.join(self.run_dir, filename), data)
        self._state = checkpoint
        self._trace_mark += len(checkpoint.trace_segment)
        self._qlog_mark += len(checkpoint.querylog_segment)
        self._entries.append(
            {
                "file": filename,
                "sha256": _digest(data),
                "size": len(data),
                "kind": kind,
                "rounds_completed": len(checkpoint.rounds),
                "clock_now": checkpoint.clock_now.isoformat(),
            }
        )
        manifest = {
            "version": MANIFEST_VERSION,
            "checkpoint_version": CHECKPOINT_VERSION,
            "config_hash": self.sim.config.content_hash(),
            "config": self.sim.config.to_dict(),
            "checkpoints": self._entries,
        }
        # One line through the C encoder: an ``indent`` would select the
        # pure-Python encoder, whose closures leave a reference cycle
        # behind on every call, i.e. after every checkpoint.
        _atomic_write(
            os.path.join(self.run_dir, "manifest.json"),
            json.dumps(manifest, sort_keys=True).encode("utf-8"),
        )


class RunStore:
    """A directory of checkpointed runs, one subdirectory per config hash."""

    def __init__(self, root: str) -> None:
        self.root = root
        #: fault-injection knob propagated to writers (see CLI
        #: ``--abort-after-round``); ``None`` disables it.
        self.abort_after_round: Optional[int] = None
        os.makedirs(root, exist_ok=True)

    # -- writing --------------------------------------------------------------

    def writer(self, sim: "Simulation") -> CheckpointWriter:
        """A writer for ``sim`` — fresh, or continuing a resumed run."""
        if sim.config is None:
            raise StoreError(
                "RunStore needs a config-built Simulation (Simulation.build"
                "(config=...)); this one has no RunConfig attached"
            )
        lock = self.acquire_lock(sim.config)
        if sim.provenance is not None:
            # A resumed chain continues in the directory it was loaded
            # from: an older build may have named it by another hash.
            return CheckpointWriter(
                os.path.join(self.root, sim.provenance.run_id), sim,
                resumed=sim.provenance,
                abort_after_round=self.abort_after_round, lock=lock,
            )
        # A fresh run of this config replaces any previous attempt: the
        # old chain describes a different execution's evidence stream
        # and must not be stitched into this one.
        run_dir = self._run_dir(sim.config)
        try:
            if os.path.isdir(run_dir):
                shutil.rmtree(run_dir)
            os.makedirs(run_dir)
            _atomic_write(
                os.path.join(run_dir, "config.json"),
                sim.config.to_json().encode("utf-8"),
            )
        except BaseException:
            lock.release()
            raise
        return CheckpointWriter(
            run_dir, sim, abort_after_round=self.abort_after_round, lock=lock
        )

    def lock_path(self, config: "RunConfig") -> str:
        """The single-writer lock file for a config's run (beside, not
        inside, the run directory — see :class:`StoreLock`)."""
        return self._run_dir(config) + ".lock"

    def acquire_lock(self, config: "RunConfig") -> StoreLock:
        """Take the single-writer lock for a config's run.

        :meth:`writer` does this automatically; a daemon that owns the
        store without checkpointing (``repro serve``) takes the lock
        directly so a concurrent ``repro resume`` refuses instead of
        racing the resident world for the checkpoint chain.
        """
        return StoreLock(self.lock_path(config)).acquire()

    def _run_dir(self, config: "RunConfig") -> str:
        return os.path.join(self.root, f"run-{config.content_hash()[:8]}")

    def run_dir(self, config: "RunConfig") -> str:
        """The run directory a config maps to (may not exist yet)."""
        return self._run_dir(config)

    # -- reading --------------------------------------------------------------

    def runs(self) -> List[str]:
        """Run directory names with a readable manifest, newest first."""
        out = []
        if not os.path.isdir(self.root):
            return out
        for name in os.listdir(self.root):
            manifest = os.path.join(self.root, name, "manifest.json")
            if os.path.isfile(manifest):
                out.append((os.path.getmtime(manifest), name))
        return [name for _, name in sorted(out, reverse=True)]

    def load_latest(self, *, config_hash: Optional[str] = None) -> RunState:
        """The newest usable checkpoint chain (optionally hash-filtered).

        ``config_hash`` pins the run to resume; a mismatch is an error
        listing what the store actually holds, never a silent fallback
        to a different experiment.  The chain is unpickled and folded
        with automatic garbage collection paused
        (:func:`repro.collector.collector_paused`).
        """
        candidates = []
        for name in self.runs():
            manifest = self._read_manifest(name)
            if manifest is None:
                continue
            candidates.append((name, manifest))
        if not candidates:
            raise StoreError(f"no checkpointed runs under {self.root!r}")
        if config_hash is not None:
            matching = [
                (name, manifest)
                for name, manifest in candidates
                if manifest.get("config_hash") == config_hash
            ]
            if not matching:
                # A chain in another checkpoint format may well be this
                # experiment under an older hash: say why it cannot be
                # read rather than call it a different experiment.
                for name, manifest in candidates:
                    _refuse_other_format(name, manifest)
                available = ", ".join(
                    f"{name} ({str(manifest.get('config_hash', '?'))[:12]})"
                    for name, manifest in candidates
                )
                raise StoreError(
                    f"no stored run matches config hash {config_hash[:12]}; "
                    f"store {self.root!r} holds: {available}"
                )
            candidates = matching
        name, manifest = candidates[0]
        with collector_paused():
            return self._load_run(name, manifest)

    def _read_manifest(self, name: str) -> Optional[dict]:
        path = os.path.join(self.root, name, "manifest.json")
        try:
            with open(path, "r") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(manifest, dict):
            return None
        if manifest.get("version") != MANIFEST_VERSION:
            return None
        return manifest

    def _load_run(self, name: str, manifest: dict) -> RunState:
        from ..api import RunConfig

        run_dir = os.path.join(self.root, name)
        entries = _checked_entries(name, manifest)
        try:
            config = RunConfig.from_dict(manifest["config"])
        except (KeyError, TypeError, ValueError, SimulationError) as error:
            raise StoreError(
                f"run {name!r}: manifest 'config' is not a RunConfig ({error})"
            ) from error
        state: Optional[Checkpoint] = None
        valid_entries: List[dict] = []
        trace_segments: List[list] = []
        querylog_segments: List[list] = []
        for entry in entries:
            checkpoint = self._load_checkpoint(run_dir, entry)
            if checkpoint is None:
                # Torn or corrupted file: the chain ends at the entry
                # before it (only the newest write can ever be torn, but
                # a mid-chain hole must not be skipped over either —
                # every delta after it needs it).
                break
            trace_segments.append(checkpoint.trace_segment)
            querylog_segments.append(checkpoint.querylog_segment)
            if state is None:
                state = checkpoint
            else:
                state.fold(checkpoint)
            valid_entries.append(entry)
        if state is None:
            raise StoreError(
                f"run {name!r} has no usable checkpoint (all torn or missing)"
            )
        return RunState(
            run_id=name,
            run_dir=run_dir,
            config=config,
            checkpoint=state,
            trace_segments=trace_segments,
            querylog_segments=querylog_segments,
            entries=valid_entries,
        )

    def _load_checkpoint(self, run_dir: str, entry: dict) -> Optional[Checkpoint]:
        path = os.path.join(run_dir, entry["file"])
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        if len(data) != entry["size"] or _digest(data) != entry["sha256"]:
            return None
        try:
            checkpoint = pickle.loads(data)
        except Exception:
            return None
        if not isinstance(checkpoint, Checkpoint):
            return None
        if checkpoint.version != CHECKPOINT_VERSION:
            return None
        return checkpoint


def _checked_entries(name: str, manifest: dict) -> List[dict]:
    """The manifest's checkpoint entries, once its shape is verified.

    A manifest is only ever replaced whole, so a malformed one was
    tampered with or written by something else: refuse it with a
    :class:`StoreError` naming the offending part rather than guess.
    Entry ``i`` must name ``checkpoint-<i>.pkl``, which also keeps every
    file the loader opens inside the run directory.
    """
    _refuse_other_format(name, manifest)
    if not isinstance(manifest.get("config"), dict):
        raise StoreError(f"run {name!r}: manifest has no 'config' object")
    if not isinstance(manifest.get("config_hash"), str):
        raise StoreError(f"run {name!r}: manifest has no 'config_hash' string")
    entries = manifest.get("checkpoints")
    if not isinstance(entries, list):
        raise StoreError(f"run {name!r}: manifest 'checkpoints' is not a list")
    for index, entry in enumerate(entries):
        where = f"run {name!r}: manifest checkpoint entry {index}"
        if not isinstance(entry, dict):
            raise StoreError(f"{where} is not an object")
        for key, kind in _ENTRY_TYPES.items():
            value = entry.get(key)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise StoreError(f"{where} has no {kind.__name__} {key!r}")
        expected = f"checkpoint-{index:04d}.pkl"
        if entry["file"] != expected:
            raise StoreError(
                f"{where} names file {entry['file']!r}, expected {expected!r}"
            )
    return entries


def _refuse_other_format(name: str, manifest: dict) -> None:
    """Raise :class:`StoreError` if run ``name`` was written in another
    checkpoint format than the one this build reads."""
    stored = manifest.get("checkpoint_version")
    if stored != CHECKPOINT_VERSION:
        raise StoreError(
            f"run {name!r} was checkpointed in format version {stored!r}, "
            f"but this build reads only version {CHECKPOINT_VERSION}; "
            "re-run the campaign to write a new chain"
        )
