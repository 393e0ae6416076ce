"""Persistent, crash-safe storage for longitudinal campaign runs.

The paper's headline measurement spans four months of virtual time; at
production scale a crash mid-campaign would discard hours of probing.
This package checkpoints a run after the initial sweep and after every
completed round, atomically, into a directory keyed by the
:class:`repro.api.RunConfig` content hash — and
:meth:`repro.simulation.Simulation.resume` reconstructs the campaign
mid-timeline so it finishes with byte-identical traces and CSVs.

- :class:`RunStore` — the on-disk store (manifest + checkpoint chain);
- :class:`CheckpointWriter` — the campaign-facing writer hooks;
- :class:`RunState` — a loaded checkpoint chain ready to resume;
- :func:`restore_simulation` — rebuild + fast-forward + snapshot install;
- :class:`~repro.errors.CampaignAborted` / :class:`~repro.errors.StoreError`
  — re-exported here for convenience.
"""

from ..errors import CampaignAborted, StoreError
from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    RunProvenance,
    capture_checkpoint,
    capture_world_state,
    install_world_state,
    restore_simulation,
)
from .runstore import CheckpointWriter, RunState, RunStore, StoreLock

__all__ = [
    "CHECKPOINT_VERSION",
    "CampaignAborted",
    "Checkpoint",
    "CheckpointWriter",
    "RunProvenance",
    "RunState",
    "RunStore",
    "StoreError",
    "StoreLock",
    "capture_checkpoint",
    "capture_world_state",
    "install_world_state",
    "restore_simulation",
]
