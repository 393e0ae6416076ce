"""Lazy and eager world construction must be observationally identical.

The lazy world materializes servers on first touch; the eager reference
here pre-builds every addressable server
(:meth:`~repro.smtp.transport.Network.materialize_all`) from the same
per-unit RNG forks before the campaign runs.  The contract: traces and
exported CSVs are byte-identical between the two, and an interrupted
lazy run resumed from its checkpoint store still lands on the eager
reference bytes — proving that snapshot restore, first-touch
regeneration, and eager construction all describe the same world.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest

from repro.analysis.export import export_all
from repro.api import RunConfig
from repro.errors import CampaignAborted
from repro.obs import Observation
from repro.simulation import Simulation
from repro.store import RunStore

SCALE = 0.02
SEED = 20211011


def _csv_bytes(directory):
    return {
        name: (directory / name).read_bytes()
        for name in sorted(os.listdir(directory))
    }


def _artifacts(sim, obs, root):
    trace = root / "trace.jsonl"
    obs.tracer.write_jsonl(str(trace))
    csv_dir = root / "csv"
    export_all(sim, str(csv_dir))
    return trace.read_bytes(), _csv_bytes(csv_dir)


def _run(config, root, *, eager=False):
    obs = Observation(trace=True)
    sim = Simulation.build(config=config, observation=obs)
    if eager:
        sim.campaign.network.materialize_all()
    sim.run()
    trace, csv = _artifacts(sim, obs, root)
    return SimpleNamespace(sim=sim, trace=trace, csv=csv)


@pytest.fixture(scope="module")
def eager_reference(tmp_path_factory):
    """The eager run the lazy runs must reproduce exactly."""
    root = tmp_path_factory.mktemp("eager")
    config = RunConfig(scale=SCALE, seed=SEED, trace=True)
    return _run(config, root, eager=True)


def test_eager_mode_materializes_everything_up_front(eager_reference):
    network = eager_reference.sim.campaign.network
    assert network.materialized_count == len(network)


def test_serial_lazy_matches_eager_bytes(eager_reference, tmp_path):
    config = RunConfig(scale=SCALE, seed=SEED, trace=True)
    lazy = _run(config, tmp_path)
    assert lazy.trace == eager_reference.trace
    assert lazy.csv == eager_reference.csv
    # Laziness is real, not a relabeled eager build: the run touched
    # only what it probed, which is strictly less than the addressable
    # space the eager network pre-built.
    assert (
        lazy.sim.campaign.network.materialized_count
        < eager_reference.sim.campaign.network.materialized_count
    )


def test_interrupted_lazy_run_resumes_to_eager_bytes(eager_reference, tmp_path):
    """Kill a lazy run after round 2; the resumed world — rebuilt lazily
    and patched up from the snapshot of *touched* servers — must still
    finish byte-identical to the eager reference."""
    config = RunConfig(scale=SCALE, seed=SEED, trace=True)
    store = RunStore(str(tmp_path / "store"))
    store.abort_after_round = 2
    sim = Simulation.build(config=config, observation=Observation(trace=True))
    with pytest.raises(CampaignAborted):
        sim.run(store=store)

    store.abort_after_round = None
    obs = Observation(trace=True)
    resumed = Simulation.resume(store.load_latest(), observation=obs)
    resumed.run(store=store)
    trace, csv = _artifacts(resumed, obs, tmp_path)
    assert trace == eager_reference.trace
    assert csv == eager_reference.csv
