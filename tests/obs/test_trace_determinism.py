"""A traced run's canonical trace is complete and wall-clock free.

The tracer's contract (see :mod:`repro.obs.trace`) is that every event
is stamped with virtual time and sorted by identity-derived keys, so the
canonical JSONL export for a seed is the same byte string in every run
(``tests/store/test_resume.py`` holds a resumed run to it).  This module
checks the shape of one scale-0.02 trace: valid JSONL, a virtual-time
stamp on every event, and a probe id on every task-scoped event.
"""

from __future__ import annotations

import json

import pytest

from repro.api import RunConfig
from repro.obs import Observation
from repro.simulation import Simulation

SCALE = 0.02
SEED = 20211011


@pytest.fixture(scope="module")
def observation():
    observation = Observation(trace=True)
    sim = Simulation.build(
        config=RunConfig(scale=SCALE, seed=SEED), observation=observation
    )
    sim.run()
    return observation


def test_trace_is_nonempty_valid_jsonl_with_vt_and_probe_ids(observation):
    lines = observation.tracer.export_jsonl().splitlines()
    assert len(lines) > 1000
    task_scoped = 0
    for line in lines:
        decoded = json.loads(line)
        assert decoded["vt"] is not None, f"wall-clock-free stamp missing: {decoded}"
        if ".t" in decoded["scope"]:
            task_scoped += 1
            assert decoded["probe"], f"task event without probe id: {decoded}"
    assert task_scoped > 0


def test_task_scopes_cover_every_probe(observation):
    events = observation.tracer.canonical_events()
    begins = sum(1 for e in events if e.name == "task.begin")
    ends = sum(1 for e in events if e.name == "task.end")
    assert begins == ends > 0
