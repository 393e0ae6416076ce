"""API probes emit byte-identical trace events to batch-run probes.

The acceptance contract of the serve redesign: answering a probe through
:class:`repro.api.RunHandle` dispatches through the *same* executor
engine as a batch ``repro run``, so the task-scoped trace events for the
first probe of a fresh world — virtual-time stamps, suite labels, DNS
queries, probe ids, everything — are the same bytes whether the probe
ran inside the initial sweep of a batch campaign or was requested
one-off through the API.

We compare the canonical JSONL lines for the first task scope
(``s0.t0``): both worlds are fresh, so stage 0/task 0 is the first
domain's first address in both, and the canonical sort key makes the
line order deterministic.  Stage-scoped events are excluded — stage
*names* legitimately differ (``"initial"`` vs ``"probe <domain>"``);
the per-task events must not.
"""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.obs import Observation
from repro.simulation import Simulation

SCALE = 0.002
SEED = 5


def _task_lines(observation: Observation, scope: str):
    lines = []
    for line in observation.tracer.export_jsonl().splitlines():
        if json.loads(line)["scope"] == scope:
            lines.append(line)
    return lines


@pytest.fixture(scope="module")
def batch_observation():
    """A full batch run (the ``repro run`` code path), traced."""
    observation = Observation(trace=True)
    sim = Simulation.build(
        config=api.RunConfig(scale=SCALE, seed=SEED), observation=observation
    )
    sim.run()
    return observation


@pytest.fixture(scope="module")
def api_probe(batch_observation):
    observation = Observation(trace=True)
    handle = api.open_run(
        api.RunConfig(scale=SCALE, seed=SEED), observation=observation
    )
    domain = handle.simulation.population.name_at(0)
    result = handle.probe_domain(domain)
    return observation, result


def test_first_probe_task_is_byte_identical(batch_observation, api_probe):
    api_observation, _ = api_probe
    batch_lines = _task_lines(batch_observation, "s0.t0")
    api_lines = _task_lines(api_observation, "s0.t0")
    assert batch_lines, "batch initial sweep produced no s0.t0 events"
    assert batch_lines == api_lines


def test_task_events_carry_virtual_time_and_probe_ids(api_probe):
    api_observation, _ = api_probe
    lines = _task_lines(api_observation, "s0.t0")
    for line in lines:
        decoded = json.loads(line)
        assert decoded["vt"] is not None
        assert decoded["probe"]


def test_api_verdict_matches_batch_initial(batch_observation, api_probe):
    """Not just the trace: the classification itself must agree."""
    _, result = api_probe
    sim = Simulation.build(config=api.RunConfig(scale=SCALE, seed=SEED))
    initial = sim.campaign.run_initial()
    assert result.status == initial.domain_status[result.target].value
