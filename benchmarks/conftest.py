"""Shared benchmark fixtures.

One full campaign (scale 0.02 — about 9,000 domains and 4,000 mail
servers) is run once per benchmark session; each bench then measures its
experiment's builder and *emits* the reproduced table/figure rows.
Emitted blocks are printed in the terminal summary (past pytest's fd
capture) and written to ``benchmarks/latest_results.txt`` so the
regenerated artifacts can be diffed against the paper.
"""

from __future__ import annotations

import json
import pathlib
from typing import List

import pytest

from repro.api import RunConfig
from repro.obs import ledger as obs_ledger
from repro.simulation import Simulation

BENCH_SCALE = 0.02
BENCH_SEED = 20211011

RESULTS_PATH = pathlib.Path(__file__).resolve().parent / "latest_results.txt"
RESULTS_DIR = pathlib.Path(__file__).resolve().parent
LEDGER_PATH = RESULTS_DIR / obs_ledger.LEDGER_FILENAME

_EMITTED: List[str] = []


@pytest.fixture(scope="session")
def sim():
    simulation = Simulation.build(
        config=RunConfig(scale=BENCH_SCALE, seed=BENCH_SEED)
    )
    simulation.run()
    return simulation


@pytest.fixture(scope="session")
def result(sim):
    return sim.run()


def emit(text: str) -> None:
    """Queue reproduced rows for the end-of-run summary and results file."""
    _EMITTED.append(text)


def emit_json(name: str, payload: dict) -> pathlib.Path:
    """Write a machine-readable benchmark record to ``BENCH_<name>.json``.

    The same payload is also appended as one compact line to the shared
    ``benchmarks/ledger.jsonl`` so benchmark numbers trend across
    sessions with ``obs history`` / ``obs regress`` alongside campaign
    records.
    """
    path = RESULTS_DIR / f"BENCH_{name}.json"
    record = dict(payload)
    # Machine provenance (cores, Python, git commit and dirty flag), so
    # a number can always be tied back to the code it measured; the
    # ledger record below reuses it rather than probing git again.
    record["env"] = obs_ledger.environment_info(str(RESULTS_DIR))
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    obs_ledger.append_record(
        str(LEDGER_PATH), obs_ledger.bench_record(name, record)
    )
    return path


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _EMITTED:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("reproduced tables and figures")
    for block in _EMITTED:
        terminalreporter.write_line(block)
        terminalreporter.write_line("")
    RESULTS_PATH.write_text("\n\n".join(_EMITTED) + "\n")
    terminalreporter.write_line(f"(also written to {RESULTS_PATH})")
