"""The perf sideband must never change a canonical byte.

``--perf`` records wall-clock span timings and an end-of-run resource
reading into a *separate* directory; the contract (DESIGN.md,
"Performance telemetry sideband") is that turning it on changes nothing
the determinism suite byte-compares: the canonical trace, the exported
CSVs, and the report
(modulo the report's pre-existing wall-clock columns, which differ
between *any* two runs, perf or not).

The second half of the contract is that the sideband itself is useful:
every span/task/stage record joins 1:1 against the canonical trace by
span id, and the end-of-run reading carries resources and world
counters.
"""

from __future__ import annotations

import json
import os
import re
from types import SimpleNamespace

import pytest

from repro.analysis.export import export_all
from repro.analysis.report import generate_report
from repro.api import RunConfig
from repro.obs import Observation, PerfRecorder
from repro.obs.perf import (
    META_FILE,
    SPAN_STREAM,
    load_perf_dir,
    simulation_counters,
)
from repro.simulation import Simulation

SCALE = 0.02
SEED = 20211011


def _csv_bytes(directory):
    return {
        name: (directory / name).read_bytes()
        for name in sorted(os.listdir(directory))
    }


def _run(root, *, perf):
    perf_dir = str(root / "perf") if perf else None
    config = RunConfig(scale=SCALE, seed=SEED, trace=True)
    obs = Observation(trace=True)
    if perf_dir:
        obs.attach_perf(PerfRecorder(perf_dir))
    sim = Simulation.build(config=config, observation=obs)
    sim.run()
    trace = root / "trace.jsonl"
    obs.tracer.write_jsonl(str(trace))
    export_all(sim, str(root / "csv"))
    report = generate_report(sim)
    if obs.perf is not None:
        obs.perf.finalize(simulation_counters(sim))
    return SimpleNamespace(
        sim=sim,
        trace=trace.read_bytes(),
        csv=_csv_bytes(root / "csv"),
        report=report,
        perf_dir=perf_dir,
    )


@pytest.fixture(scope="module")
def serial_off(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("serial-off"), perf=False)


@pytest.fixture(scope="module")
def serial_on(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("serial-on"), perf=True)


# -- canonical artifacts are untouched ---------------------------------------


def test_serial_trace_and_csv_bytes_identical(serial_off, serial_on):
    assert serial_on.trace == serial_off.trace
    assert serial_on.csv == serial_off.csv


_WALL_CELLS = re.compile(r"\| [\d.]+ \| [\d,]+ \|$")


def _mask_wall(report: str) -> str:
    """Blank the report's wall-clock-derived cells.

    The stage table's last two columns (wall s, probes/s) are wall-clock
    measurements and differ between any two runs of the same config —
    with or without perf.  Everything else in the report, the
    Observability section included, is deterministic and compared
    exactly.
    """
    return "\n".join(
        _WALL_CELLS.sub("| WALL | RATE |", line) for line in report.splitlines()
    )


def test_serial_report_identical_modulo_wall_columns(serial_off, serial_on):
    assert _mask_wall(serial_on.report) == _mask_wall(serial_off.report)


def test_report_cache_counters_present_and_perf_independent(
    serial_off, serial_on
):
    # The "World cache efficiency" section renders deterministic counts
    # with or without --perf, byte-for-byte.
    def section(report):
        lines = report.splitlines()
        start = lines.index("### World cache efficiency")
        return lines[start:]

    assert section(serial_off.report) == section(serial_on.report)
    body = "\n".join(section(serial_off.report))
    assert "population.row_regens" in body
    assert "dns.resolver.queries" in body


# -- the sideband itself ------------------------------------------------------


def _trace_sids(trace_bytes):
    """(span ids, task scopes, stage scopes) seen in the canonical trace.

    Every span's ``<name>.begin`` event carries its own id in the
    ``span`` field (child events carry the enclosing id, which is also
    in the set), so the set of all non-null ``span`` values is exactly
    the set of span ids.
    """
    spans, tasks, stages = set(), set(), set()
    for line in trace_bytes.decode().splitlines():
        event = json.loads(line)
        if event["span"]:
            spans.add(event["span"])
        if event["name"] == "task.begin":
            tasks.add(event["scope"])
        elif event["name"] == "stage.begin":
            stages.add(event["scope"])
    return spans, tasks, stages


def _perf_sids(perf_dir):
    records, _ = load_perf_dir(perf_dir)
    by_kind = {"span": set(), "task": set(), "stage": set()}
    for record in records:
        by_kind[record.kind].add(record.sid)
    return records, by_kind


@pytest.mark.parametrize("fixture", ["serial_on"])
def test_perf_records_join_trace_one_to_one(fixture, request):
    run = request.getfixturevalue(fixture)
    records, by_kind = _perf_sids(run.perf_dir)
    spans, tasks, stages = _trace_sids(run.trace)
    assert by_kind["span"] == spans
    assert by_kind["task"] == tasks
    assert by_kind["stage"] == stages
    # 1:1, not just same sets: one perf record per trace span.
    assert len(records) == len(spans) + len(tasks) + len(by_kind["stage"])
    assert all(record.wall >= 0.0 for record in records)


def test_merged_streams_and_meta_exist(serial_on):
    for name in (SPAN_STREAM, META_FILE):
        path = os.path.join(serial_on.perf_dir, name)
        assert os.path.exists(path), name
        assert os.path.getsize(path) > 0, name
    # The span stream and the meta file are the only files written.
    assert sorted(os.listdir(serial_on.perf_dir)) == sorted(
        [SPAN_STREAM, META_FILE]
    )
    meta = json.load(open(os.path.join(serial_on.perf_dir, META_FILE)))
    # One process writes the streams: there is no per-process role.
    assert "roles" not in meta
    records, _ = _perf_sids(serial_on.perf_dir)
    assert meta["records"] == len(records)


def test_meta_carries_the_end_of_run_reading(serial_on):
    records, meta = load_perf_dir(serial_on.perf_dir)
    # Neither file names the process that wrote it.
    assert "role" not in meta
    assert not any(hasattr(record, "role") for record in records)
    with open(os.path.join(serial_on.perf_dir, SPAN_STREAM)) as handle:
        assert '"role"' not in handle.read()
    assert meta["rss_peak_kb"] >= meta["rss_last_kb"] > 0
    assert meta["gc"]["collections"] >= 0
    # The reading's counters are the finished run's.
    assert meta["counters"] == simulation_counters(serial_on.sim)
    assert meta["counters"]["dns.resolver.queries"] > 0
