"""Tests for the cross-run performance ledger (:mod:`repro.obs.ledger`).

Three layers:

- record shape: golden-file round-trip (parse -> validate -> serialize
  must be byte-identical), append/read symmetry, slice loading;
- the noise-gated comparison protocol: clear regression, clear
  improvement, noise-mooted, metric direction, declared-noise folding;
- the CLI end to end: ``obs history`` / ``obs regress`` exit codes on
  synthetic ledgers, a real ``run --ledger`` appending exactly one
  well-formed record, identical reruns NOT firing the gate on this
  noisy container, and a sleep-instrumented slowdown firing it; and a
  run record's stage rows, which are the executor's ``StageMetrics``
  rows, with the same keys untraced, traced and profiled.
"""

import json
import pathlib
from types import SimpleNamespace

import pytest

from repro.__main__ import main
from repro.obs import ledger as L

DATA = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "ledger_golden.jsonl"


def _record(value: float, *, kind: str = "run", noise=None, **overrides) -> dict:
    """A minimal valid run record carrying one probes_per_second sample."""
    rec = {
        "v": L.LEDGER_VERSION,
        "kind": kind,
        "ts": 1754600000.0,
        "config_hash": "cafe" * 16,
        "env": {"cpus": 1, "python": "3.11.7"},
        "probes_per_second": value,
        # pre-rounded so records survive the serializer's 6-digit float
        # canonicalization byte-identically
        "wall_seconds": round(1000.0 / value, 6),
    }
    if noise is not None:
        rec["noise"] = noise
    rec.update(overrides)
    return rec


def _write_ledger(path, values, **kwargs) -> str:
    for value in values:
        L.append_record(str(path), _record(value, **kwargs))
    return str(path)


class TestRecordShape:
    def test_golden_round_trip(self):
        """Parsing the committed golden ledger and re-serializing every
        record must reproduce the file byte for byte — the on-disk shape
        is an interchange format, not an implementation detail."""
        records = L.read_ledger(str(GOLDEN))
        assert len(records) == 2
        round_tripped = "".join(
            L.serialize_record(L.validate_record(rec)) + "\n" for rec in records
        )
        assert round_tripped == GOLDEN.read_text()

    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        first = _record(1234.5)
        second = _record(2345.6, kind="resume")
        L.append_record(str(path), first)
        L.append_record(str(path), second)
        assert L.read_ledger(str(path)) == [first, second]

    def test_append_rejects_invalid(self, tmp_path):
        with pytest.raises(L.LedgerError):
            L.append_record(str(tmp_path / "l.jsonl"), {"kind": "run"})

    def test_validate_rejects_bad_version_and_env(self):
        rec = _record(1.0)
        with pytest.raises(L.LedgerError):
            L.validate_record(dict(rec, v=99))
        with pytest.raises(L.LedgerError):
            L.validate_record(dict(rec, env="not-a-dict"))

    def test_load_slice_spellings(self, tmp_path):
        """jsonl file, directory holding one, and single-record .json all
        load."""
        jsonl = tmp_path / "ledger.jsonl"
        _write_ledger(jsonl, [100.0, 200.0])
        assert len(L.load_slice(str(jsonl))) == 2
        directory = tmp_path / "bench"
        directory.mkdir()
        _write_ledger(directory / L.LEDGER_FILENAME, [300.0])
        assert len(L.load_slice(str(directory))) == 1
        single = tmp_path / "BASELINE.json"
        single.write_text(json.dumps(_record(400.0)))
        [loaded] = L.load_slice(str(single))
        assert loaded["probes_per_second"] == 400.0

    def test_metric_value_reads_top_level_and_metrics_dict(self):
        assert L.metric_value(_record(55.0), "probes_per_second") == 55.0
        bench = {"metrics": {"overhead": 0.07}}
        assert L.metric_value(bench, "overhead") == 0.07
        assert L.metric_value(bench, "missing") is None


class TestCompare:
    def test_clear_regression(self):
        result = L.compare([100.0] * 5, [60.0] * 5, threshold=0.15)
        assert result.verdict == "regression"
        assert result.regressed
        assert result.asserted
        assert result.change == pytest.approx(0.4)

    def test_clear_improvement(self):
        result = L.compare([100.0] * 5, [200.0] * 5, threshold=0.15)
        assert result.verdict == "improvement"
        assert not result.regressed

    def test_within_budget_is_ok(self):
        result = L.compare([100.0] * 5, [95.0] * 5, threshold=0.15)
        assert result.verdict == "ok"
        assert not result.regressed

    def test_noise_moots_the_assertion(self):
        """A 40% drop on a machine whose identical baseline runs spread
        60% is a recorded observation, not a confirmed regression."""
        baseline = [100.0, 160.0, 100.0, 160.0, 100.0]
        result = L.compare(baseline, [60.0] * 5, threshold=0.15)
        assert result.verdict == "noise-mooted"
        assert not result.regressed
        assert not result.asserted
        assert result.noise == pytest.approx(0.6)

    def test_noise_floor_gates_too(self):
        result = L.compare([100.0] * 5, [70.0] * 5, threshold=0.15, noise_floor=0.5)
        assert result.verdict == "noise-mooted"

    def test_lower_is_better_direction(self):
        slower = L.compare([10.0] * 3, [15.0] * 3, metric="wall_seconds")
        assert slower.lower_is_better
        assert slower.verdict == "regression"
        faster = L.compare([10.0] * 3, [5.0] * 3, metric="wall_seconds")
        assert faster.verdict == "improvement"

    def test_pair_ratios_align_recent_tail(self):
        # Older baseline samples fall away: only the last two pair up.
        assert L.pair_ratios([999.0, 100.0, 200.0], [50.0, 100.0]) == [0.5, 0.5]

    def test_compare_records_folds_declared_noise(self):
        """A committed baseline measured on a noisy box carries its own
        error bar into every later comparison against it."""
        baseline = [_record(100.0, noise=0.5)]
        candidate = [_record(70.0)]
        result = L.compare_records(baseline, candidate, threshold=0.15)
        assert result.noise == pytest.approx(0.5)
        assert result.verdict == "noise-mooted"
        confirmed = L.compare_records(baseline, [_record(30.0)], threshold=0.15)
        assert confirmed.verdict == "regression"


class TestObsCli:
    def test_regress_exit_codes(self, tmp_path, capsys):
        base = _write_ledger(tmp_path / "base.jsonl", [100.0] * 3)
        slow = _write_ledger(tmp_path / "slow.jsonl", [50.0] * 3)
        same = _write_ledger(tmp_path / "same.jsonl", [101.0] * 3)
        assert main(["obs", "regress", base, slow]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert main(["obs", "regress", base, same]) == 0
        assert "ok: within budget" in capsys.readouterr().out
        # The same slowdown under a --noise floor wider than the change
        # is mooted: recorded, exit 0.
        assert main(["obs", "regress", base, slow, "--noise", "0.8"]) == 0
        assert "noise-mooted" in capsys.readouterr().out

    def test_regress_json_output(self, tmp_path):
        base = _write_ledger(tmp_path / "base.jsonl", [100.0] * 3)
        slow = _write_ledger(tmp_path / "slow.jsonl", [50.0] * 3)
        out = tmp_path / "verdict.json"
        assert main(["obs", "regress", base, slow, "--json", str(out)]) == 1
        verdict = json.loads(out.read_text())
        assert verdict["verdict"] == "regression"
        assert verdict["median_ratio"] == pytest.approx(0.5)

    def test_regress_missing_metric_is_usage_error(self, tmp_path):
        base = _write_ledger(tmp_path / "base.jsonl", [100.0])
        assert main(["obs", "regress", base, base, "--metric", "nope"]) == 2

    def test_history_renders_trend_tables(self, tmp_path, capsys):
        ledger = _write_ledger(tmp_path / "ledger.jsonl", [100.0, 120.0, 140.0])
        assert main(["obs", "history", ledger]) == 0
        out = capsys.readouterr().out
        assert "Performance ledger history (3 record(s))" in out
        assert "probes_per_second" in out and "wall_seconds" in out
        assert "| # | when (UTC) |" in out

    def test_history_json_and_filters(self, tmp_path):
        ledger = _write_ledger(tmp_path / "ledger.jsonl", [100.0, 120.0, 140.0])
        out = tmp_path / "history.json"
        assert (
            main(
                [
                    "obs", "history", ledger,
                    "--metric", "probes_per_second",
                    "--last", "2", "--json", str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert list(payload["metrics"]) == ["probes_per_second"]
        rows = payload["metrics"]["probes_per_second"]["rows"]
        assert [row["value"] for row in rows] == [120.0, 140.0]

    def test_history_missing_ledger_is_usage_error(self, tmp_path, capsys):
        assert main(["obs", "history", str(tmp_path / "absent.jsonl")]) == 2
        assert "obs history failed" in capsys.readouterr().err

    def test_obs_record_is_gone(self, tmp_path, capsys):
        # A record is written by the process that measured the run; there
        # is no back-filling one from a run's artifacts afterwards.
        with pytest.raises(SystemExit) as exit_info:
            main(["obs", "record", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "invalid choice: 'record'" in capsys.readouterr().err


class TestLedgerRunIntegration:
    BASE = ["run", "--scale", "0.002", "--seed", "5", "--artifact", "table6"]

    def test_run_appends_exactly_one_wellformed_record(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert main([*self.BASE, "--ledger", str(ledger)]) == 0
        assert "ledger: record appended" in capsys.readouterr().out
        [record] = L.read_ledger(str(ledger))
        L.validate_record(record)
        assert record["kind"] == "run"
        assert record["scale"] == 0.002
        assert record["seed"] == 5
        assert not {"executor", "workers", "world"} & set(record)
        assert record["probes"] > 0
        assert record["probes_per_second"] > 0
        assert record["wall_seconds"] > 0
        assert record["wall_seconds"] >= record["probe_wall_seconds"] * 0.5
        assert record["counters"]["dns.resolver.queries"] > 0
        assert record["env"]["cpus"] >= 1

    def test_identical_reruns_do_not_fire_the_gate(self, tmp_path):
        """Two runs of the same config differ only by machine noise; with
        the documented --noise floor for this container the gate must
        stay quiet (acceptance: no false positives on identical configs)."""
        ledger = tmp_path / "ledger.jsonl"
        assert main([*self.BASE, "--ledger", str(ledger)]) == 0
        assert main([*self.BASE, "--ledger", str(ledger)]) == 0
        assert len(L.read_ledger(str(ledger))) == 2
        assert (
            main(["obs", "regress", str(ledger), str(ledger), "--noise", "0.5"])
            == 0
        )

    def test_injected_slowdown_is_detected(self, tmp_path, monkeypatch):
        """A sleep instrumented into the per-probe hot path must fire the
        gate even through the 0.5 noise floor used on this container."""
        from time import sleep

        from repro.core.detector import VulnerabilityDetector

        base = tmp_path / "base.jsonl"
        cand = tmp_path / "cand.jsonl"
        assert main([*self.BASE, "--ledger", str(base)]) == 0

        real = VulnerabilityDetector.detect

        def slowed(self, *args, **kwargs):
            sleep(0.004)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(VulnerabilityDetector, "detect", slowed)
        assert main([*self.BASE, "--ledger", str(cand)]) == 0
        result = L.compare_records(
            L.read_ledger(str(base)), L.read_ledger(str(cand)),
            threshold=0.15, noise_floor=0.5,
        )
        assert result.verdict == "regression"
        assert (
            main(["obs", "regress", str(base), str(cand), "--noise", "0.5"])
            == 1
        )

    def test_ledger_leaves_trace_bytes_unchanged(self, tmp_path):
        """The ledger observes; it must not perturb the deterministic
        artifacts (trace bytes identical with the ledger on or off)."""
        plain = tmp_path / "plain.jsonl"
        with_ledger = tmp_path / "ledgered.jsonl"
        assert main([*self.BASE, "--trace", str(plain)]) == 0
        assert (
            main(
                [
                    *self.BASE,
                    "--trace", str(with_ledger),
                    "--ledger", str(tmp_path / "ledger.jsonl"),
                ]
            )
            == 0
        )
        assert plain.read_bytes() == with_ledger.read_bytes()

    def test_perf_run_stages_join_profile_json(self, modes):
        """A profiled run's ledger rows (the executor's) and ``trace
        profile --json``'s rows (the sideband's) describe the same stages
        in the same order, with the same probe counts."""
        profile_json = modes.root / "profile.json"
        assert (
            main(
                [
                    "trace", "profile", str(modes.trace),
                    "--perf", str(modes.perf),
                    "--json", str(profile_json),
                ]
            )
            == 0
        )
        profile = json.loads(profile_json.read_text())
        rows = modes.records["profiled"]["stages"]
        assert [(row["stage"], row["probes_attempted"]) for row in rows] == [
            (row["name"], row["probes"]) for row in profile["stages"]
        ]
        assert sum(row["wall"] for row in profile["stages"]) > 0

    def test_stage_rows_equal_metrics_out_executor_stages(self, modes):
        """The record's stage rows are ``--metrics-out``'s
        ``executor_stages`` rows at the ledger's float rounding, and
        their wall times add up to the record's probe wall time."""
        for mode, record in modes.records.items():
            metrics = json.loads(modes.metrics[mode].read_text())
            expected = json.loads(
                L.serialize_record(metrics["executor_stages"]["stages"])
            )
            assert record["stages"] == expected, mode
            wall = sum(row["wall_seconds"] for row in record["stages"])
            assert wall == pytest.approx(record["probe_wall_seconds"], abs=1e-5)

    def test_record_keys_do_not_depend_on_the_mode(self, modes):
        """No field says whether a run was traced or profiled, and no
        field appears only in one of those modes."""
        keys = {mode: set(record) for mode, record in modes.records.items()}
        assert keys["untraced"] == keys["traced"] == keys["profiled"]
        assert "stages" in keys["untraced"]
        row_keys = {
            frozenset(row)
            for record in modes.records.values()
            for row in record["stages"]
        }
        assert len(row_keys) == 1

    def test_store_holds_no_ledger(self, modes):
        # The --ledger file is a record's only destination.
        assert list(modes.store.rglob("*.jsonl")) == []
        assert list(modes.store.glob("run-*/manifest.json"))


@pytest.fixture(scope="module")
def modes(tmp_path_factory):
    """One run per measurement mode, each with ``--ledger`` and
    ``--metrics-out``; the untraced one is checkpointed into a store."""
    root = tmp_path_factory.mktemp("ledger-modes")
    base = ["run", "--scale", "0.002", "--seed", "5", "--artifact", "table6"]
    extra = {
        "untraced": ["--store", str(root / "store")],
        "traced": ["--trace", str(root / "traced.jsonl")],
        "profiled": [
            "--trace", str(root / "profiled.jsonl"),
            "--perf", str(root / "perf"),
        ],
    }
    records, metrics = {}, {}
    for mode, flags in extra.items():
        ledger = root / f"{mode}.ledger.jsonl"
        metrics[mode] = root / f"{mode}.metrics.json"
        assert main([
            *base, *flags,
            "--ledger", str(ledger), "--metrics-out", str(metrics[mode]),
        ]) == 0
        [records[mode]] = L.read_ledger(str(ledger))
    return SimpleNamespace(
        root=root,
        records=records,
        metrics=metrics,
        store=root / "store",
        trace=root / "profiled.jsonl",
        perf=root / "perf",
    )
