"""Tests for the top-level Simulation facade."""

import pytest

from repro.api import RunConfig
from repro.simulation import Simulation


class TestBuild:
    def test_components_wired(self, session_sim):
        assert session_sim.campaign.notifier is not None
        geography = session_sim.geography
        assert all(geography.locate(ip) is not None for ip in session_sim.fleet.all_ips)
        assert session_sim.population is session_sim.campaign.population

    def test_run_caches_result(self, session_sim):
        assert session_sim.run() is session_sim.run()

    def test_notification_report_none_before_run(self):
        sim = Simulation.build(config=RunConfig(scale=0.002, seed=99))
        assert sim.notification_report is None

    def test_inference_runs_campaign(self):
        sim = Simulation.build(config=RunConfig(scale=0.002, seed=98))
        engine = sim.inference()
        assert len(engine.rounds) == len(sim.run().rounds)

    def test_one_inference_engine_per_result(self, session_sim):
        session_sim.run()
        assert session_sim.inference() is session_sim.inference()


class TestShutdownOnFailure:
    def test_store_lock_released_when_the_campaign_raises(
        self, monkeypatch, tmp_path
    ):
        """A raising run must still release its writer lock (try/finally)."""
        from repro.store import RunStore

        config = RunConfig(scale=0.002, seed=5)
        sim = Simulation.build(config=config)
        store = RunStore(str(tmp_path / "store"))

        def boom(*, store=None):
            raise RuntimeError("probe infrastructure fell over")

        monkeypatch.setattr(sim.campaign, "run", boom)
        with pytest.raises(RuntimeError, match="fell over"):
            sim.run(store=store)
        assert sim.result is None  # a failed run caches nothing
        lock = store.acquire_lock(config)
        assert lock.held
        lock.release()


class TestDeterminism:
    def test_two_builds_agree_on_headline_numbers(self):
        a = Simulation.build(config=RunConfig(scale=0.003, seed=77))
        b = Simulation.build(config=RunConfig(scale=0.003, seed=77))
        ra, rb = a.run(), b.run()
        assert len(ra.initial.ip_records) == len(rb.initial.ip_records)
        assert sorted(ra.initial.vulnerable_ips()) == sorted(rb.initial.vulnerable_ips())
        assert ra.snapshot_status == rb.snapshot_status
        assert [r.results for r in ra.rounds] == [r.results for r in rb.rounds]

    def test_different_seeds_differ(self):
        a = Simulation.build(config=RunConfig(scale=0.003, seed=77))
        b = Simulation.build(config=RunConfig(scale=0.003, seed=78))
        assert sorted(a.run().initial.vulnerable_ips()) != sorted(
            b.run().initial.vulnerable_ips()
        )
