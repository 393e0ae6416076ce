"""The public facade: ``repro.api`` as the single entry point.

``open_run``/``run``/``resume`` plus :class:`RunHandle` are the surface
the CLI, the serve daemon, and embedding callers all share; these tests
pin the contract — handle lifecycle, probe schemas round-tripping
through JSON, census/patch queries, and resume-through-the-facade.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.errors import SimulationError

SCALE = 0.002
SEED = 5


@pytest.fixture(scope="module")
def handle():
    return api.open_run(api.RunConfig(scale=SCALE, seed=SEED))


@pytest.fixture(scope="module")
def first_domain(handle):
    return handle.simulation.population.table.name_at(0)


class TestOpenRun:
    def test_status_snapshot(self, handle):
        status = handle.status()
        assert status["domains"] == len(handle.simulation.population)
        assert status["initial_complete"] in (False, True)
        assert status["config_hash"] == handle.config.content_hash()
        assert status["rounds_total"] > 0

    def test_default_config(self):
        h = api.open_run()
        assert h.config == api.RunConfig()

    def test_context_manager_closes(self):
        with api.open_run(api.RunConfig(scale=SCALE, seed=SEED)) as h:
            assert h.simulation is not None


class TestProbeSchemas:
    def test_probe_request_roundtrip(self):
        request = api.ProbeRequest(kind="probe_domain", target="example.org")
        data = request.to_dict()
        assert data["v"] == api.SCHEMA_VERSION
        assert api.ProbeRequest.from_dict(data) == request

    def test_probe_request_rejects_unknown_kind(self):
        with pytest.raises(SimulationError, match="kind"):
            api.ProbeRequest(kind="scan_the_planet", target="example.org")

    def test_probe_request_rejects_empty_target(self):
        with pytest.raises(SimulationError, match="target"):
            api.ProbeRequest(kind="check_mta", target="")

    def test_version_mismatch_rejected(self):
        request = api.ProbeRequest(kind="probe_domain", target="example.org")
        data = request.to_dict()
        data["v"] = api.SCHEMA_VERSION + 1
        with pytest.raises(SimulationError, match="version"):
            api.ProbeRequest.from_dict(data)


class TestProbes:
    def test_probe_domain_result_roundtrip(self, handle, first_domain):
        result = handle.probe_domain(first_domain)
        assert result.kind == "probe_domain"
        assert result.target == first_domain
        assert result.ips  # the first domain resolves to something
        data = result.to_dict()
        assert api.ProbeResult.from_dict(data) == result
        for ip in result.ips:
            assert ip.suite  # detection ran and allocated labels

    def test_probe_dispatch_matches_direct_call(self, handle, first_domain):
        request = api.ProbeRequest(kind="probe_domain", target=first_domain)
        via_dispatch = handle.probe(request)
        direct = handle.probe_domain(first_domain)
        # Suites are freshly allocated per probe; everything semantic
        # (status, per-ip verdicts) must agree.
        assert via_dispatch.status == direct.status
        assert via_dispatch.target == direct.target
        assert [
            (ip.ip, ip.outcome, ip.vulnerable) for ip in via_dispatch.ips
        ] == [(ip.ip, ip.outcome, ip.vulnerable) for ip in direct.ips]

    def test_probe_is_repeatable(self, handle, first_domain):
        """Re-probing the same target gives the same verdict (world is
        deterministic; only labels/clock advance between probes)."""
        first = handle.probe_domain(first_domain)
        second = handle.probe_domain(first_domain)
        assert first.status == second.status
        assert [ip.outcome for ip in first.ips] == [
            ip.outcome for ip in second.ips
        ]

    def test_check_mta(self, handle, first_domain):
        ip = handle.probe_domain(first_domain).ips[0].ip
        result = handle.check_mta(ip)
        assert result.kind == "check_mta"
        assert result.target == ip
        assert len(result.ips) == 1

    def test_unknown_domain_raises(self, handle):
        with pytest.raises(SimulationError, match="unknown domain"):
            handle.census_row("no-such-domain.invalid")
        # A real name whose base36 suffix is upper-cased names no domain.
        table = handle.simulation.population.table
        name = next(
            name
            for name in map(table.name_at, range(table.n_providers, len(table)))
            if any(c.isalpha() for c in name.rpartition(".")[0].rpartition("-")[2])
        )
        assert handle.census_row(name)["domain"] == name
        label, _, tld = name.rpartition(".")
        word, _, suffix = label.rpartition("-")
        with pytest.raises(SimulationError, match="unknown domain"):
            handle.census_row(f"{word}-{suffix.upper()}.{tld}")


class TestCensusAndPatch:
    def test_census_row(self, handle, first_domain):
        row = handle.census_row(first_domain)
        assert row["domain"] == first_domain
        assert row["v"] == api.SCHEMA_VERSION
        assert isinstance(row["sets"], list)

    def test_patch_status_since(self, handle, first_domain):
        handle.ensure_initial()
        handle.advance_rounds(2)
        status = handle.patch_status_since(first_domain, since=0)
        assert status["domain"] == first_domain
        assert len(status["rounds"]) <= handle.status()["rounds_completed"]
        assert isinstance(status["patched"], bool)


    def test_negative_round_count_is_refused(self, handle):
        handle.ensure_initial()
        done = handle.status()["rounds_completed"]
        with pytest.raises(SimulationError, match="must be >= 0"):
            handle.advance_rounds(-1)
        with pytest.raises(SimulationError, match="must be >= 0"):
            handle.simulation.campaign.advance_rounds(-1)
        assert handle.advance_rounds(0) == []
        assert handle.status()["rounds_completed"] == done


class TestModuleEntryPoints:
    def test_api_run_returns_campaign_result(self):
        result = api.run(api.RunConfig(scale=SCALE, seed=SEED))
        assert result.initial is not None
        assert result.rounds

    def test_resume_through_facade(self, tmp_path):
        from repro.store import RunStore

        store = RunStore(str(tmp_path / "runs"))
        config = api.RunConfig(scale=SCALE, seed=SEED)
        reference = api.run(config)
        api.run(config, store=store)

        resumed = api.resume(str(store.root), config.content_hash())
        assert resumed.status()["initial_complete"]
        result = resumed.run(store=store)
        assert len(result.rounds) == len(reference.rounds)
        assert result.snapshot_status == reference.snapshot_status

    def test_stepped_handle_finishes_like_a_fresh_run(self, tmp_path):
        """Rounds advanced on a handle are the batch run's rounds: run()
        finishes the campaign instead of starting it again, and crossing
        the notification date sends the notification."""
        from repro.analysis.export import export_all
        from repro.obs import Observation

        config = api.RunConfig(scale=SCALE, seed=SEED, trace=True)
        outputs = []
        for name in ("fresh", "stepped"):
            obs = Observation(trace=True)
            handle = api.open_run(config, observation=obs)
            if name == "stepped":
                handle.ensure_initial()
                handle.advance_rounds(12)
                assert handle.simulation.notification_report is not None
            result = handle.run()
            trace = tmp_path / f"{name}.jsonl"
            obs.tracer.write_jsonl(str(trace))
            export_all(handle.simulation, str(tmp_path / name))
            csv = {
                path.name: path.read_bytes()
                for path in sorted((tmp_path / name).iterdir())
            }
            stages = len(handle.campaign.executor.metrics.stages)
            outputs.append((trace.read_bytes(), csv, stages))
            assert result.notification_report is not None
        assert outputs[1] == outputs[0]
        assert outputs[0][2] == 2 + len(handle.campaign.round_dates())

    def test_resume_unknown_hash_is_an_error(self, tmp_path):
        from repro.errors import StoreError
        from repro.store import RunStore

        store = RunStore(str(tmp_path / "runs"))
        with pytest.raises(StoreError):
            api.resume(store, "deadbeef" * 8)
