"""Admission and dispatch behavior of :class:`ScanService`.

The contracts under test: a full queue answers 429 immediately (no
unbounded backlog), a service that is not running answers 503 at once
(no wait for a timeout), per-tenant rate limiting reuses
:class:`EthicsControls` (second probe of one target inside the
reconnect wait → 429 with Retry-After; a different tenant is
unaffected), unknown methods 404, domain-level refusals are 404s (not
500s), and every completed request lands in the latency accounting.
"""

from __future__ import annotations

import datetime as _dt
import sys
import threading
import time

import pytest

from repro import api
from repro.core.ethics import EthicsControls
from repro.serve import PROBE_METHODS, ScanService, exact_percentile

SCALE = 0.002
SEED = 5


@pytest.fixture(scope="module")
def handle():
    h = api.open_run(api.RunConfig(scale=SCALE, seed=SEED))
    h.ensure_initial()
    return h


@pytest.fixture(scope="module")
def domain(handle):
    return handle.simulation.population.name_at(0)


def _service(handle, **kwargs):
    return ScanService(handle, **kwargs)


class TestExactPercentile:
    def test_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert exact_percentile(samples, 0.50) == 50.0
        assert exact_percentile(samples, 0.99) == 99.0
        assert exact_percentile(samples, 1.00) == 100.0
        assert exact_percentile([7.0], 0.99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            exact_percentile([], 0.5)


class TestAdmission:
    def test_unknown_method_404(self, handle):
        with _service(handle) as service:
            status, body = service.submit("explode", {})
            assert status == 404
            assert "unknown method" in body["error"]

    def test_probe_without_target_400(self, handle):
        with _service(handle) as service:
            for method in PROBE_METHODS:
                status, body = service.submit(method, {})
                assert status == 400

    @pytest.mark.parametrize("since", ["abc", None, -2, 1.7, True, [1]])
    def test_malformed_since_is_400_not_500(self, handle, domain, since):
        with _service(handle) as service:
            status, body = service.submit(
                "patch_status_since", {"target": domain, "since": since}
            )
            assert status == 400
            assert "since" in body["error"]
            assert service.stats()["errors"] == 0

    @pytest.mark.parametrize("payload", [{}, {"since": 0}, {"since": 3}])
    def test_integer_since_is_accepted(self, handle, domain, payload):
        with _service(handle) as service:
            status, body = service.submit(
                "patch_status_since", dict(payload, target=domain)
            )
            assert status == 200
            assert body["since"] == payload.get("since", 0)

    def test_unknown_domain_is_404_not_500(self, handle):
        with _service(handle) as service:
            status, body = service.submit(
                "spf_census_row", {"target": "no-such.invalid"}
            )
            assert status == 404
            assert "unknown domain" in body["error"]

    def test_queue_full_answers_429(self, handle, domain, monkeypatch):
        """queue_depth=1 + a blocked dispatcher → next request refused."""
        release = threading.Event()
        entered = threading.Event()
        original = handle.census_row

        def slow_census(name):
            entered.set()
            release.wait(timeout=30)
            return original(name)

        monkeypatch.setattr(handle, "census_row", slow_census)
        service = _service(handle, queue_depth=1)
        service.start()
        try:
            # First request occupies the dispatcher...
            blocker = threading.Thread(
                target=service.submit,
                args=("spf_census_row", {"target": domain}),
                daemon=True,
            )
            blocker.start()
            assert entered.wait(timeout=10)
            # ...second fills the queue...
            filler = threading.Thread(
                target=service.submit,
                args=("spf_census_row", {"target": domain}),
                daemon=True,
            )
            filler.start()
            deadline = _dt.datetime.now() + _dt.timedelta(seconds=10)
            while service._queue.qsize() < 1:
                assert _dt.datetime.now() < deadline
            # ...third is refused immediately with queue-full.
            status, body = service.submit(
                "spf_census_row", {"target": domain}
            )
            assert status == 429
            assert body["reason"] == "queue-full"
            assert service.stats()["rejected_queue_full"] == 1
        finally:
            release.set()
            blocker.join(timeout=30)
            filler.join(timeout=30)
            service.stop()

    def test_queue_full_probe_releases_rate_limit_slot(
        self, handle, domain, monkeypatch
    ):
        """A probe bounced by the queue must not eat a concurrency slot."""
        release = threading.Event()
        entered = threading.Event()
        original = handle.census_row

        def slow_census(name):
            entered.set()
            release.wait(timeout=30)
            return original(name)

        monkeypatch.setattr(handle, "census_row", slow_census)
        service = _service(
            handle,
            queue_depth=1,
            tenant_limits=lambda: EthicsControls(
                max_concurrent_connections=1,
                min_reconnect_wait=_dt.timedelta(seconds=0),
            ),
        )
        service.start()
        try:
            blocker = threading.Thread(
                target=service.submit,
                args=("spf_census_row", {"target": domain}),
                daemon=True,
            )
            blocker.start()
            assert entered.wait(timeout=10)
            filler = threading.Thread(
                target=service.submit,
                args=("spf_census_row", {"target": domain}),
                daemon=True,
            )
            filler.start()
            deadline = _dt.datetime.now() + _dt.timedelta(seconds=10)
            while service._queue.qsize() < 1:
                assert _dt.datetime.now() < deadline
            status, body = service.submit("probe_domain", {"target": domain})
            assert status == 429 and body["reason"] == "queue-full"
            release.set()
            blocker.join(timeout=30)
            filler.join(timeout=30)
            # The slot was released on the bounce: with the queue drained
            # the same probe is admitted (concurrency cap is 1).
            status, body = service.submit("probe_domain", {"target": domain})
            assert status == 200
        finally:
            release.set()
            service.stop()

    def test_not_running_answers_503_at_once(self, handle, domain):
        """Never started, then stopped: refused at once, nothing queued."""
        service = _service(
            handle,
            request_timeout=2,
            tenant_limits=lambda: EthicsControls(
                max_concurrent_connections=1,
                min_reconnect_wait=_dt.timedelta(seconds=0),
            ),
        )
        for phase in ("never started", "stopped"):
            started = time.monotonic()
            status, body = service.submit("spf_census_row", {"target": domain})
            assert status == 503, phase
            assert body["reason"] == "stopped"
            # The refused probe gives its concurrency slot back.
            assert service.submit("probe_domain", {"target": domain})[0] == 503
            assert time.monotonic() - started < 1.0, phase
            assert service._queue.qsize() == 0
            status, body = service.submit("run_status", {})
            assert status == 200 and "service" in body
            service.start()
            assert service.submit("probe_domain", {"target": domain})[0] == 200
            service.stop()

    def test_submits_racing_stop_are_answered_or_refused(self, handle, domain):
        """Nothing is queued behind stop()'s sentinel to wait for a 504."""
        service = _service(handle, request_timeout=5).start()
        statuses = []

        def client():
            for _ in range(25):
                statuses.append(
                    service.submit("spf_census_row", {"target": domain})[0]
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [
                threading.Thread(target=client, daemon=True) for _ in range(4)
            ]
            for thread in clients:
                thread.start()
            service.stop()
            for thread in clients:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in clients)
        finally:
            sys.setswitchinterval(interval)
        assert len(statuses) == 100
        assert set(statuses) <= {200, 503}
        assert service._queue.qsize() == 0


class TestRateLimit:
    def _limited(self, handle, *, wait_seconds=90):
        return _service(
            handle,
            tenant_limits=lambda: EthicsControls(
                min_reconnect_wait=_dt.timedelta(seconds=wait_seconds)
            ),
        )

    def test_reprobe_inside_wait_refused_with_retry_after(
        self, handle, domain
    ):
        with self._limited(handle) as service:
            status, _ = service.submit("probe_domain", {"target": domain})
            assert status == 200
            status, body = service.submit("probe_domain", {"target": domain})
            assert status == 429
            assert body["reason"] == "rate-limit"
            assert 0 < body["retry_after"] <= 90
            assert service.stats()["rejected_rate_limit"] == 1

    def test_limits_are_per_tenant(self, handle, domain):
        with self._limited(handle) as service:
            status, _ = service.submit(
                "probe_domain", {"target": domain}, tenant="alice"
            )
            assert status == 200
            # alice is rate limited on that target; bob is not.
            status, _ = service.submit(
                "probe_domain", {"target": domain}, tenant="alice"
            )
            assert status == 429
            status, _ = service.submit(
                "probe_domain", {"target": domain}, tenant="bob"
            )
            assert status == 200

    def test_reads_never_rate_limited(self, handle, domain):
        with self._limited(handle) as service:
            for _ in range(5):
                status, _ = service.submit(
                    "spf_census_row", {"target": domain}
                )
                assert status == 200


class TestAccounting:
    def test_stats_track_requests_and_latency(self, handle, domain):
        with _service(handle) as service:
            service.submit("spf_census_row", {"target": domain})
            service.submit("run_status", {})
            stats = service.stats()
            assert stats["requests"] == 2
            assert stats["by_method"] == {"run_status": 1, "spf_census_row": 1}
            assert stats["errors"] == 0
            assert stats["latency_ms"]["count"] == 2
            assert stats["latency_ms"]["max"] >= stats["latency_ms"]["p50"]

    def test_stats_percentiles_equal_exact_percentile(self, handle, domain):
        with _service(handle) as service:
            for i in range(300):
                method = "run_status" if i % 3 else "spf_census_row"
                status, _ = service.submit(method, {"target": domain})
                assert status == 200
            samples = service.latencies_ms()
            latency = service.stats()["latency_ms"]
        assert latency["count"] == len(samples) == 300
        for key, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
            assert latency[key] == round(exact_percentile(samples, q), 3)
        assert latency["max"] == round(max(samples), 3)

    def test_run_status_carries_world_and_service(self, handle, domain):
        with _service(handle) as service:
            status, body = service.submit("run_status", {})
            assert status == 200
            assert body["domains"] == len(handle.simulation.population)
            assert body["initial_complete"] is True
            assert "service" in body

    def test_internal_error_is_500_and_counted(self, handle, monkeypatch):
        def boom(name):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(handle, "census_row", boom)
        with _service(handle) as service:
            status, body = service.submit(
                "spf_census_row", {"target": "x.org"}
            )
            assert status == 500
            assert "internal error" in body["error"]
            assert service.stats()["errors"] == 1
