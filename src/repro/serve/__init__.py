"""``repro serve``: a long-lived scan service over a resident world.

The batch pipeline answers "what was the state of the whole population
on date D"; this package answers the operator-shaped questions from the
ROADMAP's scan-as-a-service item — "is this domain/MTA spoofable right
now, and has it patched since round N?" — from a world that stays
resident between requests.

- :mod:`repro.serve.service` — admission (bounded queue → 429),
  per-tenant rate limits reusing :class:`repro.core.ethics.
  EthicsControls`, single-dispatcher world access, latency accounting;
- :mod:`repro.serve.httpd` — the ``POST /v1/<method>`` JSON listener
  (TCP loopback or unix socket) on stdlib ``http.server``;
- :mod:`repro.serve.client` — the matching typed client
  (:class:`ScanClient`), returning the same :class:`repro.api.
  ProbeResult` values the in-process API does;
- :mod:`repro.serve.loadtest` — deterministic synthetic load and
  ledger-ready latency records.

Start one from the CLI (``python -m repro serve --scale 0.05``) or
in-process::

    from repro import api
    from repro.serve import ScanService, start_server

    handle = api.open_run(api.RunConfig(scale=0.02))
    service = ScanService(handle)
    server, _ = start_server(service, port=8754)
"""

from ..obs.metrics import exact_percentile
from .client import ScanClient
from .httpd import ScanHTTPServer, UnixScanHTTPServer, start_server
from .loadtest import (
    DEFAULT_MIX,
    LoadTestReport,
    build_plan,
    loadtest_record,
    run_loadtest,
)
from .service import METHODS, PROBE_METHODS, ScanService

__all__ = [
    "DEFAULT_MIX",
    "LoadTestReport",
    "METHODS",
    "PROBE_METHODS",
    "ScanClient",
    "ScanHTTPServer",
    "ScanService",
    "UnixScanHTTPServer",
    "build_plan",
    "exact_percentile",
    "loadtest_record",
    "run_loadtest",
    "start_server",
]
