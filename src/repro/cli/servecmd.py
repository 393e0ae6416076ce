"""``repro serve``: host a resident world behind the scan API.

The command builds (or resumes) a world through :mod:`repro.api`, warms
it — the initial sweep always runs, plus ``--warm-rounds`` longitudinal
rounds so ``patch_status_since`` has history; they are the batch run's
own rounds, notification included — then serves JSON requests until
interrupted.  With ``--loadtest N`` it instead drives a
deterministic synthetic request mix against its own live listener,
prints the latency report, optionally appends a ledger record, and
exits non-zero on any 5xx (the acceptance gate for the service).

When serving from a ``--store``, the daemon holds the run's
single-writer lock for its whole lifetime: a concurrent
``repro run --store`` against the same run directory is refused with a
clear error instead of corrupting checkpoints.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import sys
import time

from ..errors import ServeError


def _parse_listen(value: str):
    host, _, port = value.rpartition(":")
    if not host or not port:
        raise ServeError(
            f"--listen wants HOST:PORT, got {value!r}"
        )
    try:
        return host, int(port)
    except ValueError as error:
        raise ServeError(f"--listen port is not a number: {value!r}") from error


def _plan_targets(handle, *, max_domains: int = 2000, max_ips: int = 200):
    """Deterministic domain/address pools for the load-test plan."""
    population = handle.simulation.population
    total = len(population)
    step = max(1, total // max_domains)
    domains = [population.name_at(i) for i in range(0, total, step)]
    ips = sorted(handle.simulation.campaign.tracked_ips())[:max_ips]
    return domains, ips


def _run_loadtest(args, handle, service, server) -> int:
    from ..serve import build_plan, loadtest_record, run_loadtest
    from ..serve.client import ScanClient

    domains, ips = _plan_targets(handle)
    plan = build_plan(
        args.loadtest, domains=domains, ips=ips, seed=args.loadtest_seed
    )
    host, port = server.server_address[:2] if not args.socket else (None, None)

    def make_client() -> ScanClient:
        if args.socket:
            return ScanClient(socket_path=args.socket)
        return ScanClient(host, port)

    print(
        f"loadtest: driving {len(plan):,} requests with "
        f"{args.loadtest_threads} client(s)..."
    )
    report = run_loadtest(make_client, plan, threads=args.loadtest_threads)
    print(report.render())

    if args.json:
        from .output import write_json_payload

        write_json_payload(args.json, report.summary(), label="loadtest JSON")
    if args.ledger:
        from ..obs.ledger import append_record

        record = loadtest_record(
            report, config=handle.config, noise=args.noise
        )
        append_record(args.ledger, record)
        print(f"ledger: serve record appended to {args.ledger}")
    if report.errors_5xx or report.transport_errors:
        print(
            f"loadtest FAILED: {report.errors_5xx} 5xx, "
            f"{report.transport_errors} transport errors",
            file=sys.stderr,
        )
        return 1
    return 0


def serve_command(args: argparse.Namespace) -> int:
    from .. import api
    from ..core.ethics import EthicsControls
    from ..serve import ScanService
    from ..serve.httpd import start_server
    from ..store import StoreError

    try:
        host, port = _parse_listen(args.listen)
    except ServeError as error:
        print(f"serve failed: {error}", file=sys.stderr)
        return 2

    lock = None
    store = None
    try:
        if args.store:
            from ..store import RunStore

            store = RunStore(args.store)
            try:
                state = store.load_latest()
                # Held for the daemon's lifetime: the resident world and a
                # batch writer must never mutate the same run concurrently.
                lock = store.acquire_lock(state.config)
            except StoreError as error:
                print(f"serve failed: {error}", file=sys.stderr)
                return 2
            print(
                f"Resuming {state.run_id} "
                f"(config {state.config.content_hash()[:12]}) as the "
                f"resident world..."
            )
            handle = api.resume(state)
        else:
            config = api.RunConfig(scale=args.scale, seed=args.seed)
            print(
                f"Building the resident world "
                f"(scale={args.scale}, seed={args.seed})..."
            )
            handle = api.open_run(config)

        status = handle.status()
        print(
            f"  {status['domains']:,} domains / {status['addresses']:,} "
            f"addresses resident; running the initial sweep..."
        )
        warm_started = time.perf_counter()
        handle.ensure_initial()
        if args.warm_rounds:
            handle.advance_rounds(args.warm_rounds)
        print(
            f"  warm in {time.perf_counter() - warm_started:.1f}s "
            f"({handle.status()['rounds_completed']} round(s) of history)"
        )

        def tenant_limits() -> EthicsControls:
            return EthicsControls(
                max_concurrent_connections=args.tenant_connections,
                min_reconnect_wait=_dt.timedelta(
                    seconds=args.tenant_recontact_wait
                ),
            )

        service = ScanService(
            handle, queue_depth=args.queue_depth, tenant_limits=tenant_limits
        )
        try:
            server, thread = start_server(
                service, host=host, port=port, socket_path=args.socket
            )
        except ServeError as error:
            print(f"serve failed: {error}", file=sys.stderr)
            return 2
        try:
            if args.socket:
                print(f"serving on unix socket {args.socket}")
            else:
                bound_host, bound_port = server.server_address[:2]
                print(f"serving on http://{bound_host}:{bound_port}")
            print(
                "  endpoints: POST /v1/{probe_domain,check_mta,"
                "spf_census_row,patch_status_since,run_status} · "
                "GET /healthz"
            )
            if args.loadtest is not None:
                return _run_loadtest(args, handle, service, server)
            try:
                while thread.is_alive():
                    thread.join(timeout=1.0)
            except KeyboardInterrupt:
                print("\nshutting down...")
            return 0
        finally:
            server.shutdown()
            service.stop()
    finally:
        if lock is not None:
            lock.release()
