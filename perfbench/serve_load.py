"""The serve_mixed workload: daemon control, request plan, closed loop.

The daemon is ``repro serve`` in its own process (so it shares no GIL
with the generator); traced runs launch it through ``serve_daemon.py``
instead, which installs the layer spans first.  The generator is a
closed loop: ``CLIENTS`` keep-alive ``ScanClient`` connections, each
sending its next request only after the previous answer arrived.

Daemon and generator run on the same CPU (``run.py`` pins itself to one
and its children inherit it).  Spread over two CPUs, every round trip
woke the other virtual CPU, and how long the host took to do that
swung the timed phase by 1.7x between daemons while the CPUs' own
speed did not change; on one CPU a round trip is a context switch, and
its time follows the host speed ``calibrate.py`` samples on that CPU.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

from repro.api import ProbeResult
from repro.errors import ReproError, ServeError
from repro.serve.client import ScanClient
from repro.serve.loadtest import DEFAULT_MIX

import spans
from batch_leg import SCALE, WORLD_SEED

#: closed-loop connections: one per CPU of the container the figures
#: in README.md were measured on (``nproc`` = 2); never more than nproc.
CLIENTS = max(1, min(2, os.cpu_count() or 1))
#: requests per daemon in the timed phase.
PLAN_SIZE = 5000
#: ``--warm-rounds`` so ``patch_status_since`` has history to answer.
WARM_ROUNDS = 2
#: one request of each method answered before the timed phase.
WARMUP = ("spf_census_row", "run_status", "patch_status_since", "probe_domain", "check_mta")
#: a daemon not listening by then has failed.
LISTEN_TIMEOUT_S = 60.0

_SERVING = re.compile(r"serving on http://([0-9.]+):(\d+)")


def target_pools(handle) -> dict:
    """Domains of the world and the addresses its initial sweep measured."""
    initial = handle.ensure_initial()
    return {
        "domains": sorted(initial.domain_status),
        "ips": sorted(initial.ip_records),
    }


class Targets:
    """Seeded target draws; probe targets never repeat within a run."""

    def __init__(self, pools: dict, seed: int) -> None:
        self.rng = random.Random(seed)
        self.domains = pools["domains"]
        self._probe_domains = list(self.domains)
        self._probe_ips = list(pools["ips"])
        self.rng.shuffle(self._probe_domains)
        self.rng.shuffle(self._probe_ips)

    def payload(self, method: str) -> dict:
        if method == "run_status":
            return {}
        if method == "probe_domain":
            return {"target": self._probe_domains.pop()}
        if method == "check_mta":
            return {"target": self._probe_ips.pop()}
        target = self.rng.choice(self.domains)
        if method == "patch_status_since":
            return {"target": target, "since": 0}
        return {"target": target}

    def plan(self, size: int):
        """``size`` requests in exact ``DEFAULT_MIX`` proportions, shuffled."""
        methods = []
        for method, share in DEFAULT_MIX:
            methods += [method] * round(share * size)
        methods = methods[:size]
        methods += ["spf_census_row"] * (size - len(methods))
        self.rng.shuffle(methods)
        return [(method, self.payload(method)) for method in methods]


def answer_ok(method: str, payload: dict, status: int, body: dict) -> bool:
    """The correctness gate for one answer."""
    if status != 200:
        return False
    if method in ("probe_domain", "check_mta"):
        try:
            result = ProbeResult.from_dict(body)
        except (KeyError, TypeError, ValueError, ReproError):
            return False
        return result.kind == method and result.target == payload["target"]
    if method == "run_status":
        return "service" in body and "rounds_completed" in body
    return body.get("domain") == payload["target"]


def probe_count(method: str, body: dict) -> int:
    return len(body.get("ips", ())) if method in ("probe_domain", "check_mta") else 0


class Daemon:
    """One ``repro serve`` process, from launch to reaped exit."""

    def __init__(self, bench, span_prefix=None) -> None:
        args = [
            "--scale", str(SCALE), "--seed", str(WORLD_SEED),
            "--listen", "127.0.0.1:0", "--warm-rounds", str(WARM_ROUNDS),
        ]
        if span_prefix:
            command = [sys.executable, bench.script("serve_daemon.py"), span_prefix, *args]
        else:
            command = [sys.executable, "-m", "repro", "serve", *args]
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            command, env=bench.env, cwd=bench.root,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.output = []
        self.peak_rss_kb = 0
        self.host = self.port = None
        # A daemon that never listens is killed, so the read below ends.
        watchdog = threading.Timer(LISTEN_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        for line in self.proc.stdout:
            self.output.append(line)
            match = _SERVING.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
        watchdog.cancel()
        if self.port is None:
            self.stop()
            raise RuntimeError("daemon exited before listening:\n" + "".join(self.output))
        # Drain the rest of its output so the pipe never fills.
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()

    def _read_rest(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)

    def client(self) -> ScanClient:
        return ScanClient(self.host, self.port, timeout=60.0)

    def stop(self) -> int:
        """SIGINT (the daemon's clean shutdown), then reap with rusage."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        self.proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + 10.0
        status = rusage = None
        while status is None:
            pid, status_, rusage_ = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                status, rusage = status_, rusage_
            elif time.monotonic() > deadline:
                self.proc.kill()
                _, status, rusage = os.wait4(self.proc.pid, 0)
            else:
                time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = rusage.ru_maxrss
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=5.0)
        self.proc.stdout.close()
        return self.proc.returncode


def drive(daemon: Daemon, plan, *, rid_base=None):
    """Run ``plan`` through a closed loop of ``CLIENTS`` connections.

    Returns ``(records, wall_s)``; a record is ``(index, method, start,
    end, ok, probes)`` with monotonic times.  ``rid_base`` stamps each
    payload with a request id so daemon spans can be joined to it.
    """
    records = [None] * len(plan)
    cursor = iter(range(len(plan)))
    guard = threading.Lock()

    def loop() -> None:
        client = daemon.client()
        try:
            while True:
                with guard:
                    index = next(cursor, None)
                if index is None:
                    return
                method, payload = plan[index]
                if rid_base is not None:
                    payload = dict(payload, **{spans.RID_KEY: rid_base + index})
                started = time.monotonic()
                try:
                    status, body = client.request(method, payload)
                except ServeError:
                    status, body = 0, {}
                ended = time.monotonic()
                records[index] = (
                    index, method, started, ended,
                    answer_ok(method, payload, status, body), probe_count(method, body),
                )
        finally:
            client.close()

    threads = [threading.Thread(target=loop) for _ in range(CLIENTS)]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.monotonic() - started


def warm_up(daemon: Daemon, targets: Targets) -> int:
    """One request of each method; returns how many were not answered
    correctly (a transport error counts as one)."""
    client = daemon.client()
    try:
        failed = 0
        for method in WARMUP:
            payload = targets.payload(method)
            try:
                status, body = client.request(method, payload)
            except ServeError:
                status, body = 0, {}
            failed += not answer_ok(method, payload, status, body)
        return failed
    finally:
        client.close()


def daemon_layers(span_prefix: str):
    """Additive sums over the daemon's serving phase, plus its requests.

    Returns ``(sums, requests)``: ``sums`` covers the spans and counters
    from the listener's start to shutdown; ``requests`` maps a request id
    to its ``submit``, ``execute`` and ``dispatch`` durations in seconds.
    """
    with open(span_prefix + ".json") as handle:
        marks = json.load(handle)
    before, after = marks["listening"], marks["stopped"]
    recorded = spans.read_jsonl(span_prefix + ".jsonl")
    sums = spans.summarize(recorded, window=(before["t"], after["t"]))
    for key, value in after.items():
        if key != "t":
            sums[key] = value - before.get(key, 0)
    requests = {}
    for sid, name, start, end, parent, unit, nested in recorded:
        if not unit or unit[0] != "r" or unit[1] is None:
            continue
        entry = requests.setdefault(unit[1], {"dispatch": 0.0, "execute": 0.0})
        if name == "serve.submit":
            entry["submit"] = end - start
        elif name == "serve.execute":
            entry["execute"] = end - start
        elif name.startswith("serve.dispatch.") and not nested:
            entry["dispatch"] += end - start
    return sums, requests
