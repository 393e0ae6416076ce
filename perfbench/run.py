"""The repository benchmark: four workloads through the public entry points.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
        [--trace 0|1]

Run it from the repository root.  ``--trace 0`` measures the end-to-end
metrics with every wrapper off; ``--trace 1`` is one extra, traced run
that times each layer by wrapping its public calls (``spans.py``) and
prints the ``per_layer`` metrics of ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give provenance, sample
counts and the metrics only a single workload has (``resume_s``,
``requests_per_s``, the latency percentiles, ``failed_share``).

Every batch workload runs ``RunConfig(scale=0.02, seed=20211011)``
with the default (serial) runtime, each leg in a fresh interpreter as
``repro run`` would be.  ``--seed`` seeds the serve request plan.
Everything runs on one CPU, and every time is reported at a reference
host speed sampled on that CPU while it was measured (``calibrate.py``).
See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from batch_leg import SCALE, WORLD_SEED  # noqa: E402

#: fresh launches that only import ``repro`` and open the run, on top of
#: the launches each iteration makes, for the set-up median.
SETUP_LAUNCHES = 7
#: a leg that runs longer than this is a failure, not a measurement.
LEG_TIMEOUT_S = 170
#: what a whole campaign of ``WORLD_SEED`` at ``SCALE`` gives: probes
#: attempted, and events in its trace.  Pinned rather than taken from a
#: run of the code under test, so a change that drops probes or trace
#: events in every workload alike still fails the gate.
PROBES = 6919
TRACE_EVENTS = 126887
#: workload -> the fewest repetitions a run makes.
WORKLOADS = {
    # The common user path, `repro run --report --export-csv`: the probe
    # path (core, exec, smtp, spf, libspf2, dns, internet) and analysis
    # do all the work; obs, store and serve do none.
    "campaign": 2,
    # The same run with program tracing on and the trace written: the
    # only workload where obs does most of the work (campaign bypasses it).
    "campaign_traced": 1,
    # A run checkpointed every round, stopped after round 17 and resumed
    # in a new process: the only workload that writes and reads the store.
    "checkpoint_resume": 1,
    # The serve daemon under a closed loop of census, status and probe
    # requests: the only workload that uses serve, and the one where each
    # probe is a stage of its own, so per-stage costs show as latency.
    # Each daemon is a fresh world; a run takes the median of five.
    "serve_mixed": 5,
}


class BenchError(Exception):
    """The program failed to run a leg; the benchmark exits non-zero."""


class Bench:
    """Paths, the child environment and the per-checkout reference."""

    def __init__(self, root: str, args) -> None:
        self.root = root
        self.args = args
        self.build = os.path.join(root, ".bench_build")
        self.work = os.path.join(self.build, f"work-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # Cached bytecode: without it every launch recompiles every module.
        env["PYTHONPYCACHEPREFIX"] = os.path.join(self.build, "pycache")
        env["PYTHONUNBUFFERED"] = "1"
        self.env = env
        self.key = self._source_key()
        # Every leg and daemon runs on one CPU (children inherit this
        # process's affinity), where the host's speed is sampled for the
        # whole run (calibrate.py, serve_load.py).
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.speed = calibrate.Speedometer(self.cpu)

    def _source_key(self) -> str:
        digest = hashlib.sha256(
            f"{SCALE}:{WORLD_SEED}".encode()
        )
        for top in (os.path.join(self.root, "src", "repro"), HERE):
            for dirpath, dirnames, filenames in sorted(os.walk(top)):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        with open(os.path.join(dirpath, name), "rb") as handle:
                            digest.update(name.encode() + handle.read())
        return digest.hexdigest()[:16]

    def script(self, name: str) -> str:
        return os.path.join(HERE, name)

    def compile(self) -> None:
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src", HERE],
            env=self.env, cwd=self.root, check=True, stdout=subprocess.DEVNULL,
        )

    # -- per-checkout reference (cross-run and cross-workload gates) ----------

    def _ref_path(self, name: str) -> str:
        return os.path.join(self.build, f"{name}-{self.key}.json")

    def load(self, name: str, default=None):
        try:
            with open(self._ref_path(name)) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return default

    def save(self, name: str, value) -> None:
        tmp = self._ref_path(name) + f".{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(value, handle)
        os.replace(tmp, self._ref_path(name))

    # -- child legs -----------------------------------------------------------

    def leg(self, mode: str, workdir: str, *, wrappers: bool = False) -> dict:
        command = [
            sys.executable, self.script("batch_leg.py"), mode, "--workdir", workdir,
        ]
        if wrappers:
            command.append("--wrappers")
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                command, env=self.env, cwd=self.root, capture_output=True,
                text=True, timeout=LEG_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as error:
            raise BenchError(f"{mode} leg timed out") from error
        if proc.returncode != 0:
            raise BenchError(f"{mode} leg exited {proc.returncode}: {proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["launched"] = launched
        out["setup_s"] = out["ready"] - launched
        return out


def median(values):
    return statistics.median(values) if values else 0.0


def nearest_rank(samples, q: float) -> float:
    """The exact q-quantile (nearest rank), as the serve layer computes it."""
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), math.ceil(round(q * len(ordered), 9))))
    return ordered[rank - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# -- batch workloads -----------------------------------------------------------


def batch_iteration(bench: Bench, workload: str, *, wrappers: bool = False) -> dict:
    """One full run of a batch workload, in fresh interpreters."""
    workdir = os.path.join(bench.work, "iter")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if workload == "checkpoint_resume":
            legs = [
                bench.leg("interrupt", workdir, wrappers=wrappers),
                bench.leg("resume", workdir, wrappers=wrappers),
            ]
            ok = legs[0]["aborted"] and legs[1]["report_ok"]
        else:
            mode = "traced" if workload == "campaign_traced" else "campaign"
            legs = [bench.leg(mode, workdir, wrappers=wrappers)]
            ok = legs[0]["report_ok"] and not legs[0]["aborted"]
    finally:
        # A traced iteration keeps its span files; nothing keeps a store.
        shutil.rmtree(workdir if not wrappers else os.path.join(workdir, "store"), ignore_errors=True)
    last = legs[-1]
    return {
        "legs": legs,
        "ok": ok,
        "probes": last["probes"],
        "csv_digest": last["csv_digest"],
        "trace_events": last.get("trace_events"),
        "manifest_bytes": last.get("manifest_bytes", 0),
        "peak_rss_kb": max(leg["peak_rss_kb"] for leg in legs),
        "wall_run_s": sum(leg["run_s"] for leg in legs),
    }


def at_reference(bench: Bench, it: dict) -> dict:
    """An iteration's times at the reference host speed (calibrate.py).

    Each time is divided by how slow the host was over its own interval;
    checkpoint_resume adds its two legs' runs (leaving out the second
    interpreter start) and takes its set-up from the first.
    """
    speed = bench.speed
    times = {"run_s": 0.0, "handle_run_s": 0.0, "stage_wall_s": 0.0}
    for leg in it["legs"]:
        ready, started = leg["ready"], leg["handle_started"]
        times["run_s"] += leg["run_s"] / speed.factor(ready, ready + leg["run_s"])
        slow = speed.factor(started, started + leg["handle_run_s"])
        times["handle_run_s"] += leg["handle_run_s"] / slow
        times["stage_wall_s"] += leg["stage_wall_s"] / slow
        if "resume_s" in leg:
            times["resume_s"] = leg["resume_s"] / speed.factor(ready, ready + leg["resume_s"])
    first = it["legs"][0]
    times["setup_s"] = first["setup_s"] / speed.factor(first["launched"], first["ready"])
    return times


def scale_spans(sums: dict, slow: float) -> dict:
    """Span sums with their seconds at the reference host speed."""
    return {
        key: value / slow if key.startswith(("self_s.", "time_s.")) else value
        for key, value in sums.items()
    }


def reference_digest(bench: Bench) -> str:
    """CSV digest of an uninterrupted untraced campaign of these sources.

    Tracing and the store are runtime choices outside the config hash,
    so every batch workload must write these bytes exactly.
    """
    digest = bench.load("reference")
    if digest is None:
        digest = batch_iteration(bench, "campaign")["csv_digest"]
        bench.save("reference", digest)
    return digest


def gate(workload: str, it: dict, digest: str) -> bool:
    """The correctness gate for one batch iteration."""
    ok = it["ok"] and it["probes"] == PROBES and it["csv_digest"] == digest
    if workload == "campaign_traced":
        ok = ok and it["trace_events"] == TRACE_EVENTS
    return ok


def timed(one, seconds: float, minimum: int):
    """Repeat ``one`` for about ``seconds``: stop when the next repetition
    would end more than half a repetition past the deadline."""
    results, started = [], time.monotonic()
    while True:
        began = time.monotonic()
        results.append(one())
        took = time.monotonic() - began
        if len(results) >= minimum and time.monotonic() - started + took / 2 > seconds:
            return results


def host_speed(bench: Bench, factors) -> dict:
    """How slow the host ran over the measured intervals, for details."""
    return {
        "factor_each": [round(f, 4) for f in factors],
        "samples": len(bench.speed.samples),
        "cpu": bench.cpu,
    }


def run_batch(bench: Bench, workload: str):
    digest = reference_digest(bench)
    launches = [bench.leg("setup", bench.work) for _ in range(SETUP_LAUNCHES)]
    iterations = timed(
        lambda: batch_iteration(bench, workload), bench.args.seconds,
        minimum=WORKLOADS[workload],
    )
    bench.speed.stop()
    failed = sum(not gate(workload, it, digest) for it in iterations)
    scaled = [at_reference(bench, it) for it in iterations]
    setups = [
        leg["setup_s"] / bench.speed.factor(leg["launched"], leg["ready"]) for leg in launches
    ] + [times["setup_s"] for times in scaled]
    bench.save(
        f"untraced-{workload}",
        bench.load(f"untraced-{workload}", [])
        + [{"run_s": t["run_s"], "stage_wall_s": t["stage_wall_s"]} for t in scaled],
    )
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "run_s": metric(median([t["run_s"] for t in scaled]), "s"),
        "probes_per_s": metric(
            median([it["probes"] / t["handle_run_s"] for it, t in zip(iterations, scaled)]),
            "1/s",
        ),
        "peak_rss_mb": metric(median([it["peak_rss_kb"] for it in iterations]) / 1024, "MB"),
    }
    extra = {
        "samples": {"setup_s": len(setups), "iterations": len(iterations)},
        "host_speed": host_speed(
            bench, [it["wall_run_s"] / t["run_s"] for it, t in zip(iterations, scaled)]
        ),
        "run_s_each": [round(t["run_s"], 3) for t in scaled],
        "wall_run_s_each": [round(it["wall_run_s"], 3) for it in iterations],
        "setup_s_each": [round(v, 3) for v in setups],
        "probes": iterations[0]["probes"],
        "failed_share": failed / len(iterations),
    }
    if workload == "checkpoint_resume":
        extra["resume_s"] = metric(median([t["resume_s"] for t in scaled]), "s")
    if workload == "campaign_traced":
        extra["trace_events"] = iterations[0]["trace_events"]
    return metrics, len(iterations), failed, extra


def trace_batch(bench: Bench, workload: str):
    digest = reference_digest(bench)
    it = batch_iteration(bench, workload, wrappers=True)
    fresh = {}
    for name in sorted({workload, "campaign"}):
        if not bench.load(f"untraced-{name}"):
            fresh[name] = batch_iteration(bench, name)
    bench.speed.stop()
    ok = gate(workload, it, digest)
    sums = spans.combine(
        scale_spans(leg["layers"], bench.speed.factor(leg["ready"], leg["ready"] + leg["run_s"]))
        for leg in it["legs"]
    )
    out = layers.from_sums(sums)
    baseline = untraced_baseline(bench, workload, fresh)
    campaign = untraced_baseline(bench, "campaign", fresh)
    traced = at_reference(bench, it)
    out["obs.stage_overhead_ratio"] = baseline["stage_wall_s"] / campaign["stage_wall_s"]
    out["store.bytes_written"] = it["manifest_bytes"]
    out["bench.run_self_share"] = sums.get("self_s.run", 0.0) / traced["run_s"]
    out["bench.wrapper_overhead"] = traced["run_s"] / baseline["run_s"] - 1
    extra = {
        "traced_run_s": traced["run_s"],
        "untraced_run_s": baseline["run_s"],
        "spans_written": [
            os.path.relpath(os.path.join(bench.work, "iter", f"spans-{leg['mode']}.jsonl"), bench.root)
            for leg in it["legs"]
        ],
    }
    return out, 1, int(not ok), extra


def untraced_baseline(bench: Bench, workload: str, fresh: dict) -> dict:
    """Medians of this checkout's untraced runs, or of the one fresh
    iteration run when there were none."""
    rows = bench.load(f"untraced-{workload}")
    if not rows:
        rows = [at_reference(bench, fresh[workload])]
    return {key: median([row[key] for row in rows]) for key in ("run_s", "stage_wall_s")}


# -- serve_mixed ---------------------------------------------------------------


def serve_pools(bench: Bench) -> dict:
    pools = bench.load("serve_pools")
    if pools is None:
        import serve_load
        from repro import api

        config = api.RunConfig(scale=SCALE, seed=WORLD_SEED)
        with api.open_run(config) as handle:
            pools = serve_load.target_pools(handle)
        bench.save("serve_pools", pools)
    return pools


def serve_daemon_run(bench: Bench, pools, *, span_prefix=None, rid_base=None) -> dict:
    """Launch, warm up, drive one plan, stop: one daemon's figures.

    Each daemon is a fresh world, so its targets need only be unique
    within it: every daemon of a run replays the same seeded plan.
    """
    import serve_load

    targets = serve_load.Targets(pools, bench.args.seed)
    daemon = serve_load.Daemon(bench, span_prefix)
    try:
        warm_failed = serve_load.warm_up(daemon, targets)
        ready = time.monotonic()
        plan = targets.plan(serve_load.PLAN_SIZE)
        records, wall = serve_load.drive(daemon, plan, rid_base=rid_base)
        ended = time.monotonic()
    finally:
        code = daemon.stop()
    return {
        "launched": daemon.launched,
        "ready": ready,
        "driven": (ended - wall, ended),
        "setup_s": ready - daemon.launched,
        "wall_s": wall,
        "records": records,
        "failed": sum(not r[4] for r in records) + warm_failed + (code != 0),
        "attempted": len(records) + len(serve_load.WARMUP),
        "probes": sum(r[5] for r in records),
        "peak_rss_kb": daemon.peak_rss_kb,
    }


def scale_daemon(bench: Bench, run: dict) -> dict:
    """A daemon run's times at the reference host speed (calibrate.py):
    its set-up, its timed phase and each round trip."""
    slow = bench.speed.factor(*run["driven"])
    return {
        "setup_s": run["setup_s"] / bench.speed.factor(run["launched"], run["ready"]),
        "wall_s": run["wall_s"] / slow,
        "latency_s": [(r[3] - r[2]) / slow for r in run["records"]],
        "factor": slow,
    }


def run_serve(bench: Bench):
    import serve_load

    pools = serve_pools(bench)
    runs = timed(
        lambda: serve_daemon_run(bench, pools), bench.args.seconds,
        minimum=WORKLOADS["serve_mixed"],
    )
    bench.speed.stop()
    scaled = [scale_daemon(bench, run) for run in runs]
    latencies = [v * 1000.0 for t in scaled for v in t["latency_s"]]
    bench.save(
        "untraced-serve_mixed",
        bench.load("untraced-serve_mixed", []) + [{"run_s": t["wall_s"]} for t in scaled],
    )
    metrics = {
        "setup_s": metric(median([t["setup_s"] for t in scaled]), "s"),
        "run_s": metric(median([t["wall_s"] for t in scaled]), "s"),
        "probes_per_s": metric(
            median([run["probes"] / t["wall_s"] for run, t in zip(runs, scaled)]), "1/s"
        ),
        "peak_rss_mb": metric(median([run["peak_rss_kb"] for run in runs]) / 1024, "MB"),
    }
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    p99 = nearest_rank(latencies, 0.99)
    extra = {
        "requests_per_s": metric(
            median([len(run["records"]) / t["wall_s"] for run, t in zip(runs, scaled)]), "1/s"
        ),
        "latency_p50_ms": metric(nearest_rank(latencies, 0.50), "ms"),
        "latency_p99_ms": metric(p99, "ms"),
        "samples": {
            "daemons": len(runs),
            "latency": len(latencies),
            "beyond_p99": sum(v > p99 for v in latencies),
        },
        "host_speed": host_speed(bench, [t["factor"] for t in scaled]),
        "clients": serve_load.CLIENTS,
        "failed_share": failed / attempted,
        "run_s_each": [round(t["wall_s"], 3) for t in scaled],
        "wall_run_s_each": [round(run["wall_s"], 3) for run in runs],
        "setup_s_each": [round(t["setup_s"], 3) for t in scaled],
    }
    return metrics, attempted, failed, extra


def trace_serve(bench: Bench):
    import serve_load

    pools = serve_pools(bench)
    prefix = os.path.join(bench.work, "spans-daemon")
    run = serve_daemon_run(bench, pools, span_prefix=prefix, rid_base=0)
    rows = bench.load("untraced-serve_mixed")
    fresh = None if rows else serve_daemon_run(bench, pools)
    bench.speed.stop()
    sums, requests = serve_load.daemon_layers(prefix)
    slow = bench.speed.factor(*run["driven"])
    out = layers.from_sums(scale_spans(sums, slow))
    records = run["records"]
    # Seconds -> ms at the reference host speed.
    ms = lambda values, q=0.5: nearest_rank(values, q) * 1000.0 / slow if values else 0.0  # noqa: E731
    submits = [requests[r[0]]["submit"] for r in records if "submit" in requests.get(r[0], {})]
    out["serve.server_p50_ms"] = ms(submits)
    out["serve.server_p99_ms"] = ms(submits, 0.99)
    dispatch, total_dispatch, probe_dispatch = {}, 0.0, 0.0
    waits, transport = [], []
    for index, method, start, end, ok, probes in records:
        entry = requests.get(index, {})
        dispatch.setdefault(method, []).append(entry.get("dispatch", 0.0))
        total_dispatch += entry.get("dispatch", 0.0)
        if method in ("probe_domain", "check_mta"):
            probe_dispatch += entry.get("dispatch", 0.0)
        if "submit" in entry:
            transport.append(end - start - entry["submit"])
            if method != "run_status":
                waits.append(entry["submit"] - entry["execute"])
    for method in layers.METHODS:
        out[f"serve.dispatch_ms.{method}"] = ms(dispatch.get(method, []))
        out[f"serve.client_p50_ms.{method}"] = ms(
            [r[3] - r[2] for r in records if r[1] == method]
        )
    out["serve.queue_wait_ms"] = ms(waits)
    out["serve.transport_ms"] = ms(transport)
    out["serve.probe_time_share"] = probe_dispatch / total_dispatch if total_dispatch else 0.0
    tenth = max(1, len(records) // 10)
    for label, part in (("first_tenth", records[:tenth]), ("last_tenth", records[-tenth:])):
        out[f"serve.client_p50_ms.{label}"] = ms([r[3] - r[2] for r in part])
        out[f"serve.run_status_p50_ms.{label}"] = ms(
            [r[3] - r[2] for r in part if r[1] == "run_status"]
        )
    if rows:
        untraced_wall = median([row["run_s"] for row in rows])
    else:
        untraced_wall = scale_daemon(bench, fresh)["wall_s"]
    traced_wall = scale_daemon(bench, run)["wall_s"]
    out["bench.wrapper_overhead"] = traced_wall / untraced_wall - 1
    extra = {
        "traced_run_s": traced_wall,
        "untraced_run_s": untraced_wall,
        "spans_written": [os.path.relpath(prefix + ".jsonl", bench.root)],
    }
    return out, run["attempted"], run["failed"], extra


# -- entry point -----------------------------------------------------------------


def per_layer(root: str, values: dict) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json, 0 where unused."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)["per_layer"]
    unknown = set(values) - {entry["name"] for entry in spec}
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        entry["name"]: metric(values.get(entry["name"], 0.0), entry["unit"])
        for entry in spec
    }


def provenance(bench: Bench) -> dict:
    commit = None
    if os.path.isdir(os.path.join(bench.root, ".git")):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=bench.root, capture_output=True,
                text=True, timeout=10,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "source_key": bench.key,
        "scale": SCALE,
        "world_seed": WORLD_SEED,
        "seed": bench.args.seed,
        "seconds": bench.args.seconds,
        "host_reference_s": calibrate.REFERENCE_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=tuple(WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=20211011)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "api.py")):
        print("perfbench: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    # Children must not inherit an ignored SIGINT: it stops the daemon.
    # SIGTERM unwinds, so every leg and daemon started is stopped first.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(root, args)
    try:
        bench.compile()
        if args.workload == "serve_mixed":
            result = trace_serve(bench) if args.trace else run_serve(bench)
        else:
            result = (trace_batch if args.trace else run_batch)(bench, args.workload)
        metrics, attempted, failed, extra = result
        if args.trace:
            metrics = per_layer(root, metrics)
    except (BenchError, RuntimeError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        bench.speed.stop()
        if not args.trace:
            shutil.rmtree(bench.work, ignore_errors=True)

    print("provenance:", json.dumps(provenance(bench), sort_keys=True))
    print("details:", json.dumps(extra, sort_keys=True))
    shown = {k: v for k, v in extra.items() if isinstance(v, dict) and "unit" in v}
    for name, entry in {**metrics, **shown}.items():
        print(f"  {name:40s} {entry['value']:>14.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
