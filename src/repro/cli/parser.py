"""The argument parser: every subcommand's flags in one place.

The parser is structured around the ``run`` / ``resume`` / ``serve`` /
``trace`` / ``obs`` subcommands; one of them is required.
"""

from __future__ import annotations

import argparse

from ..analysis import ARTIFACT_NAMES


def _int_at_least(minimum: int):
    """An argparse ``type``: an integer no smaller than ``minimum``.

    Anything else is a usage error (exit status 2) naming the flag.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, not {value}")
        return value

    return parse


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The campaign-run flags: the world, then the outputs."""
    add = parser.add_argument
    add(
        "--scale", type=float, default=0.01,
        help="population scale relative to the paper's 441K domains (default 0.01)",
    )
    add("--seed", type=int, default=20211011, help="simulation seed")
    add(
        "--list", action="store_true", default=False,
        help="list available artifacts and exit",
    )
    _add_output_flags(parser)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    """Artifact/observability outputs shared by ``run`` and ``resume``."""
    add = parser.add_argument
    add(
        "--artifact", choices=ARTIFACT_NAMES, action="append", default=None,
        help="regenerate only the named table/figure (repeatable)",
    )
    add(
        "--report", metavar="FILE", default=None,
        help="write the full paper-vs-measured markdown report to FILE",
    )
    add(
        "--export-csv", metavar="DIR", default=None,
        help="write machine-readable CSVs for the key series to DIR",
    )
    add(
        "--trace", metavar="FILE", default=None,
        help="write a canonically ordered virtual-time trace (JSONL) to FILE; "
        "byte-identical across runs of the same seed, resumed or not",
    )
    add(
        "--metrics-out", metavar="FILE", default=None,
        help="write the observability metrics registry (JSON) to FILE",
    )
    add(
        "--progress", action="store_true", default=False,
        help="render live stage progress (tasks, probes/s, ETA) to stderr; "
        "never alters trace, report, or CSV output",
    )
    add(
        "--perf", metavar="DIR", default=None,
        help="record wall-clock span timings and an end-of-run resource "
        "and counter reading into DIR (a sideband: trace, report, and CSV "
        "bytes are unchanged); implies tracing; inspect with "
        "`python -m repro trace profile`",
    )
    add(
        "--ledger", metavar="FILE", default=None,
        help="append one performance-ledger record for this run to FILE, "
        "its only destination (config hash, env + git commit, wall time, "
        "throughput, and the executor's per-stage rows as --metrics-out "
        "writes them); inspect with `python -m repro obs history` / "
        "`obs regress`",
    )


def _add_serve_flags(parser: argparse.ArgumentParser) -> None:
    """Flags for the long-lived scan daemon (``repro serve``)."""
    world = parser.add_argument_group("resident world")
    world.add_argument(
        "--scale", type=float, default=0.01,
        help="population scale for a fresh resident world (default 0.01)",
    )
    world.add_argument("--seed", type=int, default=20211011, help="simulation seed")
    world.add_argument(
        "--store", metavar="DIR", default=None,
        help="resume the latest checkpointed run from this store and hold "
        "its single-writer lock while serving (a concurrent batch "
        "`run --store` against the same run is refused)",
    )
    world.add_argument(
        "--warm-rounds", type=_int_at_least(0), default=0, metavar="N",
        help="advance N remeasurement rounds before accepting requests, so "
        "patch_status_since has history to answer from (default 0; the "
        "initial sweep always runs; as in a batch run, the private "
        "notification goes out before the first round on or after "
        "2021-11-15, i.e. when N >= 11)",
    )

    listen = parser.add_argument_group("listener and admission")
    listen.add_argument(
        "--listen", metavar="HOST:PORT", default="127.0.0.1:8753",
        help="TCP listen address (default 127.0.0.1:8753; port 0 binds an "
        "ephemeral port and prints it)",
    )
    listen.add_argument(
        "--socket", metavar="PATH", default=None,
        help="serve over a unix-domain socket at PATH instead of TCP",
    )
    listen.add_argument(
        "--queue-depth", type=_int_at_least(1), default=64, metavar="N",
        help="bounded dispatch queue; a full queue answers 429 instead of "
        "building backlog (default 64)",
    )
    listen.add_argument(
        "--tenant-connections", type=_int_at_least(1), default=250, metavar="N",
        help="per-tenant in-flight probe cap, enforced by the same "
        "EthicsControls the campaign uses (default 250)",
    )
    listen.add_argument(
        "--tenant-recontact-wait", type=float, default=90.0, metavar="SECONDS",
        help="per-tenant minimum wait before re-probing the same target "
        "(default 90, the paper's reconnect ethics floor); refusals "
        "carry Retry-After",
    )

    load = parser.add_argument_group("load testing (serve, test, exit)")
    load.add_argument(
        "--loadtest", type=_int_at_least(1), metavar="N", default=None,
        help="instead of serving forever: drive N requests of the default "
        "read-heavy mix against the live daemon, print the latency "
        "report, and exit non-zero on any 5xx",
    )
    load.add_argument(
        "--loadtest-threads", type=_int_at_least(1), default=8, metavar="N",
        help="concurrent load-test clients (default 8)",
    )
    load.add_argument(
        "--loadtest-seed", type=int, default=20211011, metavar="SEED",
        help="seed for the deterministic request plan (default 20211011)",
    )
    load.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="append the load test's latency record (kind 'serve', "
        "request_p99_ms and friends) to FILE for `obs history` / "
        "`obs regress`",
    )
    load.add_argument(
        "--noise", type=float, default=None, metavar="FRAC",
        help="declare the machine's identical-run latency spread in the "
        "ledger record, so later comparisons gate on it",
    )
    load.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the load-test summary as JSON to FILE ('-' for "
        "stdout)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the SPFail (IMC 2022) reproduction campaign.",
    )
    sub = parser.add_subparsers(
        dest="command", metavar="{run,resume,serve,trace,obs}", required=True
    )

    run = sub.add_parser(
        "run", help="run the campaign (optionally checkpointing into a store)"
    )
    _add_run_flags(run)
    run.add_argument(
        "--store", metavar="DIR", default=argparse.SUPPRESS,
        help="checkpoint the run into this store directory after the initial "
        "sweep and after every completed round (resume with "
        "`python -m repro resume --store DIR`)",
    )
    run.add_argument(
        "--abort-after-round", type=int, metavar="N", default=argparse.SUPPRESS,
        help="fault injection: abort the run right after round N's checkpoint "
        "is persisted (requires --store); used by the interrupt-and-resume "
        "CI smoke job and the resume tests",
    )

    resume = sub.add_parser(
        "resume", help="continue a checkpointed campaign from its store"
    )
    resume.add_argument(
        "--store", metavar="DIR", required=True,
        help="store directory previously populated by `run --store`",
    )
    resume.add_argument(
        "--scale", type=float, dest="resume_scale", default=argparse.SUPPRESS,
        help="expected population scale; resume refuses (with the stored "
        "hashes listed) unless a stored run's config hash matches",
    )
    resume.add_argument(
        "--seed", type=int, dest="resume_seed", default=argparse.SUPPRESS,
        help="expected simulation seed (see --scale)",
    )
    _add_output_flags(resume)

    serve = sub.add_parser(
        "serve",
        help="host a resident world behind a JSON scan API "
        "(probe_domain/check_mta/spf_census_row/patch_status_since/"
        "run_status)",
    )
    _add_serve_flags(serve)

    trace = sub.add_parser(
        "trace", help="analyze or diff traces produced by --trace"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    summary = trace_sub.add_parser(
        "summary",
        help="stage/span/critical-path summary of one trace (markdown)",
    )
    summary.add_argument("file", help="canonical JSONL trace file")
    summary.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the markdown summary to FILE instead of stdout",
    )
    summary.add_argument(
        "--folded", metavar="FILE", default=None,
        help="also write folded-stack lines (flamegraph input) to FILE",
    )
    summary.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="event names listed in the counts table (default 20)",
    )
    summary.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the machine-readable stage/span/critical-path "
        "tables as JSON to FILE ('-' for stdout; suppresses the default "
        "markdown-to-stdout unless --out is given)",
    )

    diff = trace_sub.add_parser(
        "diff",
        help="compare two traces; pinpoint the first divergent event",
    )
    diff.add_argument("left", help="baseline trace (JSONL)")
    diff.add_argument("right", help="candidate trace (JSONL)")
    diff.add_argument(
        "--context", type=int, default=3, metavar="N",
        help="shared events shown before the divergence (default 3)",
    )

    profile = trace_sub.add_parser(
        "profile",
        help="join a trace with its --perf sideband: wall-vs-virtual "
        "attribution, hottest spans, cache efficiency, wall flamegraphs",
    )
    profile.add_argument("file", help="canonical JSONL trace file")
    profile.add_argument(
        "--perf", metavar="DIR", required=True,
        help="perf sideband directory written by `run --perf DIR`",
    )
    profile.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the markdown profile to FILE instead of stdout",
    )
    profile.add_argument(
        "--folded", metavar="FILE", default=None,
        help="also write wall-clock folded stacks (flamegraph input) to FILE",
    )
    profile.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="span types listed in the hottest-spans table (default 15)",
    )
    profile.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the machine-readable wall-vs-virtual attribution, "
        "hottest spans and end-of-run reading as JSON to FILE ('-' for "
        "stdout; suppresses the default markdown-to-stdout unless --out "
        "is given)",
    )

    obs = sub.add_parser(
        "obs", help="cross-run performance ledger: history and regression gate"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    history = obs_sub.add_parser(
        "history",
        help="trend tables over a ledger (per metric, exact percentiles)",
    )
    history.add_argument(
        "ledger",
        help="ledger JSONL file, a directory holding ledger.jsonl, or a "
        "single-record .json file",
    )
    history.add_argument(
        "--metric", action="append", metavar="NAME", default=None,
        help="metric column(s) to trend (repeatable; default "
        "probes_per_second and wall_seconds)",
    )
    history.add_argument(
        "--config-hash", metavar="PREFIX", default=None,
        help="only records whose RunConfig content hash starts with PREFIX",
    )
    history.add_argument(
        "--kind", action="append", metavar="KIND", default=None,
        help="only records of this kind (run/resume/serve/bench; "
        "repeatable)",
    )
    history.add_argument(
        "--last", type=int, metavar="N", default=None,
        help="only the N most recent matching records",
    )
    history.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the trend data as JSON to FILE ('-' for stdout) "
        "instead of markdown",
    )

    regress = obs_sub.add_parser(
        "regress",
        help="compare two ledger slices; exit 1 only on a CONFIRMED "
        "(noise-cleared) regression",
    )
    regress.add_argument(
        "baseline",
        help="baseline slice: ledger JSONL, a directory holding "
        "ledger.jsonl, or single-record .json (e.g. a committed "
        "benchmarks/BASELINE.json)",
    )
    regress.add_argument("candidate", help="candidate slice (same spellings)")
    regress.add_argument(
        "--metric", default="probes_per_second", metavar="NAME",
        help="metric to compare (default probes_per_second)",
    )
    regress.add_argument(
        "--threshold", type=float, default=0.15, metavar="FRAC",
        help="regression budget as a fraction (default 0.15 = 15%%)",
    )
    regress.add_argument(
        "--noise", type=float, default=0.0, metavar="FRAC",
        help="noise-gate floor: the machine's known identical-run wall "
        "spread; folded in with any noise the records themselves declare "
        "and the measured baseline spread (default 0)",
    )
    regress.add_argument(
        "--config-hash", metavar="PREFIX", default=None,
        help="filter both slices to records whose config hash starts "
        "with PREFIX",
    )
    regress.add_argument(
        "--last", type=int, metavar="N", default=None,
        help="use only the N most recent matching records of each slice",
    )
    regress.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the full comparison verdict as JSON to FILE "
        "('-' for stdout)",
    )
    return parser
