"""Command-line interface: run the SPFail reproduction.

Usage::

    python -m repro run                   # full campaign at scale 0.01
    python -m repro run --scale 0.02      # bigger synthetic Internet
    python -m repro run --artifact table4 # one table/figure only
    python -m repro run --list            # available artifacts
    python -m repro run --trace t.jsonl --metrics-out m.json  # observability
    python -m repro run --store runs/     # checkpoint after every round
    python -m repro resume --store runs/  # continue an interrupted campaign
    python -m repro serve --scale 0.05    # long-lived scan API daemon
    python -m repro serve --loadtest 500  # serve, self-load-test, exit
    python -m repro trace summary t.jsonl # analyze a captured trace
    python -m repro trace diff a.jsonl b.jsonl   # pinpoint first divergence
    python -m repro run --ledger perf.jsonl      # append a perf-ledger record
    python -m repro obs history perf.jsonl       # cross-run trend tables
    python -m repro obs regress BASE CAND        # noise-gated regression gate

The package splits by subcommand — :mod:`.parser` (all flags),
:mod:`.runcmd` (``run``/``resume``, through :mod:`repro.api`),
:mod:`.servecmd` (the daemon), :mod:`.tracecmd`, :mod:`.obscmd`, and
:mod:`.artifacts` (table/figure registry).  ``python -m repro`` enters
through :mod:`repro.__main__`, which re-exports :func:`main` from here.
"""

from __future__ import annotations

from ..analysis import ARTIFACT_NAMES
from .parser import build_parser

__all__ = ["ARTIFACT_NAMES", "build_parser", "main"]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    if command == "trace":
        from . import tracecmd

        if args.trace_command == "summary":
            return tracecmd.trace_summary(args)
        if args.trace_command == "profile":
            return tracecmd.trace_profile(args)
        return tracecmd.trace_diff(args)
    if command == "obs":
        from . import obscmd

        if args.obs_command == "history":
            return obscmd.obs_history(args)
        return obscmd.obs_regress(args)
    if command == "serve":
        from .servecmd import serve_command

        return serve_command(args)
    from .runcmd import resume_command, run_command

    if command == "resume":
        return resume_command(args)
    return run_command(args)
