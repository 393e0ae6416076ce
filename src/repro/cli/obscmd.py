"""``repro obs``: the cross-run performance ledger subcommands."""

from __future__ import annotations

import argparse
import sys

from .output import write_json_payload


def obs_history(args: argparse.Namespace) -> int:
    from ..obs.ledger import (
        DEFAULT_HISTORY_METRICS,
        LedgerError,
        filter_records,
        history_dict,
        load_slice,
        render_history,
    )

    try:
        records = filter_records(
            load_slice(args.ledger),
            config_hash=args.config_hash,
            kinds=args.kind,
            last=args.last,
        )
    except LedgerError as error:
        print(f"obs history failed: {error}", file=sys.stderr)
        return 2
    metrics = args.metric or list(DEFAULT_HISTORY_METRICS)
    if args.json:
        write_json_payload(
            args.json, history_dict(records, metrics), label="history JSON"
        )
    else:
        print(render_history(records, metrics))
    return 0


def obs_regress(args: argparse.Namespace) -> int:
    from ..obs.ledger import (
        LedgerError,
        compare_records,
        filter_records,
        load_slice,
    )

    try:
        baseline = filter_records(
            load_slice(args.baseline), config_hash=args.config_hash, last=args.last
        )
        candidate = filter_records(
            load_slice(args.candidate), config_hash=args.config_hash, last=args.last
        )
        result = compare_records(
            baseline,
            candidate,
            metric=args.metric,
            threshold=args.threshold,
            noise_floor=args.noise,
        )
    except LedgerError as error:
        print(f"obs regress failed: {error}", file=sys.stderr)
        return 2
    if args.json:
        write_json_payload(args.json, result.to_dict(), label="verdict JSON")
    print(result.render())
    return 1 if result.regressed else 0

