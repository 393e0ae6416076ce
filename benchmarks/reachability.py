#!/usr/bin/env python3
"""Reachability gate: every function in ``src/repro`` is reached by a run path.

Runs the command set below at scale 0.003, each command in its own
interpreter under ``sys.setprofile`` and ``threading.setprofile``, and
records every code object that starts executing.  It then lists every
function defined under ``src/repro`` (read from the source with
``ast``, nested functions included) that no command reached.

The command set:

- ``run`` with every output flag and all 15 artifacts;
- ``run --store --abort-after-round 3``, then ``resume``;
- ``trace summary``, ``trace profile`` and ``trace diff``;
- ``obs history`` and ``obs regress``;
- ``serve --loadtest 300 --warm-rounds 2``, over TCP and over ``--socket``;
- the six examples.

The script exits 1 when

- a function is unreached and no allowlist line matches it, or
- an allowlist line is stale: it names a function that is now reached,
  or it matches no function at all.

The allowlist is ``reachability_allowlist.txt`` beside this script: one
``<pattern>  # <reason>`` line per entry, where the pattern is an
``fnmatch`` glob over ``module:qualname`` (for example
``repro.serve.client:ScanClient.census_row``).  A line without a reason
is an error.  A pattern with a wildcard is stale when it matches no
unreached function; a plain name is stale when its function is reached
or gone.

Run from the repository root (about 20 s on one core)::

    PYTHONPATH=src python benchmarks/reachability.py

The commands write into a temporary directory, removed afterwards; a
failing command's last output lines are printed.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "reachability_allowlist.txt"

SCALE = "0.003"
ARTIFACTS = (
    "table1 table2 table3 table4 table5 table6 table7 figure2 figure3 "
    "figure4 figure5 figure6 figure7 figure8 notification"
).split()

#: ``(label, argv)``; ``-m repro ...`` runs the CLI, a path runs a
#: script.  ``{w}`` is the work directory.  Every command must exit 0.
COMMANDS: Sequence[Tuple[str, List[str]]] = (
    (
        "run",
        ["-m", "repro", "run", "--scale", SCALE]
        + [arg for name in ARTIFACTS for arg in ("--artifact", name)]
        + [
            "--report", "{w}/report.md",
            "--export-csv", "{w}/csv",
            "--trace", "{w}/trace.jsonl",
            "--metrics-out", "{w}/metrics.json",
            "--progress",
            "--perf", "{w}/perf",
            "--ledger", "{w}/ledger.jsonl",
        ],
    ),
    (
        "abort",
        ["-m", "repro", "run", "--scale", SCALE, "--store", "{w}/store",
         "--abort-after-round", "3", "--trace", "{w}/trace-aborted.jsonl"],
    ),
    (
        "resume",
        ["-m", "repro", "resume", "--store", "{w}/store", "--scale", SCALE,
         "--trace", "{w}/trace-resumed.jsonl",
         "--export-csv", "{w}/csv-resumed",
         "--metrics-out", "{w}/metrics-resumed.json",
         "--ledger", "{w}/ledger.jsonl"],
    ),
    (
        "trace-summary",
        ["-m", "repro", "trace", "summary", "{w}/trace.jsonl",
         "--out", "{w}/summary.md", "--folded", "{w}/trace.folded",
         "--json", "{w}/summary.json"],
    ),
    (
        "trace-profile",
        ["-m", "repro", "trace", "profile", "{w}/trace.jsonl",
         "--perf", "{w}/perf", "--out", "{w}/profile.md",
         "--folded", "{w}/wall.folded", "--json", "{w}/profile.json"],
    ),
    (
        # The profiled run and the resumed chain wrote the same trace.
        "trace-diff",
        ["-m", "repro", "trace", "diff", "{w}/trace.jsonl",
         "{w}/trace-resumed.jsonl"],
    ),
    (
        "obs-history",
        ["-m", "repro", "obs", "history", "{w}/ledger.jsonl"],
    ),
    (
        "obs-regress",
        ["-m", "repro", "obs", "regress", "{w}/ledger.jsonl",
         "{w}/ledger.jsonl", "--json", "{w}/regress.json"],
    ),
    (
        "serve-tcp",
        ["-m", "repro", "serve", "--scale", SCALE,
         "--listen", "127.0.0.1:0", "--loadtest", "300",
         "--warm-rounds", "2", "--json", "{w}/serve.json",
         "--ledger", "{w}/serve-ledger.jsonl"],
    ),
    (
        "serve-socket",
        ["-m", "repro", "serve", "--scale", SCALE,
         "--socket", "{w}/scan.sock", "--loadtest", "300",
         "--warm-rounds", "2"],
    ),
    ("example-measurement_campaign",
     [str(ROOT / "examples" / "measurement_campaign.py"), SCALE]),
    ("example-notification_study",
     [str(ROOT / "examples" / "notification_study.py")]),
    ("example-operator_scan", [str(ROOT / "examples" / "operator_scan.py")]),
    ("example-quickstart", [str(ROOT / "examples" / "quickstart.py")]),
    ("example-spf_engine_demo",
     [str(ROOT / "examples" / "spf_engine_demo.py")]),
    ("example-vulnerability_poc",
     [str(ROOT / "examples" / "vulnerability_poc.py")]),
)


# -- the profiled child -------------------------------------------------------


def child(out: str, argv: List[str]) -> int:
    """Run one command in this interpreter and write what it reached.

    The profiler goes in before ``repro`` is imported, so import-time
    calls count; ``threading.setprofile`` covers the serve threads.
    """
    # Keyed by id (cheap to hash on every call); holding each code object
    # keeps its id from being reused.
    seen: Dict[int, object] = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen[id(code)] = code

    status = 0
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if argv[0] == "-m":
            sys.argv = [argv[1]] + argv[2:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as done:
        status = done.code if isinstance(done.code, int) else int(done.code is not None)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = str(PACKAGE) + os.sep
    reached = sorted(
        {
            (os.path.relpath(c.co_filename, SRC), c.co_firstlineno)
            for c in dict(seen).values()
            if c.co_filename.startswith(prefix)
        }
    )
    Path(out).write_text(json.dumps(reached))
    sys.stdout.flush()
    return status


# -- function inventory ---------------------------------------------------------


@dataclass(frozen=True)
class Function:
    path: str  # relative to src/
    module: str
    qualname: str
    lines: Tuple[int, ...]  # the def line and the first decorator's line
    length: int

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


def defined_functions() -> List[Function]:
    """Every ``def`` under ``src/repro``, methods and nested ones included."""
    found: List[Function] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(SRC)
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        module = ".".join(parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend(_walk(tree, str(rel), module, ""))
    return found


def _walk(node: ast.AST, path: str, module: str, prefix: str) -> Iterator[Function]:
    for child_node in ast.iter_child_nodes(node):
        if isinstance(child_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child_node.name
            first = min(
                [child_node.lineno]
                + [d.lineno for d in child_node.decorator_list]
            )
            yield Function(
                path=path,
                module=module,
                qualname=qualname,
                lines=(child_node.lineno, first),
                length=child_node.end_lineno - first + 1,
            )
            yield from _walk(child_node, path, module, qualname + ".<locals>.")
        elif isinstance(child_node, ast.ClassDef):
            yield from _walk(child_node, path, module, prefix + child_node.name + ".")
        else:
            yield from _walk(child_node, path, module, prefix)


# -- allowlist --------------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    pattern: str
    line: int

    @property
    def is_glob(self) -> bool:
        return any(ch in self.pattern for ch in "*?[")


def read_allowlist(path: Path) -> Tuple[List[Entry], List[str]]:
    entries: List[Entry] = []
    errors: List[str] = []
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        pattern, _, reason = text.partition("#")
        pattern, reason = pattern.strip(), reason.strip()
        if not reason or " " in pattern:
            errors.append(
                f"{path.name}:{number}: expected '<pattern>  # <reason>': {raw!r}"
            )
            continue
        entries.append(Entry(pattern, number))
    return entries, errors


# -- driver -----------------------------------------------------------------------


def run_commands(work: Path) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run every command profiled; returns what they reached and failures."""
    reached: Set[Tuple[str, int]] = set()
    failures: List[str] = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for label, template in COMMANDS:
        argv = [arg.format(w=str(work)) for arg in template]
        out = work / f"reach-{label}.json"
        log = work / f"{label}.log"
        print(f"  {label} ...", flush=True)
        with open(log, "wb") as sink:
            status = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--child", str(out)]
                + argv,
                cwd=str(work),
                env=env,
                stdout=sink,
                stderr=subprocess.STDOUT,
            ).returncode
        if status != 0 or not out.exists():
            tail = log.read_text(errors="replace").splitlines()[-15:]
            failures.append(f"{label}: exit {status}\n" + "\n".join(tail))
            continue
        reached.update((path, line) for path, line in json.loads(out.read_text()))
    return reached, failures


def check(
    functions: List[Function],
    reached: Set[Tuple[str, int]],
    entries: List[Entry],
) -> Tuple[List[Function], List[Function], List[str]]:
    """Split unreached functions into (not allowed, allowed) and find
    stale allowlist lines."""
    unreached = [
        f for f in functions if not any((f.path, line) in reached for line in f.lines)
    ]
    unreached_keys = {f.key for f in unreached}
    all_keys = {f.key for f in functions}
    stale: List[str] = []
    for entry in entries:
        if entry.is_glob:
            if not any(fnmatch.fnmatchcase(k, entry.pattern) for k in unreached_keys):
                stale.append(
                    f"line {entry.line}: {entry.pattern} matches no unreached function"
                )
        elif entry.pattern not in all_keys:
            stale.append(f"line {entry.line}: {entry.pattern} no longer exists")
        elif entry.pattern not in unreached_keys:
            stale.append(f"line {entry.line}: {entry.pattern} is now reached")
    denied: List[Function] = []
    allowed: List[Function] = []
    for function in unreached:
        if any(fnmatch.fnmatchcase(function.key, e.pattern) for e in entries):
            allowed.append(function)
        else:
            denied.append(function)
    return denied, allowed, stale


def main(argv: List[str]) -> int:
    if argv[:1] == ["--child"]:
        return child(argv[1], argv[2:])
    entries, errors = read_allowlist(ALLOWLIST)
    work = Path(tempfile.mkdtemp(prefix="reachability-"))
    try:
        print(f"running {len(COMMANDS)} commands at scale {SCALE} under the profiler:")
        reached, failures = run_commands(work.resolve())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    functions = defined_functions()
    denied, allowed, stale = check(functions, reached, entries)

    unreached_lines = sum(f.length for f in denied + allowed)
    print(
        f"{len(functions)} functions in src/repro; "
        f"{len(denied) + len(allowed)} unreached ({unreached_lines} lines): "
        f"{len(allowed)} allowlisted, {len(denied)} not; "
        f"{len(entries)} allowlist entries"
    )
    for failure in failures:
        print(f"COMMAND FAILED  {failure}")
    for error in errors:
        print(f"BAD ALLOWLIST LINE  {error}")
    for function in denied:
        print(
            f"UNREACHED  src/{function.path}:{function.lines[0]}  "
            f"{function.key}  ({function.length} lines)"
        )
    for line in stale:
        print(f"STALE ALLOWLIST ENTRY  {line}")
    return 1 if failures or errors or denied or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
