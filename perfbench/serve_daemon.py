"""``repro serve`` with the layer spans installed (traced serve runs).

    python3 perfbench/serve_daemon.py OUT_PREFIX <repro serve arguments>

Installs the wrappers of ``spans.py``, then runs the ``repro serve``
command line in this process.  When the daemon shuts down (SIGINT) it
writes ``OUT_PREFIX.jsonl`` (the spans) and ``OUT_PREFIX.json``: the
time and the program's own counters when the listener started and at
shutdown, so the load generator can take the serving phase alone.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import spans


def _mark(recorder) -> dict:
    """The time plus every additive counter, for a later difference."""
    from repro.obs.perf import simulation_counters

    mark = {f"count.{k}": v for k, v in recorder.outcomes.items()}
    if recorder.handles:
        sim = recorder.handles[0].simulation
        total = sim.campaign.executor.metrics.total()
        mark.update(
            {f"counter.{k}": v for k, v in simulation_counters(sim).items()}
        )
        mark["count.exec_probes"] = total.probes_attempted
        mark["count.exec_retried"] = total.retried
        mark["count.exec_refused"] = total.refused
    mark["t"] = time.monotonic()
    return mark


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    # SIGINT is the shutdown signal, even if this process inherited it ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    recorder = spans.install()
    from repro.serve import httpd

    marks = {}
    start_server = httpd.start_server

    def start_and_mark(*args, **kwargs):
        marks["listening"] = _mark(recorder)
        return start_server(*args, **kwargs)

    httpd.start_server = start_and_mark
    from repro.cli import main as cli_main

    code = cli_main(["serve", *argv])
    recorder.write_jsonl(prefix + ".jsonl")
    with open(prefix + ".json", "w") as handle:
        json.dump({"listening": marks["listening"], "stopped": _mark(recorder)}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
