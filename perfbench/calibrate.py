"""Host-speed sampling: how fast each CPU ran Python while work was timed.

    python3 perfbench/calibrate.py CPU    (started by ``Speedometer``)

The benchmark runs on a few virtual CPUs of a shared host, and the host
lends them more or less speed from one moment to the next: on the 2-CPU
virtual machine README.md describes, the same scale-0.02 campaign took
3.0 s and, minutes later, 5.5 s, and a fixed pure-Python loop flips
between a fast and a slow mode within a second.  Neither is the
program, so every time the benchmark reports is taken at a reference
host speed:

    reported = measured * REFERENCE_S / (mean sample over the same interval)

A sampler process sits on the CPU the measured work runs on.  Every
``INTERVAL_S`` it wakes, times one fixed unit of pure-Python work
(name lookups in a world larger than the CPU caches, string splitting
and joining, object creation) in its own CPU time, and sleeps again, so
its samples are spread evenly over the work being measured and see the
host in the modes that work saw, in the same proportions.  It imports
nothing from ``repro``: a change to the program cannot change it.  It
takes about 3% of the CPU, the same share on every run.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time

#: the reference unit time: with it, campaign's reported run_s (3.0-3.2 s)
#: matches its wall time when the host of README.md's machine was quiet.
REFERENCE_S = 0.0001
#: sleep between two samples.
INTERVAL_S = 0.005


class _Entry:
    __slots__ = ("name", "ttl", "data", "hits")

    def __init__(self, name: str, ttl: int, data: str) -> None:
        self.name = name
        self.ttl = ttl
        self.data = data
        self.hits = 0


class _Zone:
    def __init__(self, origin: str) -> None:
        self.origin = origin
        self.records = {}


def _world():
    """40,000 names over 400 zones (about 20 MB): the program walks a
    world far larger than the CPU caches, so the samples do too."""
    names = [f"mx{i % 7}.host-{i:05d}.zone{i % 400}.example" for i in range(40000)]
    zones = {}
    for i, name in enumerate(names):
        origin = name.split(".", 2)[2]
        zone = zones.get(origin) or zones.setdefault(origin, _Zone(origin))
        zone.records[name] = _Entry(name, i % 300, f"v=spf1 ip4:10.{i % 250}.0.0/16 -all")
    return names, zones


def _unit(names, zones, index: int) -> int:
    """Fixed work: 50 lookups scattered over the world, each parsed,
    counted and turned into a new record."""
    total = 0
    for _ in range(50):
        index = (index * 1103515245 + 12345) % 40000
        name = names[index]
        labels = name.split(".")
        entry = zones[".".join(labels[2:])].records[name]
        entry.hits += 1
        terms = entry.data.split()
        fresh = _Entry(labels[1].upper(), entry.ttl + len(terms), " ".join(reversed(terms)))
        total += fresh.ttl + len(fresh.data)
    return total


def sampler(cpu: int) -> None:
    """Print a line once sampling starts; sample until standard input
    closes, then print the samples as JSON: ``[[monotonic time, unit CPU
    seconds], ...]``."""
    os.sched_setaffinity(0, {cpu})
    names, zones = _world()
    print("sampling", flush=True)
    samples = []
    index = 1
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        started = time.thread_time()
        index = _unit(names, zones, index) % 40000
        samples.append((time.monotonic(), time.thread_time() - started))
    json.dump(samples, sys.stdout)


class Speedometer:
    """A sampler on ``cpu``, from construction to ``stop()``.

    ``factor(start, end)`` is how much slower than the reference host
    the CPU ran between two ``time.monotonic()`` readings (of any
    process): the mean sample in that interval over ``REFERENCE_S``.
    The mean, because the measured work ran through the host's fast and
    slow moments in proportion to their time, as evenly spaced samples
    do.
    """

    def __init__(self, cpu: int) -> None:
        self.samples = []
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._proc.stdout.readline()

    def stop(self) -> None:
        """Stop the sampler, wait for it and keep its samples."""
        if self._proc is None:
            return
        self._proc.stdin.close()
        out = self._proc.stdout.read()
        if self._proc.wait() == 0:
            self.samples = json.loads(out)
        self._proc = None

    def factor(self, start: float, end: float) -> float:
        inside = [cost for at, cost in self.samples if start <= at <= end]
        if not inside:
            raise RuntimeError("no host-speed samples for a measured interval")
        return statistics.fmean(inside) / REFERENCE_S


if __name__ == "__main__":
    sampler(int(sys.argv[1]))
