"""CSV export for every experiment's structured rows.

Downstream analysis (plots, notebooks) wants machine-readable series, not
text tables.  ``export_all(sim, directory)`` writes one CSV per artifact,
with automatic garbage collection paused like the run and the report
(:func:`repro.collector.collector_paused`).
"""

from __future__ import annotations

import csv
import io
import pathlib
from typing import Dict, Iterable, List, Sequence

from ..collector import collector_paused
from ..simulation import Simulation


def _write_csv(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def table1_csv(sim: Simulation) -> str:
    from .table1 import build_table1

    rows = build_table1(sim.population)
    return _write_csv(
        ["row_set", "row_size"] + [r.row_set for r in rows],
        [[r.row_set, r.row_size] + [r.cells[c.row_set] for c in rows] for r in rows],
    )


def table4_csv(sim: Simulation) -> str:
    from .table4 import build_table4

    rows = build_table4(sim.population, sim.run().initial)
    return _write_csv(
        [
            "group", "ips_measured", "ips_vulnerable", "ips_erroneous",
            "ips_compliant", "domains_measured", "domains_vulnerable",
        ],
        [
            [
                r.group, r.ips_measured, r.ips_vulnerable, r.ips_erroneous,
                r.ips_compliant, r.domains_measured, r.domains_vulnerable,
            ]
            for r in rows
        ],
    )


def table7_csv(sim: Simulation) -> str:
    from .table7 import build_table7

    table = build_table7(sim.run().initial)
    return _write_csv(
        ["behavior", "ip_count"],
        [[behavior.value, count] for behavior, count in table.behavior_counts.items()]
        + [["multiple-patterns", table.multiple_patterns],
           ["total-measured", table.total_measured]],
    )


def figure5_csv(sim: Simulation) -> str:
    from .figure5 import build_figure5

    figure = build_figure5(sim)
    return _write_csv(
        ["date", "total", "measured", "inferred", "inconclusive", "vulnerable", "patched"],
        [
            [
                s.date.date().isoformat(), s.total, s.measured, s.inferred,
                s.inconclusive, s.vulnerable, s.patched,
            ]
            for s in figure.series
        ],
    )


def figure7_csv(sim: Simulation) -> str:
    from .figure7 import build_figure7

    figure = build_figure7(sim)
    if not figure.series or not figure.series[0].points:
        return _write_csv(["date"], [])
    headers = ["date"] + [s.group for s in figure.series]
    rows: List[List[object]] = []
    for i, point in enumerate(figure.series[0].points):
        row: List[object] = [point.date.date().isoformat()]
        for series in figure.series:
            summary = series.points[i]
            determinable = summary.vulnerable + summary.patched
            row.append(
                round(summary.vulnerable / determinable, 4) if determinable else ""
            )
        rows.append(row)
    return _write_csv(headers, rows)


def geography_csv(sim: Simulation) -> str:
    from .figure3 import build_figure3

    figure = build_figure3(sim)
    return _write_csv(
        ["country", "vulnerable_ips", "patched_ips", "patch_rate"],
        [
            [country, cell.vulnerable, cell.patched, round(cell.patch_rate, 4)]
            for country, cell in sorted(figure.countries.items())
        ],
    )


EXPORTERS = {
    "table1.csv": table1_csv,
    "table4.csv": table4_csv,
    "table7.csv": table7_csv,
    "figure5.csv": figure5_csv,
    "figure7.csv": figure7_csv,
    "geography.csv": geography_csv,
}


@collector_paused()
def export_all(sim: Simulation, directory) -> Dict[str, pathlib.Path]:
    """Write every exporter's CSV into ``directory``; returns the paths."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = {}
    for filename, exporter in EXPORTERS.items():
        path = directory / filename
        path.write_text(exporter(sim))
        written[filename] = path
    return written
