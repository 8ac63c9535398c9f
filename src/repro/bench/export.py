"""Export experiment tables to CSV/JSON and regenerate all exhibits.

``python -m repro bench fig18 --csv out.csv`` and
:func:`export_all_exhibits` (used by ``examples/regenerate_all.py``) write
the paper's tables and figures as machine-readable artifacts, so plots can
be rebuilt outside this library.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable, Dict, List

from repro.bench.harness import ResultTable, capture_metrics

__all__ = ["table_to_csv", "table_to_json", "exhibit_builders", "export_all_exhibits"]


def table_to_csv(table: ResultTable, path: str | Path) -> None:
    """Write one table as CSV (header row = column names)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.columns)
        writer.writerows(table.rows)


def table_to_json(table: ResultTable, path: str | Path) -> None:
    """Write one table as JSON: title, note, row dicts, and — when the
    exhibit was built under metrics collection — the counter/timer
    snapshot (``metrics``) so artifacts carry per-run cost trajectories."""
    payload = {
        "title": table.title,
        "note": table.note,
        "columns": list(table.columns),
        "rows": table.as_dicts(),
    }
    if table.metrics is not None:
        payload["metrics"] = table.metrics
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def exhibit_builders(include_slow: bool = True) -> Dict[str, Callable[[], ResultTable]]:
    """Name -> builder for every exhibit; slow ones (query corpus, update
    sweeps) can be excluded for quick smoke runs."""
    from repro import bench
    from repro.bench.response import figure15_table, table2_table

    builders: Dict[str, Callable[[], ResultTable]] = {
        "fig3": bench.figure3_table,
        "fig4": bench.figure4_table,
        "fig5": bench.figure5_table,
        "table1": bench.table1_table,
        "fig13": bench.figure13_table,
        "fig14": bench.figure14_table,
    }
    if include_slow:
        builders.update(
            {
                "table2": table2_table,
                "fig15": figure15_table,
                "fig16": bench.figure16_table,
                "fig17": bench.figure17_table,
                "fig18": bench.figure18_table,
            }
        )
    return builders


def export_all_exhibits(
    directory: str | Path, include_slow: bool = True
) -> List[Path]:
    """Regenerate every exhibit into ``directory`` as CSV + JSON pairs.

    Returns the written paths, sorted.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name, builder in exhibit_builders(include_slow).items():
        table = capture_metrics(builder)
        csv_path = target / f"{name}.csv"
        json_path = target / f"{name}.json"
        table_to_csv(table, csv_path)
        table_to_json(table, json_path)
        written.extend([csv_path, json_path])
    return sorted(written)
