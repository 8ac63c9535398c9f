"""Compare two run sets: one row per workload and end-to-end metric.

``python -m perf compare A.jsonl B.jsonl`` reads two files of untraced run
records, as ``perf run --out`` appends them, and prints both sets' medians
and quartiles for every workload and end-to-end metric, with a verdict
that uses the metric's ``bound`` from ``BENCHMARK.json``:

* ``unresolved`` -- either set has fewer than :data:`MIN_RUNS` runs, or
  its own quartile spread (IQR over median) is wider than the bound, so
  the runs cannot tell a change of that size from noise.  The exception:
  when every run of B reads better than every run of A, the verdict is
  ``better``;
* ``worse`` / ``better`` -- B's median differs from A's by more than the
  bound, in the metric's bad / good direction;
* ``same`` -- otherwise.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from perf.run import load_spec

__all__ = ["MIN_RUNS", "compare", "main", "verdict"]

#: Runs per workload a set needs before its quartiles mean anything.
MIN_RUNS = 5


def load_runs(path: str) -> Dict[str, List[dict]]:
    """Untraced run records in a JSON-lines file, by workload."""
    runs: Dict[str, List[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record.get("trace"):
                runs.setdefault(record["workload"], []).append(record)
    return runs


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    low, median, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(before: List[float], after: List[float], bound: float, better: str) -> str:
    """The verdict for one metric, ``better`` being ``"lower"`` or ``"higher"``."""
    if min(len(before), len(after)) < MIN_RUNS:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    for values in (before, after):
        low, median, high = _quartiles(values)
        if (high - low) / median > bound:
            if min(sign * value for value in after) > max(sign * value for value in before):
                return "better"
            return "unresolved"
    change = sign * (statistics.median(after) - statistics.median(before)) / statistics.median(before)
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def compare(before_path: str, after_path: str) -> List[dict]:
    """Every workload x end-to-end metric row of the comparison."""
    spec = load_spec()
    before, after = load_runs(before_path), load_runs(after_path)
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            values = [
                [
                    run["metrics"][metric["name"]]["value"]
                    for run in runs.get(name, [])
                    if metric["name"] in run["metrics"]
                ]
                for runs in (before, after)
            ]
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "before": values[0],
                    "after": values[1],
                    "verdict": verdict(values[0], values[1], metric["bound"], metric["better"]),
                }
            )
    return rows


def _summary(values: List[float]) -> str:
    if len(values) < 2:
        return f"{'n=' + str(len(values)):>30}"
    low, median, high = _quartiles(values)
    return f"{median:10.4g} [{low:8.4g} {high:8.4g}]"


def main(before_path: str, after_path: str) -> int:
    """Print the comparison table; exit 1 when anything got worse."""
    rows = compare(before_path, after_path)
    print(f"{'workload':15} {'metric':16} {'A median [q1 q3]':>30} {'B median [q1 q3]':>30}  verdict")
    for row in rows:
        print(
            f"{row['workload']:15} {row['metric']:16} {_summary(row['before'])} "
            f"{_summary(row['after'])}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
