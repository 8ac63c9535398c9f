"""Smoke tests at tiny sizes: metrics, exit codes, and the comparison verdicts."""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys

import pytest

from perf import compare, run, workloads
from perf.__main__ import main

TINY = {
    workloads.Table2Read: {"plays": 2, "replicate": 2},
    workloads.RoutedWrite: {"document_count": 4, "acts": 1, "node_budget": 300},
    workloads.ReplicaFollow: {"acts": 1, "node_budget": 400},
    workloads.ColdStart: {"acts": 1, "node_budget": 400, "batches": 8},
}


@pytest.fixture
def tiny(monkeypatch):
    for cls, sizes in TINY.items():
        for name, value in sizes.items():
            monkeypatch.setattr(cls, name, value)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(tiny, tmp_path, name):
    spec = run.load_spec()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        workdir = tmp_path / section
        workdir.mkdir()
        record = run.measure(workloads.WORKLOADS[name](seed=2), 0.3, trace, workdir)
        assert record["correct"], record["errors"]
        assert record["attempted"] >= 1 and record["failed"] == 0
        declared = {metric["name"]: metric["unit"] for metric in spec[section]}
        assert {key: entry["unit"] for key, entry in record["metrics"].items()} == declared
        values = {key: entry["value"] for key, entry in record["metrics"].items()}
        if trace:
            assert 0.9 <= values["trace.coverage"] <= 1.1
            if name == "routed-write":
                assert values["shard.rpc.joined_frac"] == 1.0
        else:
            # Memory is counted from this process's peak RSS, which the
            # earlier tests' freed memory can absorb; only a fresh process
            # gives the full figure.
            assert values["setup_s"] > 0 and values["memory_mb"] >= 0, values


def _hold(conn, size):
    private = b"\x02" * size
    conn.send(len(private))
    conn.recv()


def test_memory_counts_new_pages_and_each_workers_own_pages():
    context = multiprocessing.get_context("fork")
    baseline = run.start_peak_rss()
    inherited = b"\x01" * (32 << 20)
    own = run.system_memory_mb(baseline, [])
    readings = []
    for size in (0, 16 << 20):
        parent, child = context.Pipe()
        worker = context.Process(target=_hold, args=(child, size))
        worker.start()
        try:
            assert parent.poll(30)
            parent.recv()
            readings.append(run.system_memory_mb(baseline, [worker.pid]))
        finally:
            parent.send("done")
            worker.join(30)
        assert not worker.is_alive()
    assert len(inherited) and 31 < own < 34
    # The worker shares the 32 MiB it inherited; only its own pages count.
    assert readings[0] - own < 8
    assert 14 < readings[1] - readings[0] < 18


def test_wrong_answer_exits_non_zero(tiny, monkeypatch, capsys):
    from repro.query.engine import QueryEngine

    evaluate = QueryEngine.evaluate

    def drop_a_row(self, *args, **kwargs):
        return evaluate(self, *args, **kwargs)[1:]

    monkeypatch.setattr(QueryEngine, "evaluate", drop_a_row)
    assert main(["run", "--workload", "table2-read", "--seconds", "0.2"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(
        run.ROOT / "perf",
        tmp_path / "perf",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "perf", "run", "--workload", "table2-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize(
    "before, after, expected",
    [
        ([10, 10.1, 9.9, 10, 10.05], [10.1, 9.95, 10, 10.02, 10.1], "same"),
        ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05], "worse"),
        ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "better"),
        ([10, 14, 7, 12, 9], [10.1, 9.95, 10, 10.02, 10.1], "unresolved"),
        ([10, 14, 7, 12, 9], [6, 6.1, 5.9, 6, 6.05], "better"),
        # Every run better, but by less than the bound: still the same.
        ([10, 10.01, 10.02, 10.03, 10.04], [9.9, 9.91, 9.92, 9.93, 9.94], "same"),
        ([10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12], "unresolved"),
    ],
)
def test_verdicts(before, after, expected):
    assert compare.verdict(before, after, bound=0.1, better="lower") == expected


def test_compare_flags_a_regression(tmp_path, capsys):
    metric = run.load_spec()["end_to_end"][0]["name"]

    def write(path, values):
        lines = [
            json.dumps(
                {"workload": "table2-read", "trace": 0,
                 "metrics": {metric: {"value": value, "unit": "s"}}}
            )
            for value in values
        ]
        path.write_text("\n".join(lines) + "\n")

    write(tmp_path / "a.jsonl", [1.0, 1.01, 0.99, 1.0, 1.0])
    write(tmp_path / "b.jsonl", [2.0, 2.01, 1.99, 2.0, 2.0])
    assert compare.main(str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")) == 1
    assert "worse" in capsys.readouterr().out
