"""Durability exhibit: what each fsync policy costs in fsyncs and WAL bytes.

Not a paper figure — the paper stops at in-memory dynamics — but the
obvious systems question its scheme raises: what does making the updates
*durable* cost?  The exhibit runs an identical randomized update workload
against a :class:`~repro.durable.collection.DurableCollection` under each
fsync policy, then kills the collection (without closing) and recovers
it, reporting:

* fsync count and WAL bytes written,
* the number of records recovery replayed,
* whether the recovered state matches the survivor byte-for-byte
  (it must — a ``no`` here is a durability bug, not a data point).

Every column is a count, so the table depends on its seed alone; the
wall-clock cost of the same path is measured by ``perf/``.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from pathlib import Path

# NOTE: repro.durable and the dataset builders are imported lazily inside
# durability_table — see the comment there.

from repro.bench.harness import ResultTable
from repro.obs import metrics

__all__ = ["durability_table"]

_POLICIES = ("always", "batch:8", "never")


def run_workload(collection, seed: int, operations: int) -> None:
    """Apply a seeded 70/15/15 insert_child/insert_after/delete churn.

    The durability, resilience and compaction exhibits all run this one
    workload so their tables are comparable; determinism (same seed ->
    same ops) is what makes a fault-free twin a valid byte-identical
    oracle.
    """
    rng = random.Random(seed)
    root = collection.documents[0]
    for _ in range(operations):
        nodes = list(root.iter_preorder())
        roll = rng.random()
        target = rng.choice(nodes)
        if roll < 0.70:
            collection.insert_child(target, rng.randint(0, len(target.children)))
        elif roll < 0.85 and target is not root:
            collection.insert_after(target)
        elif target is not root:
            collection.delete(target)


def durability_table(
    node_budget: int = 600, operations: int = 120, seed: int = 11
) -> ResultTable:
    """Count fsyncs, WAL bytes and replayed records for each fsync policy."""
    # Imported here, not at module scope: repro.durable reaches back into
    # repro.obs.audit, which is still initializing when repro.labeling
    # pulls this package in for ResultTable.
    from repro.datasets.shakespeare import play
    from repro.durable import DurableCollection, collection_fingerprint, recover

    table = ResultTable(
        title=f"Durability overhead ({operations} updates on a "
        f"{node_budget}-node play, crash + recover per policy)",
        columns=[
            "fsync",
            "fsyncs",
            "wal KiB",
            "replayed",
            "identical",
        ],
        note="'identical' compares recovered state to the pre-crash "
        "fingerprint; 'never' may legally replay fewer records.",
    )
    for policy in _POLICIES:
        workdir = Path(tempfile.mkdtemp(prefix="repro-durability-"))
        try:
            with metrics.collecting() as registry:
                collection = DurableCollection.create(
                    workdir / "col",
                    [play(seed=seed, acts=1, node_budget=node_budget)],
                    fsync=policy,
                )
                run_workload(collection, seed=seed, operations=operations)
                fingerprint = collection_fingerprint(collection.live)
                # Simulate the crash: sync (so 'never' is comparable) and
                # abandon the object without closing.
                collection.wal.sync()
                counters = registry.snapshot()["counters"]
            recovered = recover(workdir / "col")
            identical = collection_fingerprint(recovered.collection) == fingerprint
            table.add_row(
                policy,
                counters.get("wal.fsyncs", 0),
                round(counters.get("wal.append_bytes", 0) / 1024.0, 1),
                recovered.info.replayed_records,
                "yes" if identical else "NO",
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return table
