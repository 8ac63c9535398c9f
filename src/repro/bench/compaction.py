"""Format-v3 compaction exhibit: legacy vs varint on-disk encodings.

Not a paper figure — the paper's size analysis (§3.1, Figure 14) charges
labels at a fixed column width in a DBMS; this exhibit measures what the
repo's own durable files pay for the same labels before and after the
format-v3 generation:

* snapshot bytes (RPSN v2's 2-byte-length integers vs v3's varints),
* WAL bytes per operation (v1's canonical-JSON payloads vs v3's binary
  opcode + varint payloads),
* records replayed by recovery over the identical workload, and
* whether both formats recover to the same fingerprint (they must — the
  encodings differ, the state must not).

Both rows run the exact same seeded workload, so every delta is the
encoding's and nothing else's.  Every column is a count, so the table
depends on its seed alone.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

# NOTE: repro.durable and the dataset builders are imported lazily inside
# compaction_table — see the comment there.

from repro.bench.durability import run_workload
from repro.bench.harness import ResultTable
from repro.obs import metrics

__all__ = ["compaction_table"]

#: (row label, DurableCollection format_version) per exhibit row.
_FORMATS = (("v2 (legacy)", 2), ("v3 (varint)", 3))


def compaction_table(
    node_budget: int = 600, operations: int = 120, seed: int = 11
) -> ResultTable:
    """Measure snapshot size, WAL bytes/op, and replayed records per format."""
    # Imported here, not at module scope: repro.durable reaches back into
    # repro.obs.audit, which is still initializing when repro.labeling
    # pulls this package in for ResultTable.
    from repro.datasets.shakespeare import play
    from repro.durable import DurableCollection, collection_fingerprint, recover
    from repro.durable.snapshot import snapshot_bytes

    table = ResultTable(
        title=f"Format-v3 compaction ({operations} updates on a "
        f"{node_budget}-node play, identical workload per format)",
        columns=[
            "format",
            "snapshot KiB",
            "wal KiB",
            "wal B/op",
            "replayed",
            "identical",
        ],
        note="'identical' compares each recovery to its own pre-crash "
        "fingerprint; both rows must also recover to the same state.",
    )
    fingerprints = []
    for label, format_version in _FORMATS:
        workdir = Path(tempfile.mkdtemp(prefix="repro-compaction-"))
        try:
            with metrics.collecting() as registry:
                collection = DurableCollection.create(
                    workdir / "col",
                    [play(seed=seed, acts=1, node_budget=node_budget)],
                    fsync="never",
                    format_version=format_version,
                )
                run_workload(collection, seed=seed, operations=operations)
                fingerprint = collection_fingerprint(collection.live)
                snapshot_kib = len(
                    snapshot_bytes(
                        collection.live,
                        version=collection.snapshot_version,
                    )
                ) / 1024.0
                # Simulate the crash: sync, then abandon without closing.
                collection.wal.sync()
                counters = registry.snapshot()["counters"]
            recovered = recover(workdir / "col")
            identical = collection_fingerprint(recovered.collection) == fingerprint
            fingerprints.append(fingerprint)
            wal_bytes = counters.get("wal.append_bytes", 0)
            appends = counters.get("wal.appends", 0) or 1
            table.add_row(
                label,
                round(snapshot_kib, 1),
                round(wal_bytes / 1024.0, 1),
                round(wal_bytes / appends, 1),
                recovered.info.replayed_records,
                "yes" if identical else "NO",
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if len(set(fingerprints)) != 1:
        table.note += "  WARNING: formats diverged — same workload, different state!"
    return table
