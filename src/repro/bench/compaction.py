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

The v3 row runs the seeded workload live.  No code writes the legacy
formats any more, so the v2 row reads files recorded once by the last
legacy writer running the same workload at the default arguments
(``legacy_v2/``: the collection directory as the run left it, plus
``final.rpsn``, the post-workload state as a v2 snapshot).  Every column
is a count, so the table depends on its seed alone; with other arguments
the recorded row no longer matches and says so (``identical NO`` and a
WARNING).
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

#: The recorded format-2 run: ``snap-00000001.rpsn`` (v2), ``wal.log`` (v1
#: payloads), ``CURRENT`` (the pointer file that version wrote; recovery
#: ignores it) and ``final.rpsn`` (v2, post-workload).
LEGACY_V2 = Path(__file__).with_name("legacy_v2")


def compaction_table(
    node_budget: int = 600, operations: int = 120, seed: int = 11
) -> ResultTable:
    """Measure snapshot size, WAL bytes/op, and replayed records per format."""
    # Imported here, not at module scope: repro.durable reaches back into
    # repro.obs.audit, which is still initializing when repro.labeling
    # pulls this package in for ResultTable.
    from repro.datasets.shakespeare import play
    from repro.durable import DurableCollection, collection_fingerprint, recover
    from repro.durable.snapshot import read_snapshot, restore_collection, snapshot_bytes
    from repro.durable.wal import WAL_HEADER, scan_wal

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
    workdir = Path(tempfile.mkdtemp(prefix="repro-compaction-"))
    try:
        with metrics.collecting() as registry:
            collection = DurableCollection.create(
                workdir / "col",
                [play(seed=seed, acts=1, node_budget=node_budget)],
                fsync="never",
            )
            run_workload(collection, seed=seed, operations=operations)
            fingerprint = collection_fingerprint(collection.live)
            snapshot_kib = len(snapshot_bytes(collection.live)) / 1024.0
            # Simulate the crash: sync, then abandon without closing.
            collection.wal.sync()
            counters = registry.snapshot()["counters"]
        recovered = recover(workdir / "col")
        identical = collection_fingerprint(recovered.collection) == fingerprint
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wal_bytes = counters.get("wal.append_bytes", 0)
    appends = counters.get("wal.appends", 0) or 1

    # The v2 row: recover() only reads the recorded directory.
    legacy = recover(LEGACY_V2)
    final = restore_collection(read_snapshot(LEGACY_V2 / "final.rpsn"))
    legacy_fingerprints = {
        collection_fingerprint(legacy.collection),
        collection_fingerprint(final),
    }
    legacy_wal = LEGACY_V2 / "wal.log"
    legacy_bytes = legacy_wal.stat().st_size - len(WAL_HEADER)
    legacy_records = len(scan_wal(legacy_wal).records) or 1
    table.add_row(
        "v2 (legacy)",
        round((LEGACY_V2 / "final.rpsn").stat().st_size / 1024.0, 1),
        round(legacy_bytes / 1024.0, 1),
        round(legacy_bytes / legacy_records, 1),
        legacy.info.replayed_records,
        "yes" if legacy_fingerprints == {fingerprint} else "NO",
    )
    table.add_row(
        "v3 (varint)",
        round(snapshot_kib, 1),
        round(wal_bytes / 1024.0, 1),
        round(wal_bytes / appends, 1),
        recovered.info.replayed_records,
        "yes" if identical else "NO",
    )
    if legacy_fingerprints != {fingerprint}:
        table.note += "  WARNING: formats diverged — same workload, different state!"
    return table
