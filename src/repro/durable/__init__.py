"""Durability subsystem: WAL, checksummed snapshots, crash recovery.

The paper's labeling scheme is pitched at *dynamic* documents, and a
dynamic store that forgets everything on process death is a toy.  This
package makes a :class:`~repro.query.live.LiveCollection` durable:

* :mod:`repro.durable.wal` — append-only, CRC32-checksummed write-ahead
  log of every order-sensitive update, with configurable fsync policy,
  and its one record scanner (:func:`scan_wal` reads a whole log;
  :class:`repro.replica.WalTailer` is the only incremental cursor),
* :mod:`repro.durable.snapshot` — atomic, checksummed full-state
  snapshots (trees + prime labels + generator positions + SC grouping),
* :mod:`repro.durable.recovery` — snapshot load + WAL replay + invariant
  audit, with fallback to the previous snapshot generation on corruption,
* :mod:`repro.durable.collection` — :class:`DurableCollection`, the
  log-before-apply wrapper tying it together,
* :mod:`repro.durable.files` — :func:`replace_durably` and
  :func:`truncate_durably`, the only durable-file calls outside the
  WAL's append path,
* :mod:`repro.durable.faults` — :class:`FaultPlan`, one seeded plan of
  scripted crashes, torn writes, bit flips and probabilistic transient
  faults, so all of the above is actually exercised under failure.

See ``docs/DURABILITY.md`` for the design rationale and fault matrix.
"""

from repro.durable.collection import DurableCollection
from repro.durable.faults import FaultPlan, InjectedCrash, flip_bit
from repro.durable.files import replace_durably, truncate_durably
from repro.durable.recovery import (
    RecoveredState,
    RecoveryInfo,
    list_shard_directories,
    recover,
    recover_shard,
    resolve_bootstrap,
    shard_directory,
)
from repro.durable.snapshot import (
    SnapshotState,
    collection_fingerprint,
    read_snapshot,
    restore_collection,
    write_snapshot,
)
from repro.durable.wal import (
    FsyncPolicy,
    WalRecord,
    WalScan,
    WriteAheadLog,
    batch_record,
    scan_wal,
)

__all__ = [
    "DurableCollection",
    "FaultPlan",
    "InjectedCrash",
    "flip_bit",
    "replace_durably",
    "truncate_durably",
    "RecoveredState",
    "RecoveryInfo",
    "list_shard_directories",
    "recover",
    "recover_shard",
    "resolve_bootstrap",
    "shard_directory",
    "SnapshotState",
    "collection_fingerprint",
    "read_snapshot",
    "restore_collection",
    "write_snapshot",
    "FsyncPolicy",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "batch_record",
    "scan_wal",
]
