"""A replica keeps following while the primary rewrites its log at v3.

``DurableCollection.open`` rewrites a legacy (version-1) WAL at version 3,
which replaces the file under any tailer, as ``prune`` does after a
checkpoint.  The replica may rewind to the new header or resync from a
snapshot; either way it must converge on the primary's state.
"""

import shutil
from pathlib import Path

import pytest

from repro.durable import DurableCollection, collection_fingerprint
from repro.durable.recovery import WAL_NAME
from repro.durable.wal import WAL_HEADER, scan_wal
from repro.obs import metrics
from repro.replica import ReplicaCollection

#: A format-2 collection (v2 snapshot, v1 WAL of eight inserts) recorded
#: by the last legacy writer.
LEGACY_COLLECTION = Path(__file__).parent / "fixtures" / "legacy" / "col-v2"


@pytest.mark.parametrize("polled_first", [True, False], ids=["tailing", "fresh"])
def test_catch_up_converges_across_the_upgrade(tmp_path, polled_first):
    directory = tmp_path / "col"
    shutil.copytree(LEGACY_COLLECTION, directory)
    with metrics.collecting() as registry:
        replica = ReplicaCollection(directory)
        if polled_first:
            replica.catch_up()  # consumes the v1 records
            assert replica.applied_seq == 8
        resyncs = replica.resyncs

        primary = DurableCollection.open(directory, fsync="never")
        assert (directory / WAL_NAME).read_bytes()[:5] == WAL_HEADER
        root = primary.documents[0]
        for index in range(3):
            primary.insert_child(root, index % 2, tag=f"up{index}")
        assert [r.seq for r in scan_wal(directory / WAL_NAME).records] == list(
            range(1, 12)
        )

        replica.catch_up()
        rewinds = registry.snapshot()["counters"].get("replica.tailer_rewinds", 0)
    assert replica.applied_seq == primary.last_seq == 11
    assert collection_fingerprint(replica.live) == collection_fingerprint(primary.live)
    if polled_first:
        # The tailer's offset pointed into the v1 file: it either saw the
        # file shrink and rewound, or hit undecodable bytes and resynced.
        assert rewinds + (replica.resyncs - resyncs) >= 1
    replica.close()
    primary.close()
