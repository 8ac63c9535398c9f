"""The durable-file module: atomic replace with a directory fsync, truncate."""

import os
import stat

from repro.durable import DurableCollection, files, truncate_durably
from repro.shard.partitioner import ShardManifest, read_manifest, write_manifest
from repro.xmlkit.parser import parse_document


def spy(monkeypatch):
    """Log ``("replace", target)`` and ``("fsync", inode, is_dir)`` events."""
    events = []
    real_replace, real_fsync = os.replace, os.fsync

    def replace(src, dst):
        real_replace(src, dst)
        events.append(("replace", os.path.abspath(dst)))

    def fsync(fd):
        info = os.fstat(fd)
        events.append(("fsync", info.st_ino, stat.S_ISDIR(info.st_mode)))
        real_fsync(fd)

    monkeypatch.setattr(files.os, "replace", replace)
    monkeypatch.setattr(files.os, "fsync", fsync)
    return events


def assert_each_rename_is_followed_by_its_directory_fsync(events):
    renames = [i for i, event in enumerate(events) if event[0] == "replace"]
    assert renames
    for i in renames:
        parent = os.stat(os.path.dirname(events[i][1])).st_ino
        assert events[i + 1] == ("fsync", parent, True), events[i : i + 2]


def test_every_rename_of_a_durable_workload_fsyncs_its_directory(
    tmp_path, monkeypatch
):
    events = spy(monkeypatch)
    collection = DurableCollection.create(
        tmp_path / "col", [parse_document("<r><a/><b/></r>")]
    )
    for step in range(2):
        collection.insert_child(collection.documents[0], 0, tag=f"n{step}")
        collection.checkpoint()  # the second prunes: a WAL rewrite
    collection.wal.reset(collection.wal.next_seq + 5)
    collection.close()
    write_manifest(tmp_path, ShardManifest(2, 1, 5, "auto", "always"))
    targets = [event[1] for event in events if event[0] == "replace"]
    col = str(tmp_path / "col")
    assert targets == [
        os.path.join(col, "snap-00000001.rpsn"),
        os.path.join(col, "wal.log"),  # the new log's header
        os.path.join(col, "snap-00000002.rpsn"),
        os.path.join(col, "snap-00000003.rpsn"),
        os.path.join(col, "wal.log"),  # the prune's rewrite
        os.path.join(col, "wal.log"),  # the reset
        str(tmp_path / "SHARDS.json"),
    ]
    assert_each_rename_is_followed_by_its_directory_fsync(events)
    assert read_manifest(tmp_path).shards == 2
    assert sorted(p.name for p in (tmp_path / "col").iterdir()) == [
        "snap-00000002.rpsn",
        "snap-00000003.rpsn",
        "wal.log",
    ]


def test_truncate_durably_cuts_and_fsyncs_the_file(tmp_path, monkeypatch):
    events = spy(monkeypatch)
    target = tmp_path / "log"
    target.write_bytes(b"0123456789")
    truncate_durably(target, 4)
    assert target.read_bytes() == b"0123"
    assert events == [("fsync", os.stat(target).st_ino, False)]
