"""ShardedCollection.create: workers write their own shards.

Each worker writes and audits its shard on its first launch; the router
only places documents and writes ``SHARDS.json`` once every shard is
durable.  These tests pin what happens when a worker cannot write its
shard, when a written shard cannot bootstrap, and that the documents
cross a ``spawn`` boundary whatever their depth.
"""

import multiprocessing
import sys

import pytest

from repro.durable.collection import DurableCollection
from repro.durable.recovery import recover_shard, shard_directory, snapshot_path
from repro.errors import ShardError
from repro.resilient.policy import RetryPolicy
from repro.shard import HealthPolicy, ShardState, ShardedCollection
from repro.shard.partitioner import MANIFEST_NAME, DocumentMap
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serialize import serialize
from repro.xmlkit.tree import XmlElement

DOCS = [
    "<r><a><b/></a><c/></r>",
    "<r><x/><y><z/></y></r>",
    "<r><m/><n/></r>",
    "<r><p><q/></p></r>",
]

FAST = HealthPolicy(
    heartbeat_interval=60.0,
    restart_budget=3,
    restart=RetryPolicy(
        max_attempts=4, base_delay=0.02, max_delay=0.05, jitter=0.0, seed=0
    ),
)


def documents():
    return [parse_document(xml) for xml in DOCS]


def test_a_shard_its_worker_cannot_write_fails_create(tmp_path):
    root = tmp_path / "store"
    root.mkdir()
    # A file where shard 1's directory belongs: its worker cannot mkdir.
    shard_directory(root, 1).write_text("not a directory")
    children = set(multiprocessing.active_children())
    with pytest.raises(ShardError, match="shard 1") as caught:
        ShardedCollection.create(root, documents(), shards=2, policy=FAST)
    assert "shard 0" not in str(caught.value)
    assert not (root / MANIFEST_NAME).exists()
    # Both workers were stopped, shard 0's too.
    assert set(multiprocessing.active_children()) <= children


def test_a_bad_fsync_policy_fails_create_and_writes_nothing(tmp_path):
    root = tmp_path / "store"
    with pytest.raises(ShardError, match="unknown fsync policy"):
        ShardedCollection.create(
            root, documents(), shards=2, policy=FAST, fsync="bogus"
        )
    assert not (root / MANIFEST_NAME).exists()
    assert not any(shard_directory(root, shard_id).exists() for shard_id in range(2))


def test_worker_written_snapshots_match_an_in_process_create(tmp_path):
    root = tmp_path / "store"
    ShardedCollection.create(root, documents(), shards=2, policy=FAST).close()
    doc_map = DocumentMap(2)
    placed = [[], []]
    for document in documents():
        placed[doc_map.add()[1]].append(document)
    for shard_id in range(2):
        reference = tmp_path / f"reference-{shard_id}"
        DurableCollection.create(reference, placed[shard_id]).close()
        written = snapshot_path(shard_directory(root, shard_id), 1).read_bytes()
        assert written == snapshot_path(reference, 1).read_bytes()


def test_a_leftover_shard_is_refused_before_any_worker_starts(tmp_path):
    root = tmp_path / "store"
    ShardedCollection.create(root, documents(), shards=2, policy=FAST).close()
    (root / MANIFEST_NAME).unlink()
    with pytest.raises(ShardError, match="remove shard-00/ .* and retry"):
        ShardedCollection.create(root, documents(), shards=2, policy=FAST)
    assert not (root / MANIFEST_NAME).exists()


def test_a_written_shard_that_cannot_bootstrap_starts_down_and_recovers(tmp_path):
    root = tmp_path / "store"
    with ShardedCollection.create(
        root, documents(), shards=2, policy=FAST, fault_spec="bogus"
    ) as service:
        assert [health.state for health in service.status()] == [ShardState.DOWN] * 2
    assert (root / MANIFEST_NAME).exists()
    recovered = sum(
        len(recover_shard(root, shard_id).collection.documents)
        for shard_id in range(2)
    )
    assert recovered == len(DOCS)
    with ShardedCollection.open(root, policy=FAST) as service:
        assert all(health.state is ShardState.UP for health in service.status())
        assert [service.serialize_document(doc) for doc in range(len(DOCS))] == [
            serialize(document) for document in documents()
        ]


def test_spawned_workers_write_a_document_deeper_than_the_stack(tmp_path):
    depth = sys.getrecursionlimit() + 200
    root = node = XmlElement("n")
    for _ in range(depth):
        node = node.append(XmlElement("n"))
    with ShardedCollection.create(
        tmp_path / "store",
        [root, parse_document(DOCS[0])],
        shards=2,
        policy=FAST,
        start_method="spawn",
    ) as service:
        result = service.query("//n")
        assert result.complete and len(result.rows) == depth + 1
