"""Placement determinism, the document map, and the SHARDS.json manifest."""

import json

import pytest

from repro.errors import ShardError
from repro.shard import (
    MANIFEST_NAME,
    DocumentMap,
    HashPartitioner,
    ShardManifest,
    read_manifest,
    write_manifest,
)


def test_partitioner_is_deterministic_across_instances():
    a, b = HashPartitioner(4), HashPartitioner(4)
    assert [a.shard_of(i) for i in range(64)] == [b.shard_of(i) for i in range(64)]


def test_partitioner_spreads_small_consecutive_ids():
    # The whole point of BLAKE2b over CRC32: tiny consecutive ids (the
    # only ids the DocumentMap ever issues) must not cluster.
    for shards in (2, 4, 8):
        placed = {HashPartitioner(shards).shard_of(i) for i in range(32)}
        assert placed == set(range(shards))


def test_partitioner_rejects_zero_shards():
    with pytest.raises(ShardError):
        HashPartitioner(0)


def test_document_map_round_trips_global_and_local():
    doc_map = DocumentMap(3)
    for expected_id in range(20):
        doc_id, shard, local = doc_map.add()
        assert doc_id == expected_id
        assert doc_map.to_local(doc_id) == (shard, local)
        assert doc_map.to_global(shard, local) == doc_id
    assert doc_map.doc_count == 20
    assert sum(len(docs) for docs in doc_map.by_shard) == 20


def test_document_map_rebuilds_identically_from_count():
    original = DocumentMap(4)
    for _ in range(17):
        original.add()
    rebuilt = DocumentMap(4, doc_count=17)
    assert rebuilt.by_shard == original.by_shard


def test_document_map_rejects_unknown_ids():
    doc_map = DocumentMap(2, doc_count=3)
    with pytest.raises(ShardError):
        doc_map.to_local(3)
    with pytest.raises(ShardError):
        doc_map.to_global(2, 0)
    with pytest.raises(ShardError):
        doc_map.to_global(0, 99)


def test_manifest_round_trips(tmp_path):
    manifest = ShardManifest(
        shards=4, doc_count=9, group_size=5, strategy="scan", fsync="batch:3"
    )
    write_manifest(tmp_path, manifest)
    assert read_manifest(tmp_path) == manifest


def test_manifest_missing_raises_shard_error(tmp_path):
    with pytest.raises(ShardError, match="not a sharded collection"):
        read_manifest(tmp_path)


def test_manifest_corrupt_raises_shard_error(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text("{not json", "utf-8")
    with pytest.raises(ShardError, match="unreadable"):
        read_manifest(tmp_path)


def test_manifest_mistyped_field_raises_shard_error(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text(
        json.dumps({"shards": "two", "doc_count": 1}), "utf-8"
    )
    with pytest.raises(ShardError, match="missing or mistypes"):
        read_manifest(tmp_path)


def _manifest_with_strategy(tmp_path, strategy):
    write_manifest(
        tmp_path,
        ShardManifest(
            shards=2, doc_count=3, group_size=5, strategy=strategy, fsync="always"
        ),
    )


@pytest.mark.parametrize("retired", ["merge", "window", "twig"])
def test_manifest_retired_strategy_reads_as_auto(tmp_path, retired):
    # Roots written when the engine still had these names stay openable.
    _manifest_with_strategy(tmp_path, retired)
    assert read_manifest(tmp_path).strategy == "auto"


@pytest.mark.parametrize("bad", ["sCan", "bogus", ""])
def test_manifest_unknown_strategy_raises_shard_error(tmp_path, bad):
    _manifest_with_strategy(tmp_path, bad)
    with pytest.raises(ShardError, match="unknown strategy"):
        read_manifest(tmp_path)
