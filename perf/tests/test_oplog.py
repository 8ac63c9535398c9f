"""The generator is deterministic, prefix-stable, and its shadow is sound."""

from __future__ import annotations

import json

from repro.datasets.shakespeare import play
from repro.durable import DurableCollection
from repro.xmlkit.serialize import serialize

from perf.oplog import op_stream, query_rounds


def _documents():
    return [play(seed=seed, acts=2) for seed in (1, 2)]


def _dump(stream):
    return json.dumps([[list(r.entries), list(r.query), r.expected] for r in stream.requests])


def test_same_seed_same_bytes():
    first = op_stream(_documents(), seed=5, requests=30, oracle_every=10)
    second = op_stream(_documents(), seed=5, requests=30, oracle_every=10)
    assert _dump(first) == _dump(second)
    assert first.shadow.serialized() == second.shadow.serialized()
    assert query_rounds(5, 4) == query_rounds(5, 4)


def test_other_seed_other_stream():
    assert _dump(op_stream(_documents(), 5, 10)) != _dump(op_stream(_documents(), 6, 10))


def test_prefix_stable():
    long = op_stream(_documents(), seed=3, requests=40)
    short = op_stream(_documents(), seed=3, requests=13)
    assert [r.entries for r in long.requests[:13]] == [r.entries for r in short.requests]
    assert [r.query for r in long.requests[:13]] == [r.query for r in short.requests]


def test_op_mix_keeps_documents_near_their_size():
    documents = _documents()
    size = sum(1 for root in documents for _ in root.iter_preorder())
    stream = op_stream(documents, seed=9, requests=50)
    kinds = [entry["kind"] for request in stream.requests for entry in request.entries]
    assert 0.4 < kinds.count("delete") / len(kinds) < 0.6
    assert abs(stream.shadow.node_count() - size) < 0.1 * size


def test_shadow_matches_the_durable_layer(tmp_path):
    documents = _documents()
    stream = op_stream(documents, seed=11, requests=20)
    collection = DurableCollection.create(
        tmp_path / "col", [root.copy() for root in documents], fsync="never"
    )
    try:
        for request in stream.requests:
            collection.apply_batch_addressed(request.entries)
        assert [serialize(root) for root in collection.documents] == stream.shadow.serialized()
    finally:
        collection.close()
