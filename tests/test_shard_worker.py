"""The worker protocol engine, and the picklable bootstrap state.

Satellite 1: everything a worker needs to (re)start must survive the
process boundary — the :class:`WorkerConfig` itself (pickled under the
``spawn`` start method), the prime generator's issuance position, and
the SC-group snapshot payload — each with an exact round-trip proof.
The :class:`WorkerServer` tests drive the protocol engine in-process,
no child processes involved.
"""

import pickle

import pytest

from repro.durable.collection import DurableCollection
from repro.durable.faults import FaultPlan
from repro.durable.recovery import shard_directory
from repro.durable.snapshot import (
    collection_fingerprint,
    read_snapshot,
    restore_collection,
    write_snapshot,
)
from repro.errors import DurabilityError, QuerySyntaxError, ReproError, ShardError
from repro.primes.gen import PrimeGenerator
from repro.query.live import LiveCollection
from repro.shard import (
    Request,
    WorkerConfig,
    WorkerServer,
    rehydrate_error,
)
from repro.xmlkit.parser import parse_document

DOCS = ["<r><a><b/></a><c/></r>", "<r><x/><y><z/></y></r>"]


@pytest.fixture
def worker(tmp_path):
    documents = [parse_document(xml) for xml in DOCS]
    DurableCollection.create(shard_directory(tmp_path, 0), documents).close()
    server = WorkerServer(WorkerConfig(shard_id=0, root=str(tmp_path)))
    yield server
    server.close()


# ---------------------------------------------------------------------------
# Satellite 1: picklable bootstrap state round-trips


def test_worker_config_pickle_round_trip():
    config = WorkerConfig(
        shard_id=3,
        root="/somewhere/shards",
        fsync="batch:7",
        verify=False,
        fault_spec="crash=append@3",
    )
    assert pickle.loads(pickle.dumps(config)) == config


def test_prime_generator_state_pickle_round_trip():
    generator = PrimeGenerator(reserved=8)
    issued = [generator.get_reserved_prime() for _ in range(3)]
    issued += [generator.get_prime() for _ in range(10)]
    state = generator.state()
    restored = PrimeGenerator.from_state(pickle.loads(pickle.dumps(state)))
    # The restored generator continues the exact sequence — no repeats,
    # no gaps — which is what makes recovery labeling deterministic.
    assert [restored.get_prime() for _ in range(10)] == [
        generator.get_prime() for _ in range(10)
    ]
    assert restored.state() == generator.state()


def test_snapshot_state_pickle_round_trip(tmp_path):
    collection = LiveCollection([parse_document(xml) for xml in DOCS])
    collection.insert_child(collection.documents[0], 0, tag="new")
    path = tmp_path / "snap.rpsn"
    write_snapshot(collection, path, last_seq=5)
    state = read_snapshot(path)
    restored_state = pickle.loads(pickle.dumps(state))
    assert restored_state.last_seq == 5
    assert [d.generator_state for d in restored_state.documents] == [
        d.generator_state for d in state.documents
    ]
    assert [d.sc_groups for d in restored_state.documents] == [
        d.sc_groups for d in state.documents
    ]
    assert collection_fingerprint(restore_collection(restored_state)) == (
        collection_fingerprint(restore_collection(state))
    )


# ---------------------------------------------------------------------------
# The protocol engine, in-process


def test_worker_serves_pings_queries_and_mutations(worker):
    pong = worker.handle(Request(id=1, kind="ping", payload={}))
    assert pong.ok and pong.value["docs"] == 2 and pong.value["last_seq"] == 0

    rows = worker.handle(Request(id=2, kind="query", payload={"text": "//b"}))
    assert rows.ok and [(doc, tag) for doc, tag, _, _ in rows.value] == [(0, "b")]

    ack = worker.handle(
        Request(
            id=3,
            kind="apply_batch",
            payload={
                "entries": [
                    {"kind": "insert_child", "doc": 1, "pos": 0, "index": 0,
                     "tag": "w"}
                ]
            },
        )
    )
    assert ack.ok and ack.value["last_seq"] == 1
    serialized = worker.handle(Request(id=4, kind="serialize", payload={"doc": 1}))
    assert serialized.ok and "<w" in serialized.value
    audit = worker.handle(Request(id=5, kind="audit", payload={}))
    assert audit.ok and audit.value == []


def test_worker_batch_is_one_wal_record(worker):
    ack = worker.handle(
        Request(
            id=1,
            kind="apply_batch",
            payload={
                "entries": [
                    {"kind": "insert_child", "doc": 0, "pos": 0, "index": 0,
                     "tag": "p"},
                    {"kind": "insert_child", "doc": 1, "pos": 0, "index": 0,
                     "tag": "q"},
                ]
            },
        )
    )
    # Group commit: two ops, one sequence number — the property the
    # router's single-comparison redo reconciliation rests on.
    assert ack.ok and ack.value["last_seq"] == 1 and ack.value["ops"] == 2


def test_worker_errors_ship_as_data_and_rehydrate_typed(worker):
    response = worker.handle(
        Request(id=1, kind="query", payload={"text": "//[broken"})
    )
    assert not response.ok
    error = rehydrate_error(response.error, shard=0)
    assert isinstance(error, QuerySyntaxError)
    assert "shard 0" in str(error)

    response = worker.handle(Request(id=2, kind="never-heard-of-it", payload={}))
    assert not response.ok
    error = rehydrate_error(response.error, shard=4)
    assert isinstance(error, ShardError)
    assert "shard 4" in str(error)


def test_worker_survives_a_failed_request(worker):
    bad = worker.handle(
        Request(
            id=1,
            kind="apply_batch",
            payload={"entries": [{"kind": "delete", "doc": 0, "pos": 999}]},
        )
    )
    assert not bad.ok
    # The failed op must not have consumed a sequence number or wedged
    # the collection: the next request serves normally.
    pong = worker.handle(Request(id=2, kind="ping", payload={}))
    assert pong.ok and pong.value["last_seq"] == 0


@pytest.mark.parametrize("bad", [True, 3.0, "1", None])
def test_worker_bad_positions_are_typed_missing_node_errors(worker, bad):
    # True == 1 and 3.0 == 3: an equality lookup would resolve both to a
    # real node.  A malformed position must read as a missing node instead.
    response = worker.handle(
        Request(
            id=1,
            kind="apply_batch",
            payload={"entries": [{"kind": "delete", "doc": 0, "pos": bad}]},
        )
    )
    assert not response.ok
    error = rehydrate_error(response.error, shard=0)
    assert isinstance(error, DurabilityError)
    assert "does not exist" in str(error)
    pong = worker.handle(Request(id=2, kind="ping", payload={}))
    assert pong.ok and pong.value["last_seq"] == 0


@pytest.mark.parametrize("bad", [True, 0.0, "0", None])
def test_worker_bad_document_is_a_typed_error(worker, bad):
    entry = {"kind": "delete", "doc": bad, "pos": 1}
    response = worker.handle(
        Request(id=1, kind="apply_batch", payload={"entries": [entry]})
    )
    assert not response.ok
    assert isinstance(rehydrate_error(response.error, shard=0), ReproError)
    pong = worker.handle(Request(id=2, kind="ping", payload={}))
    assert pong.ok and pong.value["last_seq"] == 0


@pytest.mark.parametrize("bad", [True, None, 99, -1, "1"])
def test_worker_bad_index_is_an_error_response(worker, bad):
    entry = {"kind": "insert_child", "doc": 0, "pos": 0, "index": bad, "tag": "w"}
    response = worker.handle(
        Request(id=1, kind="apply_batch", payload={"entries": [entry]})
    )
    assert not response.ok
    assert isinstance(rehydrate_error(response.error, shard=0), ReproError)
    pong = worker.handle(Request(id=2, kind="ping", payload={}))
    assert pong.ok and pong.value["last_seq"] == 0


def test_fault_spec_parsing():
    assert FaultPlan.from_spec(None) is None
    assert FaultPlan.from_spec("") is None
    plan = FaultPlan.from_spec("crash=append@3")
    assert plan.script == {("append", 3): ("crash", 0)} and plan.rate == 0.0
    with pytest.raises(ValueError, match="call number"):
        FaultPlan.from_spec("crash=append@soon")
    with pytest.raises(ValueError, match="unknown"):
        FaultPlan.from_spec("meteor_strike")
