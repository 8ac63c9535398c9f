"""DurableCollection: log-before-apply wiring, checkpoints, retention."""

import os
import sys

import pytest

from repro.durable import (
    DurableCollection,
    FaultPlan,
    InjectedCrash,
    collection_fingerprint,
    scan_wal,
)
from repro.durable.recovery import WAL_NAME, list_generations, snapshot_path
from repro.errors import DurabilityError, OrderingError, QueryEvaluationError
from repro.obs import metrics
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serialize import serialize

DOC = "<r><a><a1/><a2/></a><b/><c/></r>"
#: The CI fault-injection matrix exports REPRO_WAL_FSYNC.
FSYNC = os.environ.get("REPRO_WAL_FSYNC", "always")


@pytest.fixture
def collection(tmp_path):
    col = DurableCollection.create(tmp_path / "col", [parse_document(DOC)])
    yield col
    col.close()


class TestCreateOpen:
    def test_create_lays_down_snapshot_and_wal(self, tmp_path):
        col = DurableCollection.create(tmp_path / "col", [parse_document(DOC)])
        col.close()
        assert list_generations(tmp_path / "col") == [1]
        assert (tmp_path / "col" / WAL_NAME).exists()

    def test_create_refuses_an_existing_collection(self, tmp_path):
        DurableCollection.create(tmp_path / "col", [parse_document(DOC)]).close()
        with pytest.raises(DurabilityError):
            DurableCollection.create(tmp_path / "col", [parse_document(DOC)])

    def test_create_refuses_a_bad_fsync_policy_before_writing(self, tmp_path):
        with pytest.raises(DurabilityError, match="unknown fsync policy"):
            DurableCollection.create(
                tmp_path / "col", [parse_document(DOC)], fsync="bogus"
            )
        assert not (tmp_path / "col").exists()

    def test_open_round_trips_state(self, tmp_path):
        col = DurableCollection.create(tmp_path / "col", [parse_document(DOC)])
        col.insert_child(col.documents[0], 1, tag="mid")
        fingerprint = collection_fingerprint(col.live)
        col.close()
        reopened = DurableCollection.open(tmp_path / "col")
        assert collection_fingerprint(reopened.live) == fingerprint
        assert reopened.last_recovery is not None
        assert reopened.last_seq == 1
        reopened.close()

    def test_wal_behind_snapshot_never_reissues_sequence_numbers(self, tmp_path):
        """fsync='never' can lose a WAL tail that a later checkpoint's
        snapshot still covers; new appends must start past the snapshot."""
        col = DurableCollection.create(
            tmp_path / "col", [parse_document(DOC)], fsync="never"
        )
        for _ in range(5):
            col.insert_child(col.documents[0], 0)
        col.checkpoint()  # snapshot covers seq 5, wal.sync() happened
        col.close()
        # Simulate the page-cache loss: rewrite the WAL as empty.
        wal_path = tmp_path / "col" / WAL_NAME
        wal_path.write_bytes(wal_path.read_bytes()[:5])
        reopened = DurableCollection.open(tmp_path / "col", fsync="never")
        assert reopened.last_seq == 5
        reopened.insert_child(reopened.documents[0], 0)
        fingerprint = collection_fingerprint(reopened.live)
        assert scan_wal(wal_path).records[0].seq == 6
        reopened.close()
        # ... and that new record actually replays.
        final = DurableCollection.open(tmp_path / "col")
        assert collection_fingerprint(final.live) == fingerprint
        final.close()


class TestLoggedMutations:
    def test_each_mutation_appends_one_record(self, collection):
        root = collection.documents[0]
        collection.insert_child(root, 0)
        collection.insert_before(root.children[1])
        collection.insert_after(root.children[1])
        collection.delete(root.children[0])
        collection.add_document(parse_document("<x><y/></x>"))
        collection.compact()
        assert collection.last_seq == 6
        kinds = [record.op["op"] for record in scan_wal(collection.wal.path).records]
        assert kinds == [
            "insert_child",
            "insert_before",
            "insert_after",
            "delete",
            "add_document",
            "compact",
        ]

    def test_rejected_operations_log_nothing(self, collection):
        root = collection.documents[0]
        with pytest.raises(OrderingError):
            collection.insert_child(root, 99)
        with pytest.raises(OrderingError):
            collection.insert_before(root)
        with pytest.raises(OrderingError):
            collection.delete(root)
        with pytest.raises(QueryEvaluationError):
            collection.insert_child(parse_document("<zz/>"), 0)  # foreign node
        with pytest.raises(OrderingError):
            collection.add_document(root.children[0])  # attached root
        assert scan_wal(collection.wal.path).records == []
        assert collection.last_seq == 0

    def test_crash_between_log_and_apply_is_consistent(self, tmp_path):
        col = DurableCollection.create(
            tmp_path / "col",
            [parse_document(DOC)],
            faults=FaultPlan(script={"after@3": "crash"}),
        )
        col.insert_child(col.documents[0], 0)
        col.insert_child(col.documents[0], 1)
        with pytest.raises(InjectedCrash):
            col.insert_child(col.documents[0], 2)
        # the record hit the file (pre-fsync) but was never applied in
        # memory; recovery replays it — "applied" wins over "acknowledged"
        reopened = DurableCollection.open(tmp_path / "col")
        assert reopened.last_seq == 3
        reopened.close()

    def test_mutations_after_close_raise(self, tmp_path):
        col = DurableCollection.create(tmp_path / "col", [parse_document(DOC)])
        col.close()
        with pytest.raises(DurabilityError):
            col.insert_child(col.documents[0], 0)
        with pytest.raises(DurabilityError):
            col.checkpoint()

    def test_queries_pass_through(self, collection):
        assert collection.count("//a1") == 1
        collection.insert_child(collection.documents[0].children[0], 0, tag="a1")
        assert collection.count("//a1") == 2
        assert collection.check()


class TestCheckpointing:
    def test_checkpoint_retains_exactly_two_generations(self, collection):
        for round_number in range(4):
            collection.insert_child(collection.documents[0], 0)
            generation = collection.checkpoint()
            assert generation == round_number + 2
        assert list_generations(collection.directory) == [4, 5]

    def test_checkpoint_prunes_covered_wal_records(self, collection):
        for _ in range(6):
            collection.insert_child(collection.documents[0], 0)
        collection.checkpoint()  # gen 2 at seq 6; gen 1 (seq 0) still retained
        assert len(scan_wal(collection.wal.path).records) == 6
        for _ in range(4):
            collection.insert_child(collection.documents[0], 0)
        collection.checkpoint()  # gen 3 at seq 10; gen 1 dropped, prune <= 6
        remaining = scan_wal(collection.wal.path).records
        assert [record.seq for record in remaining] == [7, 8, 9, 10]

    def test_checkpoint_counters(self, tmp_path):
        with metrics.collecting() as registry:
            col = DurableCollection.create(tmp_path / "col", [parse_document(DOC)])
            col.insert_child(col.documents[0], 0)
            col.checkpoint()
            col.close()
            counters = registry.snapshot()["counters"]
        assert counters["durable.checkpoints"] == 1
        assert counters["snapshot.writes"] == 2  # create + checkpoint
        assert counters["wal.appends"] == 1

    def test_checkpoint_reads_no_whole_snapshot(self, collection):
        for _ in range(3):
            collection.insert_child(collection.documents[0], 0)
        collection.checkpoint()
        with metrics.collecting() as registry:
            collection.insert_child(collection.documents[0], 0)
            collection.checkpoint()  # prunes by gen 2's header: seq 3
            counters = registry.snapshot()["counters"]
        assert counters.get("snapshot.loads", 0) == 0
        assert [record.seq for record in scan_wal(collection.wal.path).records] == [4]

    def test_corrupt_oldest_generation_prunes_nothing(self, collection):
        for _ in range(6):
            collection.insert_child(collection.documents[0], 0)
        collection.checkpoint()  # gen 2 at seq 6; gen 1 (seq 0) still retained
        for _ in range(4):
            collection.insert_child(collection.documents[0], 0)
        oldest = snapshot_path(collection.directory, 2)  # retained after gen 3
        blob = bytearray(oldest.read_bytes())
        blob[len(blob) // 2] ^= 0x01  # one body byte: the CRC check fails
        oldest.write_bytes(bytes(blob))
        collection.checkpoint()
        remaining = scan_wal(collection.wal.path).records
        assert [record.seq for record in remaining] == list(range(1, 11))

    def test_context_manager_closes(self, tmp_path):
        with DurableCollection.create(
            tmp_path / "col", [parse_document(DOC)]
        ) as col:
            col.insert_child(col.documents[0], 0)
        with pytest.raises(DurabilityError):
            col.insert_child(col.documents[0], 0)


class TestDeepDocuments:
    def test_chain_past_the_recursion_limit_round_trips(self, tmp_path):
        depth = sys.getrecursionlimit() + 200
        xml = "<n>" * (depth - 1) + "<n/>" + "</n>" * (depth - 1)
        chain = parse_document(xml)
        assert serialize(chain) == xml
        twin = chain.copy()
        assert twin is not chain and twin.structurally_equal(chain)

        col = DurableCollection.create(
            tmp_path / "col", [parse_document(DOC)], fsync=FSYNC
        )
        col.add_document(chain)
        fingerprint = collection_fingerprint(col.live)
        col.close()
        reopened = DurableCollection.open(tmp_path / "col", fsync=FSYNC)
        assert collection_fingerprint(reopened.live) == fingerprint
        assert reopened.documents[1].structurally_equal(twin)
        reopened.close()

        *_, deepest = twin.iter_preorder()
        deepest.tag = "m"
        assert not twin.structurally_equal(chain)
