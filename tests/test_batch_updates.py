"""Batched update pipeline: equivalence, atomicity, and the satellite fixes.

The batch path's contract is *byte-identity*: ``apply_batch`` coalesces
WAL appends and CRT solves but must produce exactly the state — trees,
labels, SC groups, accumulated cost, even the paper's per-op cost
counters — that applying the same ops one at a time would.  These tests
enforce the contract three ways:

* a randomized property test drives twin collections (one sequential,
  one batched) through the same mixed insert/delete scripts and
  fingerprints them after every round,
* an overflow-stress run asserts the *metrics* agree too (residue
  overflows, records touched, shift span, prime registrations), because
  coalescing that merely reached the same end state by a cheaper
  accounting would falsify Figure 18,
* crash and fault injection verify the durable layer's all-or-nothing
  half: a batch that dies mid-commit recovers to the pre-batch state,
  and a failed batch rolls back so the addressed retry applies exactly
  once.
"""

import os
import random

import pytest

from repro.durable import (
    DurableCollection,
    FaultPlan,
    InjectedCrash,
    collection_fingerprint,
    recover,
)
from repro.errors import CapacityError, QueryEvaluationError
from repro.obs import metrics
from repro.obs.audit import audit_ordered_document
from repro.order.document import OrderedDocument
from repro.query import BatchOp, LiveCollection
from repro.resilient import (
    BreakerPolicy,
    ResilientCollection,
    RetryPolicy,
)
from repro.xmlkit.parser import parse_document

DOC = "<root><a><a1/><a2/></a><b/><c><d/><e/></c></root>"
#: The CI batch-soak matrix exports REPRO_WAL_FSYNC; locally default to
#: the strictest policy so the group-commit fsync path is exercised.
FSYNC = os.environ.get("REPRO_WAL_FSYNC", "always")


# ----------------------------------------------------------------------
# Script generation: ops addressed by pre-batch preorder position, so the
# same logical batch can be resolved against two independent twins.
# ----------------------------------------------------------------------


def random_batch_script(rng, root, size, step):
    """A mixed insert/delete script as (kind, preorder pos, index, tag).

    Delete targets are leaves (never ancestors of another op's target) and
    are excluded — along with their parents — from insert targets, so the
    batch is valid regardless of the order its ops interleave.
    """
    nodes = list(root.iter_preorder())
    position_of = {id(node): pos for pos, node in enumerate(nodes)}
    leaves = [node for node in nodes if not node.children and node is not root]
    doomed = rng.sample(leaves, min(len(leaves) // 3, max(1, size // 4))) if leaves else []
    excluded = {id(node) for node in doomed}
    excluded.update(id(node.parent) for node in doomed if node.parent is not None)
    safe = [node for node in nodes if id(node) not in excluded]

    script = []
    for i in range(max(0, size - len(doomed))):
        target = rng.choice(safe)
        roll = rng.random()
        if roll < 0.6 or target is root:
            script.append(
                ("insert_child", position_of[id(target)],
                 rng.randint(0, len(target.children)), f"n{step}x{i}")
            )
        elif roll < 0.8:
            script.append(("insert_before", position_of[id(target)], None, f"n{step}x{i}"))
        else:
            script.append(("insert_after", position_of[id(target)], None, f"n{step}x{i}"))
    script.extend(("delete", position_of[id(node)], None, "") for node in doomed)
    rng.shuffle(script)
    return script


def resolve_script(script, root):
    """Materialize a script into BatchOps against ``root``'s current tree."""
    nodes = list(root.iter_preorder())
    ops = []
    for kind, position, index, tag in script:
        node = nodes[position]
        if kind == "insert_child":
            ops.append(BatchOp.insert_child(node, index, tag=tag))
        elif kind == "insert_before":
            ops.append(BatchOp.insert_before(node, tag=tag))
        elif kind == "insert_after":
            ops.append(BatchOp.insert_after(node, tag=tag))
        else:
            ops.append(BatchOp.delete(node))
    return ops


def apply_one_by_one(collection, ops):
    for op in ops:
        if op.kind == "insert_child":
            collection.insert_child(op.node, op.index, tag=op.tag)
        elif op.kind == "insert_before":
            collection.insert_before(op.node, tag=op.tag)
        elif op.kind == "insert_after":
            collection.insert_after(op.node, tag=op.tag)
        else:
            collection.delete(op.node)


def sc_groups(collection):
    """Every document's SC groups as plain data: (self_label, order) lists."""
    return [
        ordered.sc_table.groups() for ordered in collection.ordered_documents
    ]


def store_rows(collection):
    """The queryable store's rows as comparable tuples."""
    return [
        (row.doc_id, row.element_id, row.tag, row.label, row.depth, row.parent_id)
        for row in collection.query("/root//*")
    ]


def assert_audit_clean(collection):
    for ordered in collection.ordered_documents:
        report = audit_ordered_document(ordered)
        assert report.ok, report.summary()


# ----------------------------------------------------------------------
# Tentpole property: batched == sequential, byte for byte
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 5])
def test_apply_batch_matches_one_by_one(seed):
    """Randomized batches are byte-identical to one-by-one application."""
    sequential = LiveCollection([parse_document(DOC)])
    batched = LiveCollection([parse_document(DOC)])
    rng = random.Random(seed)
    for step in range(6):
        script = random_batch_script(
            rng, sequential.documents[0], size=rng.randint(4, 12), step=step
        )
        apply_one_by_one(sequential, resolve_script(script, sequential.documents[0]))
        batched.apply_batch(resolve_script(script, batched.documents[0]))
        assert collection_fingerprint(batched) == collection_fingerprint(sequential)
    assert sc_groups(batched) == sc_groups(sequential)
    assert store_rows(batched) == store_rows(sequential)
    assert batched.total_update_cost == sequential.total_update_cost
    assert batched.check() and sequential.check()
    assert_audit_clean(batched)
    assert_audit_clean(sequential)


def test_batch_cost_accounting_matches_sequential_under_overflow():
    """Front insertions force residue overflows; every paper cost counter
    must agree between the batched and sequential runs — batching may only
    change *when* CRT solves happen, never what the cost model charges."""
    counters = (
        "sc.residue_overflows",
        "sc.records_touched",
        "sc.shift_span",
        "sc.registered",
        "sc.records_opened",
        "order.overflow_relabels",
    )

    def front_inserts(apply):
        collection = LiveCollection([parse_document("<root><a/><b/><c/></root>")])
        with metrics.collecting() as registry:
            apply(collection)
        return collection, {name: registry.counter_value(name) for name in counters}

    def sequentially(collection):
        root = collection.documents[0]
        for i in range(120):
            collection.insert_child(root, 1, tag=f"s{i}")

    def batched(collection):
        for chunk in range(12):
            root = collection.documents[0]
            collection.apply_batch(
                [BatchOp.insert_child(root, 1, tag=f"s{chunk * 10 + i}")
                 for i in range(10)]
            )

    seq_collection, seq_counts = front_inserts(sequentially)
    bat_collection, bat_counts = front_inserts(batched)
    assert seq_counts["sc.residue_overflows"] > 0  # the stress actually bit
    assert bat_counts == seq_counts
    assert bat_collection.total_update_cost == seq_collection.total_update_cost
    assert collection_fingerprint(bat_collection) == collection_fingerprint(
        seq_collection
    )
    assert_audit_clean(bat_collection)


def test_batch_report_totals_and_cost_charging():
    collection = LiveCollection([parse_document(DOC)])
    root = collection.documents[0]
    before = collection.total_update_cost
    report = collection.apply_batch(
        [BatchOp.insert_child(root, 0, tag="x"),
         BatchOp.insert_after(root.children[0], tag="y"),
         BatchOp.delete(root.children[-1])]
    )
    assert len(report) == 3
    assert report.total_cost == sum(r.total_cost for r in report.reports)
    assert report.node_relabels == sum(r.node_relabels for r in report.reports)
    assert report.sc_records_updated == sum(
        r.sc_records_updated for r in report.reports
    )
    assert collection.total_update_cost == before + report.total_cost


def test_empty_batch_is_a_noop():
    collection = LiveCollection([parse_document(DOC)])
    fingerprint = collection_fingerprint(collection)
    report = collection.apply_batch([])
    assert len(report) == 0 and report.total_cost == 0
    assert collection_fingerprint(collection) == fingerprint


def test_batch_op_validation():
    collection = LiveCollection([parse_document(DOC)])
    root = collection.documents[0]
    with pytest.raises(QueryEvaluationError):
        BatchOp("replace", root)  # unknown kind
    with pytest.raises(QueryEvaluationError):
        BatchOp("insert_child", root)  # insert_child needs an index


# ----------------------------------------------------------------------
# Durable layer: group commit, crash atomicity, rollback + retry
# ----------------------------------------------------------------------


def test_group_commit_is_one_wal_record(tmp_path):
    collection = DurableCollection.create(
        tmp_path / "col", [parse_document(DOC)], fsync=FSYNC
    )
    seq_before = collection.wal.next_seq
    report = collection.bulk_insert(
        [(collection.documents[0], 0, f"t{i}") for i in range(8)]
    )
    assert len(report) == 8
    assert collection.wal.next_seq == seq_before + 1  # 8 ops, one record
    live_fp = collection_fingerprint(collection.live)
    collection.close()
    recovered = recover(tmp_path / "col", verify=True)
    assert collection_fingerprint(recovered.collection) == live_fp


def test_batched_replay_matches_sequential_twin(tmp_path):
    """A recovered batch-written store equals a sequentially written one."""
    batched = DurableCollection.create(
        tmp_path / "batched", [parse_document(DOC)], fsync=FSYNC
    )
    sequential = DurableCollection.create(
        tmp_path / "sequential", [parse_document(DOC)], fsync=FSYNC
    )
    rng = random.Random(7)
    for step in range(4):
        script = random_batch_script(
            rng, batched.documents[0], size=rng.randint(3, 9), step=step
        )
        batched.apply_batch(resolve_script(script, batched.documents[0]))
        apply_one_by_one(
            sequential.live, resolve_script(script, sequential.documents[0])
        )
    live_fp = collection_fingerprint(batched.live)
    assert live_fp == collection_fingerprint(sequential.live)
    batched.close()
    recovered = recover(tmp_path / "batched", verify=True)
    assert collection_fingerprint(recovered.collection) == live_fp
    for document in recovered.collection.ordered_documents:
        assert audit_ordered_document(document).ok


def test_mid_batch_crash_recovers_pre_batch_state(tmp_path):
    """A crash during the group commit loses the *whole* batch: recovery
    lands on the last pre-batch durable state, never a half-applied one."""
    collection = DurableCollection.create(
        tmp_path / "col",
        [parse_document(DOC)],
        fsync=FSYNC,
        faults=FaultPlan(script={"append@4": "crash"}),
    )
    root = collection.documents[0]
    for i in range(3):  # three durable setup ops (appends #1-#3)
        collection.insert_child(root, 0, tag=f"pre{i}")
    pre_batch = collection_fingerprint(collection.live)
    with pytest.raises(InjectedCrash):
        collection.bulk_insert([(collection.documents[0], 0, "doomed")] * 5)
    recovered = recover(tmp_path / "col", verify=True)
    assert collection_fingerprint(recovered.collection) == pre_batch
    for document in recovered.collection.ordered_documents:
        assert audit_ordered_document(document).ok


def test_torn_batch_record_is_truncated_to_pre_batch_state(tmp_path):
    """A batch record torn mid-write (power cut) must be discarded whole —
    recovery must not replay a prefix of the batch."""
    collection = DurableCollection.create(
        tmp_path / "col",
        [parse_document(DOC)],
        fsync=FSYNC,
        faults=FaultPlan(script={"append@3": ("tear", 24)}),
    )
    root = collection.documents[0]
    collection.insert_child(root, 0, tag="pre0")
    collection.insert_child(root, 0, tag="pre1")
    pre_batch = collection_fingerprint(collection.live)
    with pytest.raises(InjectedCrash):
        collection.bulk_insert([(collection.documents[0], 0, "doomed")] * 6)
    recovered = recover(tmp_path / "col", verify=True)
    assert collection_fingerprint(recovered.collection) == pre_batch


def test_failed_batch_rolls_back_and_addressed_retry_applies_once(tmp_path):
    """A mid-batch failure rolls memory back to the durable state; the
    addressed form of the same batch then retries cleanly (exactly once)."""
    collection = DurableCollection.create(
        tmp_path / "col", [parse_document(DOC)], fsync=FSYNC
    )
    collection.insert_child(collection.documents[0], 0, tag="pre")
    pre_batch = collection_fingerprint(collection.live)

    root = collection.documents[0]
    ops = [BatchOp.insert_child(root, 0, tag=f"b{i}") for i in range(4)]
    encoded = collection.encode_batch(ops)
    rollbacks_before = metrics.registry().counter_value("durable.batch_rollbacks")

    boom = {"armed": True}
    original = LiveCollection._apply_one

    def flaky_apply(self, doc, op, position=0):
        if boom["armed"] and op.tag == "b2":  # fail after a real prefix
            boom["armed"] = False
            raise OSError("injected mid-batch failure")
        return original(self, doc, op, position)

    LiveCollection._apply_one = flaky_apply
    try:
        with pytest.raises(OSError):
            collection.apply_batch_addressed(encoded)
    finally:
        LiveCollection._apply_one = original

    # Rolled back: memory matches the pre-batch durable state again.
    assert collection_fingerprint(collection.live) == pre_batch
    if metrics.enabled():
        assert (
            metrics.registry().counter_value("durable.batch_rollbacks")
            == rollbacks_before + 1
        )

    # The addressed batch retries against the rolled-back state.
    report = collection.apply_batch_addressed(encoded)
    assert len(report) == 4
    expected = DurableCollection.create(
        tmp_path / "twin", [parse_document(DOC)], fsync=FSYNC
    )
    expected.insert_child(expected.documents[0], 0, tag="pre")
    apply_one_by_one(
        expected.live,
        [BatchOp.insert_child(expected.documents[0], 0, tag=f"b{i}") for i in range(4)],
    )
    assert collection_fingerprint(collection.live) == collection_fingerprint(
        expected.live
    )
    collection.close()
    expected.close()


# ----------------------------------------------------------------------
# Resilient layer: batched chaos soak
# ----------------------------------------------------------------------


def _resilient(tmp_path, name, chaos):
    return ResilientCollection(
        DurableCollection.create(tmp_path / name, [parse_document(DOC)], fsync=FSYNC),
        faults=chaos,
        retry=RetryPolicy(max_attempts=12, base_delay=0.0, max_delay=0.0, seed=5),
        breaker=BreakerPolicy(failure_threshold=11),
        sleep=lambda _s: None,
    )


def _run_batched_workload(collection, seed, rounds=18):
    rng = random.Random(seed)
    for step in range(rounds):
        # Re-fetch the root every round: a rolled-back batch attempt
        # replaces the in-memory trees, so node references go stale.
        root = collection.documents[0]
        script = random_batch_script(rng, root, size=rng.randint(3, 8), step=step)
        collection.apply_batch(resolve_script(script, root))
        if step % 6 == 5:
            collection.checkpoint()


@pytest.mark.parametrize("chaos_seed", [3, 11])
def test_batched_chaos_soak_is_byte_identical(tmp_path, chaos_seed):
    """The chaos soak, batched: transient faults at every WAL/snapshot
    site, each failed batch rolled back and retried as a unit."""
    chaos = FaultPlan(rate=0.04, seed=chaos_seed, sleep=lambda _s: None)
    soaked = _resilient(tmp_path, f"soaked{chaos_seed}", chaos)
    twin = _resilient(tmp_path, f"twin{chaos_seed}", chaos=None)
    _run_batched_workload(soaked, seed=1234)
    _run_batched_workload(twin, seed=1234)

    assert chaos.total_injected > 0
    assert not soaked.degraded
    live_fp = collection_fingerprint(soaked.live)
    assert live_fp == collection_fingerprint(twin.live)

    soaked.close()
    recovered = recover(tmp_path / f"soaked{chaos_seed}", verify=True)
    assert collection_fingerprint(recovered.collection) == live_fp
    for document in recovered.collection.ordered_documents:
        report = audit_ordered_document(document)
        assert report.ok, report.summary()


# ----------------------------------------------------------------------
# Satellites: from_ordered validation, delete context, compact audit
# ----------------------------------------------------------------------


def test_from_ordered_rejects_mismatched_group_size():
    matching = OrderedDocument(parse_document(DOC), group_size=5)
    divergent = OrderedDocument(parse_document("<p><q/></p>"), group_size=3)
    with pytest.raises(QueryEvaluationError) as excinfo:
        LiveCollection.from_ordered([matching, divergent], group_size=5)
    # The error names the offending document and both policies.
    message = str(excinfo.value)
    assert "document 1" in message
    assert "3" in message and "5" in message


def test_delete_capacity_error_carries_document_index(monkeypatch):
    collection = LiveCollection(
        [parse_document(DOC), parse_document("<p><q/><r/></p>")]
    )
    monkeypatch.setattr(
        OrderedDocument,
        "delete",
        lambda self, node: (_ for _ in ()).throw(CapacityError("group full")),
    )
    victim = collection.documents[1].children[0]
    with pytest.raises(CapacityError) as excinfo:
        collection.delete(victim)
    assert excinfo.value.document == 1


def test_delete_charges_what_its_report_says():
    collection = LiveCollection([parse_document(DOC)])
    before = collection.total_update_cost
    report = collection.delete(collection.documents[0].children[0])
    assert collection.total_update_cost == before + report.total_cost


def test_compact_returns_per_document_record_counts():
    collection = LiveCollection(
        [parse_document(DOC), parse_document("<p><q/><r/><s/></p>")]
    )
    counts = collection.compact()
    assert len(counts) == 2
    assert counts == [
        len(ordered.sc_table.records) for ordered in collection.ordered_documents
    ]
    assert collection.check()
    assert_audit_clean(collection)


# ----------------------------------------------------------------------
# One harness for the named methods, across every collection layer
# ----------------------------------------------------------------------


def run_named_methods(collection, seed, steps=40):
    """A seeded mix of the six named mutations, chosen by preorder position
    against ``collection``'s own tree, so independent twins stay in step."""
    rng = random.Random(seed)
    for step in range(steps):
        root = collection.documents[0]
        nodes = list(root.iter_preorder())
        target = nodes[rng.randrange(len(nodes))]
        roll = rng.random()
        if roll < 0.3:
            collection.insert_child(
                target, rng.randint(0, len(target.children)), tag=f"c{step}"
            )
        elif roll < 0.45 and target is not root:
            collection.insert_before(target, tag=f"b{step}")
        elif roll < 0.6 and target is not root:
            collection.insert_after(target, tag=f"a{step}")
        elif roll < 0.75 and target is not root:
            collection.delete(target)
        elif roll < 0.9:
            collection.bulk_insert([(target, 0, f"p{step}"), (root, 0, f"q{step}")])
        else:
            leaves = [node for node in nodes[1:] if not node.children]
            collection.bulk_delete(leaves[: rng.randint(1, 2)])


@pytest.mark.parametrize("seed", [1, 7, 29])
def test_named_methods_agree_across_layers(tmp_path, seed):
    live = LiveCollection([parse_document(DOC)], strategy="scan")
    durable = DurableCollection.create(
        tmp_path / "durable", [parse_document(DOC)], fsync=FSYNC
    )
    resilient = _resilient(tmp_path, "resilient", chaos=None)
    for collection in (live, durable, resilient):
        run_named_methods(collection, seed)
    assert not resilient.degraded
    expected = collection_fingerprint(live)
    assert collection_fingerprint(durable.live) == expected
    assert collection_fingerprint(resilient.live) == expected
    durable.close()
    resilient.close()
    recovered = recover(tmp_path / "durable", verify=True)
    assert collection_fingerprint(recovered.collection) == expected
