"""Satellite 3: sharding is an implementation detail, bytes prove it.

A 300-operation randomized workload routed through the sharded service
must leave every document byte-identical to an unsharded twin that
applied the same operations — on 1, 2, and 4 shards — with every
shard's invariant audit clean.  Then the kill-mid-batch test: a worker
crashing on the batch's group-commit append must lose the *whole*
batch (per-shard batch atomicity), and the supervisor's restart replay
must converge back to the twin's exact bytes.
"""

import random

import pytest

from repro.durable.recovery import apply_operation
from repro.query.live import LiveCollection
from repro.resilient.policy import RetryPolicy
from repro.shard import HealthPolicy, ShardedCollection
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serialize import serialize

SEED_DOCS = [
    "<r><a><b/></a><c/></r>",
    "<r><x/><y><z/></y></r>",
    "<r><m/><n/></r>",
    "<r><p><q/></p></r>",
    "<r><u/><v><w/></v></r>",
    "<r><g><h/><i/></g></r>",
]
OPS = 300
#: The WAL-record key naming each node op's target (an entry's ``pos``).
TARGET_KEY = {"insert_child": "parent", "insert_before": "ref",
              "insert_after": "ref", "delete": "node"}


def preorder_nodes(root):
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children))
    return out


def generate_workload(seed, twin, count):
    """``count`` random valid ops, applied to ``twin`` as generated.

    Each op's addresses are derived from the twin's state at that
    moment — exactly the state the sharded service will be in when the
    recorded op replays against it.
    """
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        doc = rng.randrange(len(twin.documents))
        nodes = preorder_nodes(twin.documents[doc])
        kinds = ["insert_child"] * 5
        if len(nodes) > 1:
            kinds += ["insert_before", "insert_after"] * 2
        if len(nodes) > 2:
            kinds += ["delete"] * 2
        if rng.random() < 0.01:
            kinds = ["add_document"]
        kind = rng.choice(kinds)
        tag = f"t{rng.randrange(1000)}"
        if kind == "insert_child":
            parent = rng.randrange(len(nodes))
            index = rng.randint(0, len(nodes[parent].children))
            op = {"op": kind, "doc": doc, "parent": parent,
                  "index": index, "tag": tag}
        elif kind in ("insert_before", "insert_after"):
            op = {"op": kind, "doc": doc,
                  "ref": rng.randrange(1, len(nodes)), "tag": tag}
        elif kind == "delete":
            op = {"op": kind, "doc": doc, "node": rng.randrange(1, len(nodes))}
        else:
            op = {"op": "add_document", "xml": f"<r><{tag}/></r>"}
        apply_operation(twin, op)
        ops.append(op)
    return ops


def route(service, op):
    """Send one WAL-form op through the facade; a node op is a one-entry batch."""
    kind = op["op"]
    if kind == "add_document":
        return service.add_document(op["xml"])
    entry = {"kind": kind, "doc": op["doc"], "pos": op[TARGET_KEY[kind]]}
    entry.update((key, op[key]) for key in ("index", "tag") if key in op)
    (ack,) = service.apply_batch([entry]).values()
    return ack


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_service_is_byte_identical_to_unsharded_twin(tmp_path, shards):
    twin = LiveCollection([parse_document(xml) for xml in SEED_DOCS])
    ops = generate_workload(seed=2004, twin=twin, count=OPS)
    expected = [serialize(document) for document in twin.documents]
    assert twin.read_view().audit() == []

    with ShardedCollection.create(
        tmp_path / "store",
        [parse_document(xml) for xml in SEED_DOCS],
        shards=shards,
    ) as service:
        for op in ops:
            ack = route(service, op)
            assert ack["status"] == "applied", (op, ack)
        assert service.doc_count == len(expected)
        actual = [
            service.serialize_document(doc) for doc in range(service.doc_count)
        ]
        assert actual == expected
        assert all(v == [] for v in service.audit().values())
        # The scatter-gather read path sees the same element population.
        counted = service.count("//*")
        assert counted["missing_shards"] == set()
        assert counted["count"] == sum(
            len(preorder_nodes(document)) for document in twin.documents
        )


def test_killed_worker_mid_batch_loses_whole_batch_then_replays(tmp_path):
    documents = [parse_document(xml) for xml in SEED_DOCS[:4]]
    twin = LiveCollection([parse_document(xml) for xml in SEED_DOCS[:4]])
    policy = HealthPolicy(
        heartbeat_interval=60.0,
        restart_budget=3,
        restart=RetryPolicy(
            max_attempts=4, base_delay=0.02, max_delay=0.05, jitter=0.0, seed=0
        ),
    )
    with ShardedCollection.create(
        tmp_path / "store",
        documents,
        shards=2,
        policy=policy,
        fault_spec="crash=append@3",
    ) as service:
        target = 1  # every op targets one document, hence one shard
        shard_id, _ = service.doc_map.to_local(target)

        for tag in ("s1", "s2"):  # two singles: appends 1 and 2 succeed
            acks = service.apply_batch(
                [{"kind": "insert_child", "doc": target, "pos": 0, "index": 0,
                  "tag": tag}]
            )
            assert acks[shard_id]["status"] == "applied"
            apply_operation(
                twin, {"op": "insert_child", "doc": target, "parent": 0,
                       "index": 0, "tag": tag}
            )

        # The batch's group commit is append 3: the fault plan kills the
        # worker before the record reaches the log, so the ack never
        # comes and the whole batch must be absent from recovered state.
        entries = [
            {"kind": "insert_child", "doc": target, "pos": 0, "index": 0,
             "tag": f"b{i}"}
            for i in range(3)
        ]
        acks = service.apply_batch(entries)
        assert acks[shard_id]["status"] == "pending"

        assert service.settle(timeout=15.0)
        # Per-shard batch atomicity, proven by the recovery watermark:
        # the worker came back at seq 2 (both singles, no batch), so the
        # router's reconciliation requeued the batch rather than
        # dropping it as already-applied.
        assert (shard_id, 2) in service.router.restart_log

        with twin.batch_scope():
            for i in range(3):
                apply_operation(
                    twin, {"op": "insert_child", "doc": target, "parent": 0,
                           "index": 0, "tag": f"b{i}"}
                )
        assert service.serialize_document(target) == serialize(
            twin.documents[target]
        )
        assert all(v == [] for v in service.audit().values())
        assert service.supervisor.health(shard_id).restarts == 1
