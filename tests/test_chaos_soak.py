"""The chaos soak: 500 randomized operations under transient-fault fire.

The resilience subsystem's acceptance test (and the PR's): a long
randomized workload runs with seeded probabilistic faults injected at
*every* WAL/snapshot boundary — pre-write, post-write (the ambiguous
write), fsync, and snapshot I/O — with retries absorbing all of them.  At
the end:

* the live state is byte-identical to a fault-free twin of the same
  workload (retries created no duplicates and lost no acknowledged
  writes),
* recovery from the surviving directory is byte-identical too and the
  deep invariant audit is clean,
* and the run provably *was* under fire (injected fault count > 0).

Everything is seeded — chaos RNG, workload RNG, retry jitter — and the
backoff sleeps are stubbed, so the soak is deterministic and fast.
"""

import random

import pytest

from repro.durable import DurableCollection, collection_fingerprint, recover
from repro.obs.audit import audit_ordered_document
from repro.resilient import (
    BreakerPolicy,
    FaultPlan,
    ResilientCollection,
    RetryPolicy,
)
from repro.xmlkit.parser import parse_document

DOC = "<root><a/><b><c/><d/></b></root>"
OPERATIONS = 500
#: Per-site fault probability.  With ~3 injection opportunities per
#: logged mutation and a 12-attempt budget, the odds of any operation
#: exhausting its retries are below 1e-9 — and the seed pins them to
#: "never" for this exact run.
RATE = 0.04


def run_workload(collection, seed, operations=OPERATIONS):
    """Drive a deterministic randomized mutation mix."""
    rng = random.Random(seed)
    root = collection.documents[0]
    for step in range(operations):
        nodes = list(root.iter_preorder())
        target = rng.choice(nodes)
        roll = rng.random()
        if roll < 0.55:
            collection.insert_child(
                target, rng.randint(0, len(target.children)), tag=f"n{step}"
            )
        elif roll < 0.70 and target is not root:
            collection.insert_before(target, tag=f"n{step}")
        elif roll < 0.85 and target is not root:
            collection.insert_after(target, tag=f"n{step}")
        elif roll < 0.95 and target is not root:
            collection.delete(target)
        else:
            collection.checkpoint()


def build(tmp_path, name, chaos):
    return ResilientCollection(
        DurableCollection.create(tmp_path / name, [parse_document(DOC)]),
        faults=chaos,
        retry=RetryPolicy(max_attempts=12, base_delay=0.0, max_delay=0.0,
                          seed=5),
        breaker=BreakerPolicy(failure_threshold=11),
        sleep=lambda _s: None,
    )


@pytest.mark.parametrize("chaos_seed", [3, 11])
def test_soak_is_byte_identical_and_audit_clean(tmp_path, chaos_seed):
    chaos = FaultPlan(rate=RATE, seed=chaos_seed, sleep=lambda _s: None)
    soaked = build(tmp_path, f"soaked{chaos_seed}", chaos)
    twin = build(tmp_path, f"twin{chaos_seed}", chaos=None)
    run_workload(soaked, seed=1234)
    run_workload(twin, seed=1234)

    # The run was actually under fire, and every fault was absorbed.
    assert chaos.total_injected > 0
    assert soaked.retries >= chaos.total_injected > 0
    assert not soaked.degraded
    assert soaked.breaker.times_opened == 0

    # Zero lost acknowledged writes, zero duplicates: live states agree
    # byte-for-byte.
    live_fp = collection_fingerprint(soaked.live)
    assert live_fp == collection_fingerprint(twin.live)

    # The on-disk state recovers to the same bytes, audit-clean.
    soaked.close()
    recovered = recover(tmp_path / f"soaked{chaos_seed}", verify=True)
    assert recovered.info.audit_checks > 0
    assert collection_fingerprint(recovered.collection) == live_fp

    # Belt and braces: the deep invariant audit on the recovered documents.
    for document in recovered.collection.ordered_documents:
        report = audit_ordered_document(document)
        assert report.ok, report.summary()


def test_soak_with_stalls_meets_no_deadline_by_default(tmp_path):
    # Slow-write pressure: stalls fire but with no deadline configured the
    # operations simply take longer (the stubbed sleep records the naps).
    naps = []
    chaos = FaultPlan(rate=0.0, slow_rate=0.2, slow_seconds=0.01,
                      seed=17, sleep=naps.append)
    collection = build(tmp_path, "stalled", chaos)
    run_workload(collection, seed=99, operations=60)
    collection.close()
    assert chaos.stalls == len(naps) > 0
    assert collection.retries == 0  # stalls are latency, not failures


def test_soak_survives_checkpoint_faults(tmp_path):
    # Snapshot-site faults hit checkpoint() (and create()'s successor
    # checkpoints); the retry loop owns those too.
    chaos = FaultPlan(rate=0.25, seed=7,
                      sites=frozenset({"snapshot"}),
                      sleep=lambda _s: None)
    collection = build(tmp_path, "ckpt", chaos)
    for i in range(10):
        collection.insert_child(collection.documents[0], 0, tag=f"t{i}")
        collection.checkpoint()
    collection.close()
    assert chaos.injected["snapshot"] > 0
    recovered = recover(tmp_path / "ckpt", verify=True)
    assert collection_fingerprint(recovered.collection) == (
        collection_fingerprint(collection.live)
    )
