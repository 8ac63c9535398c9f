"""Exhaustive crash points: die at every fault-hook call, recover, compare.

The crash matrix in ``test_durable_recovery.py`` crashes only on WAL
record boundaries.  Here a :class:`FaultPlan` first counts every hook
call a small workload makes (appends, post-write, fsyncs and the
checkpoint's snapshot write), then the workload is re-run once per call
with a scripted crash at exactly that call.  Recovery must land on the
state after ``j`` operations, where ``acked <= j <= acked + 1``: every
acknowledged operation survives, and at most the one in flight (its
record written but not yet acknowledged) may also appear.
"""

from repro.durable import (
    DurableCollection,
    FaultPlan,
    InjectedCrash,
    collection_fingerprint,
)
from repro.xmlkit.parser import parse_document

DOC = "<r><a><a1/><a2/></a><b/><c><d/></c></r>"
#: The snapshot generation is written after this many operations.
CHECKPOINT_AFTER = 3

OPERATIONS = [
    lambda c: c.insert_child(c.documents[0], 0, tag="p0"),
    lambda c: c.insert_child(c.documents[0].children[1], 0, tag="p1"),
    lambda c: c.insert_before(c.documents[0].children[2], tag="p2"),
    lambda c: c.insert_after(c.documents[0].children[0], tag="p3"),
    lambda c: c.delete(c.documents[0].children[1]),
    lambda c: c.bulk_insert([(c.documents[0], 0, "p5")] * 3),
]


def run(directory, plan):
    """Run the workload under ``plan``; returns (fingerprints, crashed).

    ``fingerprints[k]`` is the state after ``k`` acknowledged operations.
    The plan is armed after bootstrap, as ``ResilientCollection`` arms it.
    """
    collection = DurableCollection.create(
        directory, [parse_document(DOC)], fsync="always"
    )
    collection.faults = collection.wal.faults = plan
    fingerprints = [collection_fingerprint(collection.live)]
    try:
        for step, operation in enumerate(OPERATIONS, start=1):
            operation(collection)
            fingerprints.append(collection_fingerprint(collection.live))
            if step == CHECKPOINT_AFTER:
                collection.checkpoint()
        collection.close()
    except InjectedCrash:
        return fingerprints, True
    return fingerprints, False


def test_recovery_is_correct_at_every_hook_call(tmp_path):
    counter = FaultPlan()
    reference, crashed = run(tmp_path / "clean", counter)
    assert not crashed and len(reference) == len(OPERATIONS) + 1
    points = [
        (site, n)
        for site, calls in sorted(counter.calls.items())
        for n in range(1, calls + 1)
    ]
    # one append/after/sync per operation, the checkpoint's sync and
    # snapshot, and the closing sync
    assert len(points) == 3 * len(OPERATIONS) + 3

    outcomes = {}
    for site, n in points:
        directory = tmp_path / f"{site}-{n}"
        plan = FaultPlan(script={f"{site}@{n}": "crash"})
        survived, crashed = run(directory, plan)
        assert crashed, (site, n)
        acked = len(survived) - 1
        assert survived == reference[: acked + 1]
        recovered = DurableCollection.open(directory)
        state = collection_fingerprint(recovered.live)
        recovered.close()
        assert state in reference[acked : acked + 2], (site, n, acked)
        outcomes[site, n] = reference.index(state) - acked

    # The enumeration reaches both sides of the ambiguous window: a crash
    # before the write loses the in-flight op, one after it keeps it.
    assert set(outcomes.values()) == {0, 1}
