"""Exhaustive crash points: die at every fault-hook call, recover, compare.

The crash matrix in ``test_durable_recovery.py`` crashes only on WAL
record boundaries.  Here a :class:`FaultPlan` first counts every hook
call a small workload makes (appends, post-write, fsyncs and the
checkpoints' snapshot writes), then the workload is re-run once per call
with a scripted crash at exactly that call.  The durable-file calls the
plan does not see (:func:`~repro.durable.files.replace_durably` for each
snapshot and the pruning WAL rewrite, and
:func:`~repro.durable.files.truncate_durably`) are wrapped where the
durable layer looks them up, and the workload crashes before and after
each one.  Recovery must land on the state after ``j`` operations, where
``acked <= j <= acked + 1``: every acknowledged operation survives, and
at most the one in flight (its record written but not yet acknowledged)
may also appear.
"""

from pathlib import Path

import pytest

from repro.durable import (
    DurableCollection,
    FaultPlan,
    InjectedCrash,
    collection_fingerprint,
    files,
    snapshot,
    wal,
)
from repro.xmlkit.parser import parse_document

DOC = "<r><a><a1/><a2/></a><b/><c><d/></c></r>"
#: A snapshot generation is written after each of these operations; the
#: second checkpoint's prune rewrites the log (generation 1 is dropped).
CHECKPOINTS_AFTER = (2, 4)
#: Where the durable layer looks up each durable-file call.
FILE_CALLS = [
    (snapshot, "replace_durably"),
    (wal, "replace_durably"),
    (wal, "truncate_durably"),
]

OPERATIONS = [
    lambda c: c.insert_child(c.documents[0], 0, tag="p0"),
    lambda c: c.insert_child(c.documents[0].children[1], 0, tag="p1"),
    lambda c: c.insert_before(c.documents[0].children[2], tag="p2"),
    lambda c: c.insert_after(c.documents[0].children[0], tag="p3"),
    lambda c: c.delete(c.documents[0].children[1]),
    lambda c: c.bulk_insert([(c.documents[0], 0, "p5")] * 3),
]


def wrap_file_calls(monkeypatch, log, crash=None):
    """Append ``(function, file name)`` to ``log`` for every durable-file
    call; ``crash=(n, "before"|"after")`` dies around the n-th."""
    for module, name in FILE_CALLS:

        def wrapper(path, arg, name=name):
            log.append((name, Path(path).name))
            if crash == (len(log), "before"):
                raise InjectedCrash(f"crash before {name} call {len(log)}")
            getattr(files, name)(path, arg)
            if crash == (len(log), "after"):
                raise InjectedCrash(f"crash after {name} call {len(log)}")

        monkeypatch.setattr(module, name, wrapper)


def run(directory, plan=None, arm=lambda: None):
    """Run the workload under ``plan``; returns (fingerprints, crashed).

    ``fingerprints[k]`` is the state after ``k`` acknowledged operations.
    The plan is armed, and ``arm`` called, after bootstrap, as
    ``ResilientCollection`` arms its plan.
    """
    collection = DurableCollection.create(
        directory, [parse_document(DOC)], fsync="always"
    )
    collection.faults = collection.wal.faults = plan
    arm()
    fingerprints = [collection_fingerprint(collection.live)]
    try:
        for step, operation in enumerate(OPERATIONS, start=1):
            operation(collection)
            fingerprints.append(collection_fingerprint(collection.live))
            if step in CHECKPOINTS_AFTER:
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
    # one append/after/sync per operation, each checkpoint's sync and
    # snapshot, and the closing sync
    assert len(points) == 3 * len(OPERATIONS) + 2 * len(CHECKPOINTS_AFTER) + 1

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


def recovered_state(directory):
    recovered = DurableCollection.open(directory)
    state = collection_fingerprint(recovered.live)
    recovered.close()
    return state


def test_recovery_is_correct_around_every_durable_file_call(tmp_path):
    with pytest.MonkeyPatch.context() as monkeypatch:
        log = []
        reference, crashed = run(
            tmp_path / "clean",
            arm=lambda: wrap_file_calls(monkeypatch, log),
        )
    assert not crashed
    # Two snapshot replaces and the second checkpoint's WAL rewrite.
    assert log == [
        ("replace_durably", "snap-00000002.rpsn"),
        ("replace_durably", "snap-00000003.rpsn"),
        ("replace_durably", "wal.log"),
    ]

    for n in range(1, len(log) + 1):
        for when in ("before", "after"):
            directory = tmp_path / f"{when}-{n}"
            with pytest.MonkeyPatch.context() as monkeypatch:
                survived, crashed = run(
                    directory,
                    arm=lambda: wrap_file_calls(monkeypatch, [], (n, when)),
                )
            assert crashed, (n, when)
            acked = len(survived) - 1
            assert survived == reference[: acked + 1]
            state = recovered_state(directory)
            assert state in reference[acked : acked + 2], (n, when, acked)


@pytest.mark.parametrize("when", ["before", "after"])
def test_a_crash_in_the_torn_tail_truncate_keeps_the_acked_state(tmp_path, when):
    # Tear the fifth operation's record: the log ends in a partial record.
    survived, crashed = run(tmp_path, FaultPlan(script={"append@5": ("tear", 7)}))
    assert crashed
    acked = len(survived) - 1
    with pytest.MonkeyPatch.context() as monkeypatch:
        log = []
        wrap_file_calls(monkeypatch, log, (1, when))
        with pytest.raises(InjectedCrash):
            DurableCollection.open(tmp_path)
    assert log == [("truncate_durably", "wal.log")]
    assert recovered_state(tmp_path) == survived[acked]
