"""Golden identity: a seeded durable run reproduces recorded bytes exactly.

The constants below were recorded from an SC table that rewrote every
shifted residue in place.  How the table represents a shift in memory
must change no durable byte and no cost counter.  The run is a sized
play under 30 group-committed batches of mixed inserts and deletes, with
front inserts that push small primes' residues into overflow.  It checks
the collection fingerprint and the ``sc.*`` cost counters after every
batch, and the SHA-256 of the snapshot and WAL files a checkpoint leaves
behind.
"""

import hashlib
import random

from repro.datasets.shakespeare import play
from repro.durable.collection import DurableCollection
from repro.durable.recovery import WAL_NAME, snapshot_path
from repro.durable.snapshot import collection_fingerprint
from repro.obs import metrics
from repro.query.live import BatchOp

BATCHES = 30
OPS_PER_BATCH = 8
SC_COUNTERS = ("sc.records_touched", "sc.shift_span", "sc.residue_overflows")


def seeded_batch(root, rng):
    """Eight ops built against the pre-batch tree that cannot collide."""
    nodes = list(root.iter_preorder())
    parents = [node for node in nodes if node.children]
    leaves = [node for node in nodes[1:] if not node.children]
    used = set()
    ops = []
    while len(ops) < OPS_PER_BATCH:
        roll = rng.random()
        if roll < 0.2:
            ops.append(BatchOp.insert_child(root, 0, tag="front"))
            continue
        if roll < 0.4:
            parent = rng.choice(parents)
            ops.append(BatchOp.insert_child(parent, 0, tag="first"))
            used.add(id(parent))
            continue
        target = rng.choice(leaves if roll >= 0.8 else nodes[1:])
        if id(target) in used:
            continue
        used.add(id(target))
        if roll < 0.6:
            ops.append(BatchOp.insert_before(target, tag="before"))
        elif roll < 0.8:
            ops.append(BatchOp.insert_after(target, tag="after"))
        else:
            ops.append(BatchOp.delete(target))
    return ops


def golden_run(directory):
    """Per batch, the fingerprint and the ``sc.*`` counter deltas; then the
    checkpoint's file hashes."""
    rng = random.Random(7)
    document = play(seed=7, acts=3, node_budget=1500)
    collection = DurableCollection.create(directory, [document], fsync="never")
    fingerprints, counters = [], []
    with metrics.collecting() as registry:
        for _ in range(BATCHES):
            before = [registry.counter_value(name) for name in SC_COUNTERS]
            collection.apply_batch(seeded_batch(collection.documents[0], rng))
            fingerprints.append(collection_fingerprint(collection.live))
            counters.append(
                tuple(
                    registry.counter_value(name) - start
                    for name, start in zip(SC_COUNTERS, before)
                )
            )
    generation = collection.checkpoint()
    collection.close()
    snapshot = snapshot_path(directory, generation)
    files = {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in (("snapshot", snapshot), ("wal", directory / WAL_NAME))
    }
    return fingerprints, counters, files


GOLDEN_FINGERPRINTS = [
    "1a4bd186975532a3d7c5085bafad9d6222f7b4ec26ce5f69f01c1de2412f436f",
    "783af60477b2fbdf7643846c37c952a0f6a932f39cb6bebce45469edf5bf4937",
    "10f5646986fd99f22f50adf5a1078cd1a6d8b067235190387c1c49f449e31d0d",
    "d7ec2c206fc47ee296b6730b708f09014ac11be73d0b9aadad49f9ba15bcacf5",
    "64d9b5ae47a496e9322c8e36fc648c63a851293c149a549129497697d522717b",
    "d5342f20dc6918f3c265aec31618c65875205d962d82ea669cf7a50c2a9493e8",
    "9aa2f747fd5731fbddc606e7ff9e6abb413bdc3930bb422c0cb0f79f68b13ba5",
    "909854cbc150aff9c45616c8b49bd77abefa4ed6c95c3b4a8d2a20b6a6961b5a",
    "b342a8ed35138274571c06c28e590d076d4c03cb6664074ce86db05ee3d7e326",
    "1b037549c4f8c9a4b8ade354e44b446bc00cf772d1fa67b3c62b3e5056222f11",
    "1f86d8bb888959185a1f8abbc643dda41fd538a38694ffef5e87ca0239e9e82f",
    "a0453e25699d7e084f5c961337379f56b86d7b690869e8cda624d0ef5dec0d0a",
    "e36fba0d5f41384dd16ce2aa7e53d313b8fbe3cc122fe9fe3a7044d1f9533cfe",
    "98b36950a676d10492fe0c744ed212e3ddfd3a0a54de2534dfc3674b39f47abf",
    "e8b0d02f691d5e0ecd9303611ca5196966e02e935008fbec2d9124f23652081e",
    "9af231dd0777836825776513b164bc324310e05591a6729c2969b29db1f395ad",
    "5045f85c221d08639a3ffed1f1fc30dfdc2bece81eb664fd8d42c5b9ea19b48e",
    "103e87a881e64bca75e80416a72ae49ac9f114cc6254ba773315257943fcd6e6",
    "45bb9f2fd1c89e08d527f6344e4f2f2561faaa134c5d98b371bec270d2cb063b",
    "485dcae067734acc8666946e66b93bdbf37b43836218fcae31729b9c29f1a74c",
    "92f100024fd2c14b0fdf3e4735c0bf8f8058419185860133c311f8d79e9f78a6",
    "b1f8fa89ce594f2056941023a868303ab5d2a6a45c7ea4e564a1f4be9ae2d7d2",
    "93bd64cd5a7d2871730bd327c5a41c08b5bb5ea4bf9520c5e9f022bbec063436",
    "e70642e0bf9f7168585b5ae5e1a1612ac2a36df07242a6c52654536ec14aaede",
    "b425eaa83ac3347a3632821cb841dbecf955bd3fe3ad8245d1a4a2d2f3d43c6e",
    "b9eb574750582a5b31254096279180dc1d15fff0e5ae24366958763dbd6c87ee",
    "af0de0a63718ac93de4a85ff81cb3202628b72bcacd0f6e2e80e57f99ed67216",
    "df5a86aebe35423266e6a8bc3c1696e2c7dbded5141b827ff6ccfd732bd6a0b6",
    "19a9c8c39585f2c5ae4a5b276ad578cc8bb9b2bdef0f14b69f06fa7563367cf3",
    "35c888d5ac7c60e69f81b601366cec046c4794927960737a61973355bd0e0427",
]

GOLDEN_COUNTERS = [
    (1646, 8135, 2),
    (1342, 6626, 1),
    (1326, 6478, 1),
    (1322, 6410, 0),
    (1453, 7098, 0),
    (924, 4473, 1),
    (1313, 6348, 1),
    (1032, 5014, 0),
    (1248, 6016, 1),
    (1529, 7413, 1),
    (2071, 10059, 1),
    (1581, 7565, 2),
    (1409, 6785, 0),
    (1104, 5204, 0),
    (1381, 6614, 1),
    (1507, 7233, 2),
    (1421, 6769, 1),
    (1346, 6424, 0),
    (840, 3877, 0),
    (1362, 6415, 1),
    (1799, 8382, 1),
    (1776, 8419, 1),
    (1168, 5226, 0),
    (1421, 6659, 1),
    (1914, 8876, 2),
    (1660, 7591, 0),
    (1202, 5443, 0),
    (1753, 8293, 1),
    (1183, 5424, 1),
    (1630, 7406, 0),
]

GOLDEN_FILES = {
    "snapshot": "03e9fec73e843a36def3d4b92152a024402baa7c13c5d6841d1c5af4084398b6",
    "wal": "1914be1bd224d4f5eed523d5c6c2a3e36ece143406ab4882f284404cac9c37e3",
}


def test_durable_run_matches_recorded_bytes(tmp_path):
    fingerprints, counters, files = golden_run(tmp_path / "collection")
    assert len(set(fingerprints)) == BATCHES
    assert sum(overflows for _, _, overflows in counters) > 0
    assert fingerprints == GOLDEN_FINGERPRINTS
    assert counters == GOLDEN_COUNTERS
    assert files == GOLDEN_FILES
