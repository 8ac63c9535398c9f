"""The four workloads: what each sets up, what one request does, what is checked.

Each workload drives one client thread in a closed loop (the next request
is sent when the previous one returns; the library API is synchronous).
Its inputs come from :mod:`perf.oplog`, generated from the seed before any
timing starts.  Every file goes under the run's work directory with
``fsync="always"``.

* ``table2-read`` -- the nine Table 2 queries under the ``auto`` planner,
  with no mutation layer.  Query-side changes show most here; write-side
  changes must show no change here.
* ``routed-write`` -- routed group-commit batches through two shard
  workers, each followed by one Table 2 query: router, pipe, worker, WAL
  and fsync, SC re-solve and window patch, with reads beside the writes.
* ``replica-follow`` -- a primary batch, one replica poll, one query on the
  replica's published view.  The only workload where MVCC publish weighs.
* ``cold-start`` -- crash recovery and replica catch-up of a prepared
  directory.  No shard and no query: the control for query and router
  changes.

Correctness is checked outside the timed requests.  Any mismatch lands in
``errors``, and a run with errors exits non-zero.
"""

from __future__ import annotations

import itertools
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.bench.response import PAPER_QUERIES, build_query_corpus
from repro.datasets.shakespeare import play
from repro.durable import DurableCollection, collection_fingerprint
from repro.durable.recovery import WAL_NAME, list_generations, shard_directory, snapshot_path
from repro.errors import DatasetError
from repro.query.live import LiveCollection
from repro.query.naive import NaiveEvaluator
from repro.replica import ReplicaCollection
from repro.shard import ShardedCollection
from repro.xmlkit.serialize import serialize
from repro.xmlkit.tree import XmlElement

from perf.oplog import OPS_PER_BATCH, op_stream, query_rounds

__all__ = ["Failed", "WORKLOADS", "Workload"]

#: The query each set-up runs once, so the engine is built before timing.
WARM_QUERY = PAPER_QUERIES[-1][1]


def sized_play(seed: int, acts: int, node_budget: int) -> XmlElement:
    """A synthetic play of exactly ``node_budget`` elements, made from ``seed``.

    ``play`` grows a play to its budget but cannot shrink one that came out
    larger, so such draws are skipped, in the same order for every run.
    """
    for attempt in itertools.count():
        try:
            return play(seed=seed * 1000 + attempt, acts=acts, node_budget=node_budget)
        except DatasetError:
            continue


class Failed(Exception):
    """A request the system answered, but not with a success.

    A degraded (incomplete) scatter-gather or a router ack other than
    ``applied`` counts as a failed request, like a raised ``ReproError``.
    """


class Workload:
    """One system, one seeded request stream, one set of checks."""

    name = ""
    #: Requests are counted in rounds of this many: a run stops only at a
    #: round boundary, so each of the nine queries runs equally often.
    round_size = 1
    #: Requests per second the pre-generated stream is sized for: a run of
    #: ``s`` seconds stops early only if the system gets this fast.
    max_rate = 100.0
    #: Ops the system applies per request, for per-op trace counts.
    ops_per_request = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.errors: List[str] = []
        self.capacity = 0
        self.oracle_s = 0.0
        #: Storage-size diagnostics: name -> (value, unit).
        self.storage: Dict[str, Tuple[float, str]] = {}

    def generate(self, requests: int) -> None:
        """Make the inputs for up to ``requests`` requests."""
        raise NotImplementedError

    def setup(self, directory: Path) -> float:
        """Build the system under ``directory``; returns set-up seconds."""
        raise NotImplementedError

    def before(self, index: int) -> None:
        """Untimed preparation of request ``index``."""

    def request(self, index: int) -> Dict[str, Any]:
        """Run request ``index``; returns its sub-timings and answers."""
        raise NotImplementedError

    def after(self, index: int) -> None:
        """Untimed per-request checks and cleanup."""

    def verify(self, done: int, samples: List[Dict[str, Any]]) -> None:
        """Check the system after ``done`` requests; record mismatches."""

    def close(self) -> None:
        """Stop the system and delete its files."""

    def wal_bytes(self) -> int:
        """Bytes in the system's write-ahead logs right now."""
        return 0

    def worker_pids(self) -> List[int]:
        """Processes the system runs besides this one."""
        return []


class Table2Read(Workload):
    """The nine Table 2 queries over a 60-document corpus, shuffled per round."""

    name = "table2-read"
    max_rate = 200.0
    plays = 12
    replicate = 5

    def generate(self, requests: int) -> None:
        self.corpus = build_query_corpus(plays=self.plays, replicate=self.replicate)
        self.rounds = query_rounds(self.seed, requests)
        started = time.perf_counter()
        # Queries never cross documents, and each play appears `replicate`
        # times, so the tree walk over the originals times `replicate` is
        # the count over the whole corpus.
        naive = NaiveEvaluator(self.corpus[:: self.replicate])
        self.expected = {
            name: naive.count(text) * self.replicate for name, text in PAPER_QUERIES
        }
        self.oracle_s = time.perf_counter() - started

    def setup(self, directory: Path) -> float:
        documents = [root.copy() for root in self.corpus]
        started = time.perf_counter()
        self.live = LiveCollection(documents, strategy="auto")
        self.live.count(WARM_QUERY)
        return time.perf_counter() - started

    def request(self, index: int) -> Dict[str, Any]:
        answers = []
        for name, text in self.rounds[index]:
            started = time.perf_counter()
            rows = self.live.query(text)
            answers.append((name, len(rows), time.perf_counter() - started))
        return {"queries": answers}

    def verify(self, done: int, samples: List[Dict[str, Any]]) -> None:
        for sample in samples:
            for name, count, _ in sample["queries"]:
                if count != self.expected[name]:
                    self.errors.append(f"{name}: {count} rows, oracle says {self.expected[name]}")

    def close(self) -> None:
        self.live = None


class _Streamed(Workload):
    """Shared input making for the workloads that write batches."""

    document_count = 1
    acts = 5
    node_budget = 1500
    oracle_every = 50
    ops_per_request = OPS_PER_BATCH

    def generate(self, requests: int) -> None:
        self.documents = [
            sized_play(self.seed * 100 + index, self.acts, self.node_budget)
            for index in range(self.document_count)
        ]
        self.stream = op_stream(self.documents, self.seed, requests)

    def oracle(self, done: int, samples: List[Dict[str, Any]]) -> List[str]:
        """Check sampled query counts; return the shadow after ``done`` requests.

        Regenerates the executed prefix of the stream, this time with the
        tree walk's count for every ``oracle_every``-th query.
        """
        started = time.perf_counter()
        prefix = op_stream(self.documents, self.seed, done, oracle_every=self.oracle_every)
        for sample in samples:
            expected = prefix.requests[sample["index"]].expected
            name, count, _ = sample["queries"][0]
            if expected is not None and count != expected:
                self.errors.append(
                    f"request {sample['index']} {name}: {count} rows, oracle says {expected}"
                )
        documents = prefix.shadow.serialized()
        self.oracle_s = time.perf_counter() - started
        return documents


class RoutedWrite(_Streamed):
    """Routed 8-op batches over two shard workers, each then one query."""

    name = "routed-write"
    round_size = 9
    max_rate = 100.0
    document_count = 8
    shards = 2

    def setup(self, directory: Path) -> float:
        documents = [root.copy() for root in self.documents]
        started = time.perf_counter()
        self.service = ShardedCollection.create(
            directory, documents, shards=self.shards, fsync="always", strategy="auto"
        )
        self.service.query(WARM_QUERY)
        elapsed = time.perf_counter() - started
        self.directory = directory
        return elapsed

    def request(self, index: int) -> Dict[str, Any]:
        request = self.stream.requests[index]
        started = time.perf_counter()
        acks = self.service.apply_batch(request.entries)
        written = time.perf_counter()
        result = self.service.query(request.query[1])
        answered = time.perf_counter()
        if any(ack.get("status") != "applied" for ack in acks.values()):
            raise Failed(f"router acks {acks}")
        if not result.complete:
            raise Failed(f"missing shards {sorted(result.missing_shards)}")
        return {
            "write": written - started,
            "queries": [(request.query[0], len(result.rows), answered - written)],
        }

    def verify(self, done: int, samples: List[Dict[str, Any]]) -> None:
        for doc, xml in enumerate(self.oracle(done, samples)):
            if self.service.serialize_document(doc) != xml:
                self.errors.append(f"document {doc} differs from the shadow")
        audit = self.service.audit()
        if sorted(audit) != list(range(self.shards)) or any(audit.values()):
            self.errors.append(f"shard audit: {audit}")

    def wal_bytes(self) -> int:
        return sum(
            (shard_directory(self.directory, shard) / WAL_NAME).stat().st_size
            for shard in range(self.shards)
        )

    def worker_pids(self) -> List[int]:
        return [health.pid for health in self.service.status() if health.pid is not None]

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.directory, ignore_errors=True)


class ReplicaFollow(_Streamed):
    """Primary batch, one replica poll, one query on the replica's view."""

    name = "replica-follow"
    round_size = 9
    max_rate = 40.0
    node_budget = 6000
    oracle_every = 25

    def setup(self, directory: Path) -> float:
        documents = [root.copy() for root in self.documents]
        started = time.perf_counter()
        self.primary = DurableCollection.create(
            directory, documents, fsync="always", strategy="auto"
        )
        self.replica = ReplicaCollection(directory)
        self.replica.read_view().count(WARM_QUERY)
        elapsed = time.perf_counter() - started
        self.directory = directory
        return elapsed

    def request(self, index: int) -> Dict[str, Any]:
        request = self.stream.requests[index]
        started = time.perf_counter()
        self.primary.apply_batch_addressed(request.entries)
        written = time.perf_counter()
        applied = self.replica.poll()
        visible = time.perf_counter()
        count = self.replica.read_view().count(request.query[1])
        answered = time.perf_counter()
        if applied != 1:
            raise Failed(f"one poll applied {applied} records, expected the batch")
        return {
            "write": written - started,
            "visible": visible - written,
            "queries": [(request.query[0], count, answered - visible)],
        }

    def verify(self, done: int, samples: List[Dict[str, Any]]) -> None:
        if [serialize(root) for root in self.primary.documents] != self.oracle(done, samples):
            self.errors.append("primary differs from the shadow")
        if self.replica.applied_seq != self.primary.last_seq:
            self.errors.append(
                f"replica at seq {self.replica.applied_seq}, primary at {self.primary.last_seq}"
            )
        if collection_fingerprint(self.replica.live) != collection_fingerprint(self.primary.live):
            self.errors.append("replica fingerprint differs from the primary's")
        violations = self.replica.read_view().audit()
        if violations:
            self.errors.append(f"replica view audit: {violations[:3]}")

    def wal_bytes(self) -> int:
        return (self.directory / WAL_NAME).stat().st_size

    def close(self) -> None:
        self.replica.close()
        self.primary.close()
        shutil.rmtree(self.directory, ignore_errors=True)


class ColdStart(_Streamed):
    """Recovery and replica catch-up of a directory a crash left behind."""

    name = "cold-start"
    max_rate = 20.0
    node_budget = 3000
    batches = 40

    @property
    def ops_per_request(self) -> int:
        # Both the reopened primary and the replica replay the batches
        # logged after the checkpoint.
        return 2 * (self.batches - self.batches // 2) * OPS_PER_BATCH

    def generate(self, requests: int) -> None:
        super().generate(self.batches)
        self.expected_xml = self.stream.shadow.serialized()

    def setup(self, directory: Path) -> float:
        documents = [root.copy() for root in self.documents]
        primary_dir, self.image = directory / "primary", directory / "image"
        started = time.perf_counter()
        primary = DurableCollection.create(
            primary_dir, documents, fsync="always", strategy="auto"
        )
        for index, request in enumerate(self.stream.requests):
            primary.apply_batch_addressed(request.entries)
            if index + 1 == self.batches // 2:
                primary.checkpoint()
        # The crash: copy the directory without close().  Every ack was
        # already fsynced, so the copy holds every acknowledged batch.
        shutil.copytree(primary_dir, self.image)
        elapsed = time.perf_counter() - started
        self.directory = directory
        self.fingerprint = collection_fingerprint(primary.live)
        self.last_seq = primary.last_seq
        nodes = sum(1 for _ in primary.documents[0].iter_preorder())
        primary.close()
        newest = snapshot_path(self.image, list_generations(self.image)[-1])
        self.storage = {
            "wal_bytes_per_op": (
                (self.image / WAL_NAME).stat().st_size / (self.batches * OPS_PER_BATCH),
                "B",
            ),
            "snapshot_bytes_per_node": (newest.stat().st_size / nodes, "B"),
        }
        return elapsed

    def before(self, index: int) -> None:
        self._recovered = self._replica = None
        self._copies = [self.directory / f"run-{index}-{role}" for role in ("open", "replica")]
        for copy in self._copies:
            shutil.copytree(self.image, copy)

    def request(self, index: int) -> Dict[str, Any]:
        started = time.perf_counter()
        self._recovered = DurableCollection.open(self._copies[0], fsync="always", verify=True)
        recovered = time.perf_counter()
        self._replica = ReplicaCollection(self._copies[1])
        self._replica.catch_up()
        caught_up = time.perf_counter()
        return {"recovery": recovered - started, "catchup": caught_up - recovered}

    def after(self, index: int) -> None:
        recovered = []
        if self._recovered is not None:
            recovered.append(("recovery", self._recovered, self._recovered.last_seq))
        if self._replica is not None:
            recovered.append(("catch-up", self._replica, self._replica.applied_seq))
        for name, collection, seq in recovered:
            if seq != self.last_seq:
                self.errors.append(f"{name} ends at seq {seq}, acked {self.last_seq}")
            if collection_fingerprint(collection.live) != self.fingerprint:
                self.errors.append(f"{name} fingerprint differs from the pre-crash state")
            if [serialize(root) for root in collection.live.documents] != self.expected_xml:
                self.errors.append(f"{name} documents differ from the shadow")
            collection.close()
        for copy in self._copies:
            shutil.rmtree(copy, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (Table2Read, RoutedWrite, ReplicaFollow, ColdStart)
}
