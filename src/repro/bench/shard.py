"""Sharding exhibit: throughput, tail latency, and availability under fire.

Not a paper figure — the paper's scheme is single-process — but the
claim that motivates :mod:`repro.shard` is measurable: per-document
prime-label state makes document sharding coordination-free, so routed
mutation throughput should hold (or improve) as worker processes are
added, while scatter-gather keeps query tail latency bounded.  The
second half measures what sharding actually buys in robustness: during
a kill-and-recover window (one worker SIGKILLed, the supervisor
restarting it through recovery) the service should keep answering —
*degraded*, with the missing shard named — rather than failing.

Each row is an independent run at one shard count:

* routed single-op mutation throughput (ops/sec through the router,
  WAL fsync ``always`` — a serving system's ack discipline),
* query p99 over repeated scatter-gathers on the healthy fleet,
* the availability split over the kill-and-recover window: complete,
  degraded (partial answer, missing shards reported), and failed
  (raised) query fractions,
* whether the fleet settled (all UP, buffers drained) and converged
  byte-identical to an unsharded twin with every shard audit clean —
  a throughput number for a wrong answer is not a data point.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Sequence

from repro.bench.harness import ResultTable
from repro.errors import ReproError

__all__ = ["shard_table"]

#: Worker-fleet sizes reported by the exhibit.
SHARD_COUNTS = (1, 2, 4, 8)

#: A small mixed-shape document set; every run shards the same eight.
DOCUMENTS = [
    "<r><a><b/></a><c/></r>",
    "<r><x/><y><z/></y></r>",
    "<r><m/><n/></r>",
    "<r><p><q/></p></r>",
    "<r><u/><v><w/></v></r>",
    "<r><g><h/><i/></g></r>",
    "<r><j/><k><l/></k></r>",
    "<r><s><t/></s><e/></r>",
]


def shard_table(
    shard_counts: Sequence[int] = SHARD_COUNTS,
    operations: int = 120,
    query_reps: int = 25,
    window_budget: float = 0.25,
    seed: int = 8,
) -> ResultTable:
    """Measure routed throughput, query p99, and kill-window availability.

    Each row spawns a fresh worker fleet over the same eight documents,
    drives ``operations`` routed insertions, times ``query_reps``
    scatter-gathers, then SIGKILLs one worker and queries continuously
    (budget ``window_budget`` each) until the supervisor has restarted
    it and the redo journal has drained.
    """
    # Lazy imports, matching the other systems exhibits' init-order care.
    from repro.durable.recovery import apply_operation, op_record
    from repro.query.live import LiveCollection
    from repro.resilient.policy import RetryPolicy
    from repro.shard import HealthPolicy, ShardedCollection
    from repro.xmlkit.parser import parse_document
    from repro.xmlkit.serialize import serialize

    policy = HealthPolicy(
        heartbeat_interval=60.0,
        restart_budget=5,
        restart=RetryPolicy(
            max_attempts=4, base_delay=0.2, max_delay=0.4, jitter=0.0, seed=0
        ),
    )

    def run(shards: int) -> dict:
        twin = LiveCollection([parse_document(xml) for xml in DOCUMENTS])
        workdir = Path(tempfile.mkdtemp(prefix="repro-shard-bench-"))
        try:
            with ShardedCollection.create(
                workdir / "col",
                [parse_document(xml) for xml in DOCUMENTS],
                shards=shards,
                policy=policy,
                mutation_policy="buffer",
            ) as service:
                started = time.perf_counter()
                for step in range(operations):
                    doc, tag = step % len(DOCUMENTS), f"n{step}"
                    service.insert_child(doc, 0, 0, tag)
                    apply_operation(twin, op_record("insert_child", doc, 0, 0, tag))
                mutate_elapsed = time.perf_counter() - started

                latencies = []
                for _ in range(query_reps):
                    before = time.perf_counter()
                    result = service.query("//n3")
                    latencies.append(time.perf_counter() - before)
                    assert result.complete
                latencies.sort()
                p99 = latencies[min(len(latencies) - 1,
                                    int(0.99 * len(latencies)))]

                # The kill-and-recover window: query continuously while
                # the supervisor brings the victim back.
                service.kill_worker(seed % shards)
                complete = degraded = failed = 0
                while True:
                    try:
                        result = service.query("//n3", budget=window_budget)
                    except ReproError:
                        # The failed fraction is the measurement; every
                        # typed error counts the same and the loop keeps
                        # sampling until the fleet settles.
                        failed += 1
                    else:
                        if result.complete:
                            complete += 1
                        else:
                            degraded += 1
                    if service.settle(timeout=0.05):
                        break

                identical = [
                    service.serialize_document(doc)
                    for doc in range(service.doc_count)
                ] == [serialize(document) for document in twin.documents]
                audit_ok = all(v == [] for v in service.audit().values())
                return {
                    "ops_per_sec": operations / mutate_elapsed,
                    "p99_ms": p99 * 1000.0,
                    "complete": complete,
                    "degraded": degraded,
                    "failed": failed,
                    "settled": True,
                    "identical": identical,
                    "audit_ok": audit_ok,
                }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    table = ResultTable(
        title=(
            f"Sharded serving: {operations} routed insertions + "
            f"{query_reps} scatter-gathers vs shard count, then a "
            "kill-and-recover availability window"
        ),
        columns=[
            "shards", "ops/sec", "query p99 ms", "window queries",
            "degraded", "failed", "identical", "audit",
        ],
        note=(
            "window queries = scatter-gathers issued between SIGKILL and "
            "settled recovery; degraded = answered partially with the "
            "missing shard set named; failed = raised; 'identical' "
            "compares every document's bytes against an unsharded twin."
        ),
    )
    for shards in shard_counts:
        outcome = run(shards)
        window = outcome["complete"] + outcome["degraded"] + outcome["failed"]
        table.add_row(
            shards,
            round(outcome["ops_per_sec"], 1),
            round(outcome["p99_ms"], 2),
            window,
            outcome["degraded"],
            outcome["failed"],
            "yes" if outcome["identical"] else "NO",
            "clean" if outcome["audit_ok"] else "VIOLATED",
        )
    return table
