"""Resilience exhibit: serving under increasing transient-fault pressure.

Not a paper figure — the paper's dynamics end in memory — but the natural
follow-up to the durability exhibit: once the store retries, breaks, and
degrades instead of crashing, *what does fault pressure cost, and is the
result still exactly right?*  The exhibit runs an identical randomized
update workload through a
:class:`~repro.resilient.collection.ResilientCollection` at several chaos
rates, reporting per rate:

* operations acknowledged,
* transient faults injected vs. retries spent,
* breaker trips and operations served degraded (zero until the rate is
  high enough to exhaust a retry budget),
* whether post-workload recovery is byte-identical to a fault-free twin
  of the same workload (``NO`` is a resilience bug, not a data point).

Backoff sleeps are stubbed and advance a simulated clock that the
breaker cool-down and the retry deadline read, so every row is a count
that depends on its seed alone, never on host speed.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro.bench.durability import run_workload
from repro.bench.harness import ResultTable

__all__ = ["resilience_table"]

_RATES = (0.0, 0.02, 0.05, 0.10, 0.40)


def resilience_table(
    node_budget: int = 400, operations: int = 100, seed: int = 11
) -> ResultTable:
    """Measure retry/breaker behaviour across transient-fault rates."""
    # Lazy imports for the same init-order reason as the durability
    # exhibit: repro.durable reaches back into repro.obs.audit.
    from repro.datasets.shakespeare import play
    from repro.durable import DurableCollection, collection_fingerprint
    from repro.resilient import (
        BreakerPolicy,
        FaultPlan,
        ResilientCollection,
        RetryPolicy,
    )

    table = ResultTable(
        title=f"Resilience under transient faults ({operations} updates on "
        f"a {node_budget}-node play per chaos rate)",
        columns=[
            "fault rate",
            "ops",
            "injected",
            "retries",
            "trips",
            "degraded ops",
            "identical",
        ],
        note="'identical' compares recovery after the faulty run to a "
        "fault-free twin of the same workload.",
    )
    twin_fingerprint = None
    for rate in _RATES:
        workdir = Path(tempfile.mkdtemp(prefix="repro-resilience-"))
        try:
            now = [0.0]

            def sleep(seconds: float) -> None:
                now[0] += seconds

            chaos = FaultPlan(rate=rate, seed=seed, sleep=sleep)
            collection = ResilientCollection(
                DurableCollection.create(
                    workdir / "col",
                    [play(seed=seed, acts=1, node_budget=node_budget)],
                ),
                faults=chaos,
                retry=RetryPolicy(max_attempts=10, seed=seed),
                breaker=BreakerPolicy(failure_threshold=8),
                clock=lambda: now[0],
                sleep=sleep,
            )
            run_workload(collection, seed=seed, operations=operations)
            fingerprint = collection_fingerprint(collection.live)
            if rate == 0.0:
                twin_fingerprint = fingerprint
            identical = fingerprint == twin_fingerprint
            table.add_row(
                f"{rate:.2f}",
                operations,
                chaos.total_injected,
                collection.retries,
                collection.breaker.times_opened,
                collection.buffered_total,
                "yes" if identical else "NO",
            )
            collection.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return table
