"""Throughput exhibit: sequential vs batched order-sensitive updates.

Not a paper figure — the paper measures per-update *relabeling cost*
(Figure 18), not sustained update throughput — but the natural systems
question once the store is durable: what does the batched update pipeline
(:meth:`repro.durable.collection.DurableCollection.apply_batch`) buy over
one-at-a-time mutations?

The workload is Figure 18's order-sensitive insertion, pinned at its
hardest point: new ``ACT`` elements inserted in front of the first ACT of
a Hamlet-sized play, so *every* insertion shifts the order of essentially
every node behind it and touches nearly every SC record.  Both paths run
through a :class:`~repro.durable.collection.DurableCollection` with
``fsync="always"``; the batched path amortizes

* the WAL append + fsync (one group-commit record per batch),

while the sequential path pays it per operation.  The order shifts cost
the same on both paths: a shift moves each SC record wholly past its
threshold in O(1) through the record's residue offset and rewrites only
the records that straddle it or could overflow.  Per row the table
reports ops/sec, the speedup over the sequential baseline, whether the
end state is byte-identical to the sequential run's
(:func:`~repro.durable.snapshot.collection_fingerprint`), and whether the
deep invariant audit is clean — a throughput number for a wrong answer is
not a data point.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.bench.harness import ResultTable

__all__ = ["throughput_table"]

#: Group-commit sizes reported by the exhibit (1 shows the fixed per-batch
#: overhead; 64 is the acceptance point; 256 the amortization plateau).
BATCH_SIZES = (1, 8, 64, 256)


def throughput_table(
    operations: int = 256,
    batch_sizes: Sequence[int] = BATCH_SIZES,
    node_budget: Optional[int] = None,
    seed: int = 11,
    group_size: int = 5,
) -> ResultTable:
    """Measure sequential vs batched ops/sec on the Figure 18 workload.

    ``node_budget=None`` runs against the full Hamlet-sized play the paper
    uses for Figure 18; a smaller budget substitutes a synthetic play of
    that size for quick smoke runs.  Every batched run replays the exact
    operation sequence of the sequential baseline and is fingerprinted
    against it.
    """
    # Lazy imports: repro.durable reaches back into repro.obs.audit, the
    # same init-order concern as the durability/resilience exhibits.
    from repro.datasets.shakespeare import hamlet, play
    from repro.durable import DurableCollection, collection_fingerprint
    from repro.obs.audit import audit_ordered_document

    def build_document():
        if node_budget is None:
            return hamlet()
        return play(seed=seed, acts=5, node_budget=node_budget)

    def act_position(collection) -> int:
        root = collection.documents[0]
        for node in root.children:
            if node.tag == "ACT":
                return node.child_index
        raise ValueError("play has no ACT children")

    def run(batch: Optional[int]):
        """One full run; returns (elapsed_s, fingerprint, audit_ok)."""
        workdir = Path(tempfile.mkdtemp(prefix="repro-throughput-"))
        try:
            collection = DurableCollection.create(
                workdir / "col",
                [build_document()],
                group_size=group_size,
                fsync="always",
            )
            position = act_position(collection)
            started = time.perf_counter()
            if batch is None:
                root = collection.documents[0]
                for _ in range(operations):
                    collection.insert_child(root, position, tag="ACT")
            else:
                done = 0
                while done < operations:
                    chunk = min(batch, operations - done)
                    collection.bulk_insert(
                        [(collection.documents[0], position, "ACT")] * chunk
                    )
                    done += chunk
            elapsed = time.perf_counter() - started
            fingerprint = collection_fingerprint(collection.live)
            audit_ok = all(
                audit_ordered_document(document).ok
                for document in collection.live.ordered_documents
            )
            collection.close()
            return elapsed, fingerprint, audit_ok
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    document_nodes = sum(1 for _ in build_document().iter_preorder())
    table = ResultTable(
        title=(
            f"Update throughput: {operations} front-ACT insertions into a "
            f"{document_nodes}-node play (WAL fsync=always)"
        ),
        columns=["mode", "ops", "time ms", "ops/sec", "speedup", "identical", "audit"],
        note=(
            "Figure 18's order-sensitive workload at maximal shift span; "
            "'identical' fingerprints each batched end state against the "
            "sequential run's."
        ),
    )
    seq_elapsed, seq_fingerprint, seq_audit = run(None)
    table.add_row(
        "sequential",
        operations,
        round(seq_elapsed * 1000.0, 1),
        round(operations / seq_elapsed, 1),
        "1.00x",
        "yes",
        "clean" if seq_audit else "VIOLATED",
    )
    for batch in batch_sizes:
        elapsed, fingerprint, audit_ok = run(batch)
        table.add_row(
            f"batched({batch})",
            operations,
            round(elapsed * 1000.0, 1),
            round(operations / elapsed, 1),
            f"{seq_elapsed / elapsed:.2f}x",
            "yes" if fingerprint == seq_fingerprint else "NO",
            "clean" if audit_ok else "VIOLATED",
        )
    return table
