"""MVCC read views: isolation, audits, and the threaded soak.

The soak is the acceptance test for the concurrency story: N reader
threads run the paper's nine Table 2 queries against whatever view is
latest while a randomized mutation stream (singles and batches) runs on
the writer.  Every view a reader touches must be internally audit-clean,
and sampled views must be byte-identical to an independent replay of the
operation history up to the sequence number the view claims — a reader
may see *stale* state, never *wrong* state.
"""

import pytest

from repro.bench.response import PAPER_QUERIES
from repro.datasets.shakespeare import play
from repro.durable import DurableCollection, collection_fingerprint
from repro.durable.recovery import apply_operation
from repro.durable.wal import scan_wal
from repro.errors import QueryEvaluationError
from repro.query.live import LiveCollection
from repro.replica import ReaderPool
from repro.xmlkit.parser import parse_document

DOC = "<r><a><a1/><a2/></a><b/><c/></r>"


class TestReadViewBasics:
    def test_view_is_isolated_from_later_writes(self):
        live = LiveCollection([parse_document(DOC)])
        view = live.publish_view(applied_seq=0)
        before = view.count("//*")
        live.insert_child(live.documents[0], 0, tag="new")
        assert view.count("//*") == before
        assert live.count("//*") == before + 1

    def test_stale_view_rejects_rows_born_after_it(self):
        live = LiveCollection([parse_document(DOC)])
        view = live.publish_view()
        live.insert_child(live.documents[0], 0, tag="new")
        fresh = live.publish_view()
        new_row = next(r for r in fresh.engine.store.rows if r.tag == "new")
        with pytest.raises(QueryEvaluationError):
            view.engine.store.ops.order_key(new_row)

    def test_audit_flags_structural_damage(self):
        live = LiveCollection([parse_document(DOC)])
        view = live.publish_view()
        assert view.audit() == []
        view.engine.store.rows[2].parent_id = 10_000
        assert view.audit() != []

    @pytest.mark.parametrize("column", ["pre", "size"])
    def test_audit_checks_window_columns(self, column):
        live = LiveCollection([parse_document(DOC)])
        live.insert_child(live.documents[0], 0, tag="new")
        view = live.publish_view()
        assert view.audit() == []
        row = view.engine.store.rows[3]
        setattr(row, column, getattr(row, column) + 1)
        violations = view.audit()
        assert violations and f"row {row.element_id} has {column}" in violations[0]

    def test_versions_are_monotonic(self):
        live = LiveCollection([parse_document(DOC)])
        first = live.publish_view(applied_seq=1)
        second = live.publish_view(applied_seq=2)
        assert second.version == first.version + 1
        assert live.latest_view() is second

    def test_read_view_publishes_lazily_once(self):
        live = LiveCollection([parse_document(DOC)])
        assert live.latest_view() is None
        view = live.read_view()
        assert live.read_view() is view


class TestThreadedSoak:
    """N readers vs a randomized 500+-op mutation stream."""

    OPERATIONS = 500
    READERS = 4

    def test_soak_views_stay_clean_and_historically_exact(self, tmp_path):
        from random import Random

        primary = DurableCollection.create(
            tmp_path / "col",
            [play(seed=5, acts=3, node_budget=600)],
            fsync="never",
        )
        queries = [text for _, text in PAPER_QUERIES]
        seen_views = {}

        pool = ReaderPool(
            primary.live.latest_view,
            queries,
            threads=self.READERS,
            current_seq=lambda: primary.last_seq,
        ).start()

        rng = Random(99)
        root = primary.documents[0]
        step = 0
        while step < self.OPERATIONS:
            roll = rng.random()
            position = rng.randrange(max(1, len(root.children)))
            if roll < 0.10:
                count = rng.randint(2, 5)
                primary.bulk_insert([(root, position, "SPEECH")] * count)
            elif roll < 0.20 and len(root.children) > 4:
                victim = root.children[position]
                if victim.tag == "SPEECH":
                    primary.delete(victim)
                else:
                    primary.insert_child(root, position, tag="SPEECH")
            else:
                primary.insert_child(root, position, tag="SPEECH")
            # The writer publishes after every mutation; every 10th carries
            # a fingerprint (computed under the publish lock, so it names
            # exactly the state the view captured) for the history oracle.
            sample = step % 10 == 0
            view = primary.live.publish_view(
                applied_seq=primary.last_seq, fingerprint=sample
            )
            if sample:
                seen_views[view.applied_seq] = view
            step += 1

        report = pool.stop()
        assert report.errors == 0
        assert report.reads > 0

        # Every sampled view is internally audit-clean.
        for seq, view in sorted(seen_views.items()):
            assert view.audit() == [], f"view at seq {seq} failed its audit"

        # Byte-identity oracle: replay the WAL history into a twin and
        # fingerprint it at each sampled LSN.
        records = scan_wal(primary.directory / "wal.log").records
        # The twin must match the primary's config exactly: the fingerprint
        # covers group size and strategy, and create() pins strategy="scan".
        twin = LiveCollection([play(seed=5, acts=3, node_budget=600)], strategy="scan")
        applied = 0
        for record in records:
            apply_operation(twin, record.op)
            applied = record.seq
            if applied in seen_views:
                view = seen_views[applied]
                assert collection_fingerprint(twin) == view.fingerprint, (
                    f"view at seq {applied} diverged from its history"
                )
        assert applied == primary.last_seq
        # Staleness was actually measured (the whole point of follower
        # reads) and bounded by the stream length.
        assert report.staleness_samples
        assert report.max_staleness <= self.OPERATIONS
        primary.close()
