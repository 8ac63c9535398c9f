"""Unit tests for the SC table (Section 4)."""

import random
from math import gcd

import pytest

from repro.durable.snapshot import DocumentState, SnapshotState, restore_collection
from repro.errors import CapacityError, OrderingError, SnapshotCorruptError
from repro.obs import metrics
from repro.obs.audit import audit_ordered_document
from repro.order.document import OrderedDocument
from repro.order.sc_table import _NO_SLACK, SCTable
from repro.xmlkit.builder import element


class TestRegistration:
    def test_single_record_orders(self):
        table = SCTable(group_size=None)
        for prime, order in [(2, 1), (3, 2), (5, 3), (7, 4), (11, 5), (13, 6)]:
            table.register(prime, order)
        assert len(table) == 1
        assert table.records[0].sc == 29243  # the paper's Figure 9 value

    def test_group_size_splits_records(self):
        table = SCTable(group_size=2)
        for prime, order in [(2, 1), (3, 2), (5, 3), (7, 4), (11, 5)]:
            table.register(prime, order)
        assert len(table) == 3
        assert [len(record) for record in table.records] == [2, 2, 1]

    def test_max_prime_tracked(self):
        table = SCTable(group_size=3)
        for prime, order in [(2, 1), (3, 2), (5, 3), (7, 4)]:
            table.register(prime, order)
        assert [record.max_prime for record in table.records] == [5, 7]

    def test_order_lookup(self):
        table = SCTable(group_size=2)
        table.register(5, 1)
        table.register(7, 2)
        table.register(11, 3)
        assert table.order_of(5) == 1
        assert table.order_of(7) == 2
        assert table.order_of(11) == 3

    def test_duplicate_rejected(self):
        table = SCTable()
        table.register(5, 1)
        with pytest.raises(OrderingError):
            table.register(5, 2)

    def test_self_label_below_two_rejected(self):
        with pytest.raises(OrderingError):
            SCTable().register(1, 0)

    def test_negative_order_rejected(self):
        with pytest.raises(OrderingError):
            SCTable().register(5, -1)

    def test_unknown_lookup_raises(self):
        with pytest.raises(OrderingError):
            SCTable().order_of(5)

    def test_bad_group_size_rejected(self):
        with pytest.raises(ValueError):
            SCTable(group_size=0)

    def test_register_returns_one_record_touched(self):
        assert SCTable().register(5, 1) == 1


class TestShift:
    def make_table(self, group_size=2):
        table = SCTable(group_size=group_size)
        for prime, order in [(2, 1), (3, 2), (5, 3), (7, 4), (11, 5), (13, 6)]:
            table.register(prime, order)
        return table

    def test_shift_bumps_orders_at_or_after_threshold(self):
        table = self.make_table()
        table.shift_orders_from(3)
        assert table.orders() == {2: 1, 3: 2, 5: 4, 7: 5, 11: 6, 13: 7}

    def test_shift_returns_touched_record_count(self):
        table = self.make_table(group_size=2)
        # records: (2,3), (5,7), (11,13); threshold 3 touches the last two +
        # nothing in the first (orders 1,2 < 3)
        touched, overflowed = table.shift_orders_from(3)
        assert touched == 2
        assert overflowed == []

    def test_shift_everything_reports_overflows(self):
        table = self.make_table(group_size=2)
        # order 1 of modulus 2 would become 2 >= 2: an overflow the caller
        # must repair; order 2 of modulus 3 likewise becomes 3 >= 3.
        touched, overflowed = table.shift_orders_from(0)
        assert sorted(overflowed) == [(2, 2), (3, 3)]
        # All three records were rewritten: the last two in place, and the
        # first through the overflow-driven unregisters (its CRT value is
        # recomputed by system.remove, so it costs a record update too).
        assert touched == 3
        assert 2 not in table.orders() and 3 not in table.orders()

    def test_shift_nothing(self):
        table = self.make_table()
        touched, overflowed = table.shift_orders_from(100)
        assert (touched, overflowed) == (0, [])
        assert table.orders()[13] == 6

    def test_paper_update_walkthrough(self):
        """Section 4.2: insert a node (prime 17) at order 3 into Figure 9."""
        table = SCTable(group_size=5)
        for prime, order in [(2, 1), (3, 2), (5, 3), (7, 4), (11, 5), (13, 6)]:
            table.register(prime, order)
        touched, overflowed = table.shift_orders_from(3)
        assert overflowed == []
        touched += table.register(17, 3)
        assert table.orders() == {2: 1, 3: 2, 5: 4, 7: 5, 11: 6, 13: 7, 17: 3}
        assert touched == 3  # both records rewritten + the registration
        assert table.check()

    def test_overflow_only_record_counts_as_touched(self):
        """Regression: a record whose *only* change is an overflow-driven
        unregister is still one SC-record rewrite (its CRT value is
        recomputed by ``system.remove``) and must be charged to the update
        cost — the old accounting silently dropped it, under-reporting
        Figure 18 in exactly the case the paper overlooks."""
        table = SCTable(group_size=1)
        table.register(2, 1)   # record 0: shifting makes order 2 >= modulus 2
        table.register(11, 5)  # record 1: plain in-place rewrite
        touched, overflowed = table.shift_orders_from(1)
        assert overflowed == [(2, 2)]
        assert touched == 2  # record 0 (overflow rewrite) + record 1 (shift)

    def test_overflow_and_shift_in_same_record_counted_once(self):
        """A record that both shifts a sibling residue and overflows another
        still counts as one rewritten record, not two."""
        table = SCTable(group_size=2)
        table.register(3, 2)   # overflows: 2 + 1 >= 3
        table.register(11, 1)  # shifts in place: 1 -> 2
        touched, overflowed = table.shift_orders_from(1)
        assert overflowed == [(3, 3)]
        assert touched == 1

    def test_register_rejects_order_at_or_above_modulus(self):
        table = SCTable()
        with pytest.raises(OrderingError):
            table.register(5, 5)

    def test_set_order_rejects_invalid_residue(self):
        table = SCTable()
        table.register(7, 1)
        with pytest.raises(OrderingError):
            table.set_order(7, 7)

    def test_shift_after_mid_batch_groups_dump(self):
        """A ``groups()`` dump inside ``OrderedDocument.batch()`` writes the
        current orders and changes nothing; a later shift in the same batch
        must still reach every record."""
        root = element("r", *[element("c") for _ in range(6)])
        doc = OrderedDocument(root, group_size=2)

        def preorder_orders():
            return {
                doc.label_of(node).self_label: order
                for order, node in enumerate(doc.root.iter_preorder())
                if order
            }

        with doc.batch():
            doc.insert_child(root, 0)
            dumped = doc.sc_table.groups()
            assert dumped == [
                (record.max_prime, list(record.system.congruences()))
                for record in doc.sc_table
            ]
            assert SCTable.from_groups(dumped, group_size=2).orders() == preorder_orders()
            doc.insert_child(root, 1)
            assert doc.sc_table.orders() == preorder_orders()
        assert doc.sc_table.orders() == preorder_orders()
        assert doc.check() and doc.sc_table.check()


class TestSetOrderAndUnregister:
    def test_set_order(self):
        table = SCTable()
        table.register(5, 1)
        table.set_order(5, 4)
        assert table.order_of(5) == 4

    def test_unregister(self):
        table = SCTable(group_size=None)
        table.register(5, 1)
        table.register(7, 2)
        table.unregister(5)
        assert table.node_count == 1
        assert table.order_of(7) == 2
        with pytest.raises(OrderingError):
            table.order_of(5)

    def test_unregister_updates_max_prime(self):
        table = SCTable(group_size=None)
        table.register(5, 1)
        table.register(7, 2)
        table.unregister(7)
        assert table.records[0].max_prime == 5

    def test_unregister_unknown_raises(self):
        with pytest.raises(OrderingError):
            SCTable().unregister(3)

    def test_check_validates_all_records(self):
        table = SCTable(group_size=2)
        for prime, order in [(3, 1), (5, 2), (7, 3)]:
            table.register(prime, order)
        assert table.check()

    def test_scan_routing_matches_indexed_routing(self):
        table = SCTable(group_size=2)
        primes = [3, 5, 7, 11, 13, 17, 19]
        for order, prime in enumerate(primes, start=1):
            table.register(prime, order)
        for prime in primes:
            assert table.record_for_by_scan(prime) is table.record_for(prime)

    def test_scan_routing_unknown_raises(self):
        table = SCTable()
        table.register(5, 1)
        with pytest.raises(OrderingError):
            table.record_for_by_scan(7)


class TestGroupSizeTradeoff:
    """Ablation invariant: smaller groups -> more records touched per shift
    is *false*; bigger groups concentrate updates in fewer records."""

    def test_fewer_records_with_bigger_groups(self):
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        small = SCTable(group_size=2)
        big = SCTable(group_size=5)
        for order, prime in enumerate(primes, start=1):
            small.register(prime, order)
            big.register(prime, order)
        assert small.shift_orders_from(1)[0] == 5
        assert big.shift_orders_from(1)[0] == 2


class TestCapacityErrors:
    """Residue-range exhaustion surfaces as a typed, hinted CapacityError."""

    def test_register_overflow_is_a_capacity_error(self):
        table = SCTable(group_size=2)
        table.register(3, 0)
        table.register(5, 1)
        with pytest.raises(CapacityError) as info:
            table.register(7, 9)  # 9 >= 7: not a legal residue
        error = info.value
        assert error.group == 1  # a full first record: a new one would open
        assert error.document is None  # the table cannot know the document
        assert "recovery hint" in str(error)
        assert "compact()" in error.hint

    def test_register_overflow_names_the_receiving_group(self):
        table = SCTable(group_size=5)
        table.register(3, 0)
        with pytest.raises(CapacityError) as info:
            table.register(11, 11)
        assert info.value.group == 0  # last record still has room

    def test_set_order_overflow_is_a_capacity_error(self):
        table = SCTable()
        table.register(5, 0)
        with pytest.raises(CapacityError) as info:
            table.set_order(5, 5)
        assert info.value.group == 0
        assert info.value.hint

    def test_negative_order_is_still_a_plain_ordering_error(self):
        table = SCTable()
        with pytest.raises(OrderingError) as info:
            table.register(5, -1)
        assert not isinstance(info.value, CapacityError)

    def test_capacity_error_is_catchable_as_before(self):
        # CapacityError subclasses both legacy hierarchies, so existing
        # handlers keep working.
        from repro.errors import LabelingError

        assert issubclass(CapacityError, OrderingError)
        assert issubclass(CapacityError, LabelingError)

    def test_capacity_errors_are_counted(self):
        from repro.obs import metrics

        with metrics.collecting() as registry:
            table = SCTable()
            table.register(5, 0)
            with pytest.raises(CapacityError):
                table.set_order(5, 7)
            counters = registry.snapshot()["counters"]
        assert counters["sc.capacity_errors"] == 1


def recomputed_aggregates(record):
    """``(cur_max, cur_slack)`` recomputed from a record's stored residues."""
    system = record.system
    orders = {m: system.residue(m) for m in system.moduli}
    return (
        max(orders.values(), default=-1),
        min((m - order for m, order in orders.items()), default=_NO_SLACK),
    )


class TestLazySolveChurn:
    """Regression: no update path solves a CRT value, and the per-record
    shift aggregates stay exact at every mutation, batched or not."""

    def test_random_churn_never_solves_and_keeps_aggregates_exact(self, monkeypatch):
        import repro.primes.crt as crt

        rng = random.Random(16)
        # Preorder primes start at 2, so the front nodes carry primes
        # barely above their orders: front inserts overflow their residues.
        root = element(
            "r", *[element("s", *[element("i") for _ in range(17)]) for _ in range(120)]
        )
        # Pairs, so registrations both append to a record and open new ones.
        doc = OrderedDocument(root, group_size=2)
        table = doc.sc_table
        assert len(table) >= 1000
        solves = []
        solve = crt.solve_congruences

        def counting_solve(moduli, residues):
            solves.append(len(moduli))
            return solve(moduli, residues)

        monkeypatch.setattr(crt, "solve_congruences", counting_solve)

        def assert_exact():
            for record in doc.sc_table:
                assert (record.cur_max, record.cur_slack) == recomputed_aggregates(record)

        def assert_conservative():
            # Mid-batch the residues may lag; read orders through order_of.
            for record in doc.sc_table:
                orders = {m: doc.sc_table.order_of(m) for m in record.system.moduli}
                assert record.cur_max == max(orders.values(), default=-1)
                assert all(record.cur_slack <= m - o for m, o in orders.items())

        def random_op():
            nodes = list(doc.root.iter_preorder())
            roll = rng.random()
            if roll < 0.3:
                doc.insert_child(doc.root, 0, tag="front")
            elif roll < 0.7:
                parent = rng.choice(nodes)
                doc.insert_child(parent, rng.randint(0, len(parent.children)), tag="n")
            else:
                leaves = [node for node in nodes[1:] if not node.children]
                doc.delete(rng.choice(leaves))

        with metrics.collecting() as registry:
            for _ in range(60):
                if rng.random() < 0.4:
                    with doc.batch():
                        for _ in range(rng.randint(2, 8)):
                            random_op()
                            assert_conservative()
                else:
                    random_op()
                assert_exact()
        assert solves == []
        assert registry.counter_value("sc.residue_overflows") > 0
        assert registry.counter_value("sc.batch_solves") == 0
        assert table is doc.sc_table and len(table) >= 1000

        assert doc.sc_table.check()
        assert doc.check()
        report = audit_ordered_document(doc)
        assert report.ok, report.summary()
        assert len(solves) >= len(doc.sc_table)


# ---------------------------------------------------------------------------
# from_groups: one validating loop, every rejection typed
# ---------------------------------------------------------------------------

REJECTED_GROUPS = [
    pytest.param([(7, [(5, 1), (3, 2)])], 5, "routing key", id="routing-key-mismatch"),
    pytest.param([(7, [(2, 1), (3, 2), (7, 3)])], 2, "holds 3 nodes", id="oversized-group"),
    pytest.param([(5, [(5, 5)])], 5, "not valid for modulus", id="residue-at-modulus"),
    pytest.param([(5, [(5, -1)])], 5, "not valid for modulus", id="negative-residue"),
    pytest.param([(1, [(1, 0)])], 5, "must be > 1", id="modulus-one"),
    pytest.param([(5, [(5, 1), (5, 2)])], 5, "appears twice", id="duplicate-in-group"),
    pytest.param(
        [(5, [(5, 1)]), (5, [(5, 2)])], 5, "appears twice", id="duplicate-across-groups"
    ),
    pytest.param(
        [(21, [(15, 1), (7, 2), (21, 3)])], 5, "not coprime", id="non-prime-non-coprime"
    ),
    pytest.param([(6, [(2, 1), (6, 3)])], 5, "not coprime", id="shares-a-prime"),
]


@pytest.mark.parametrize("groups,group_size,message", REJECTED_GROUPS)
def test_from_groups_rejections_are_typed(groups, group_size, message):
    with pytest.raises(OrderingError, match=message):
        SCTable.from_groups(groups, group_size=group_size)


@pytest.mark.parametrize("groups,group_size,message", REJECTED_GROUPS)
def test_corrupt_sc_groups_restore_as_snapshot_corruption(groups, group_size, message):
    document = OrderedDocument(element("r"), group_size=group_size)
    state = SnapshotState(
        last_seq=0,
        total_update_cost=0,
        group_size=group_size,
        strategy="auto",
        documents=[
            DocumentState(
                root=element("r"),
                labels=[(1, 1)],
                generator_state=document.scheme._generator.state(),
                sc_groups=groups,
            )
        ],
    )
    with pytest.raises(SnapshotCorruptError, match=message):
        restore_collection(state)


def test_running_product_rejects_exactly_the_non_pairwise_coprime_groups():
    rng = random.Random(11)
    for _ in range(400):
        moduli = rng.sample(range(2, 40), rng.randint(1, 5))
        groups = [(max(moduli), [(modulus, 0) for modulus in moduli])]
        pairwise = all(
            gcd(first, second) == 1
            for index, first in enumerate(moduli)
            for second in moduli[index + 1 :]
        )
        if pairwise:
            assert SCTable.from_groups(groups).orders() == dict.fromkeys(moduli, 0)
        else:
            with pytest.raises(OrderingError, match="not coprime"):
                SCTable.from_groups(groups)
