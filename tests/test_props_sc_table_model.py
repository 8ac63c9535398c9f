"""Model-based test of the SC table alone, against a naive order map.

The oracle is a ``{self_label: order}`` dict whose shift is the paper's
literal rule, "+1 to every order >= t", plus a list of member lists that
mirrors the table's grouping (append to the last record while it has
room).  The primes are small, so shifts push residues into their moduli
and the overflow path runs often.  After every step the table must agree
with the model on every order, every record's exact aggregates, the
``sc.*`` counters of that step, its own CRT check and the SC audit.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import CapacityError
from repro.obs import metrics
from repro.obs.audit import audit_sc_table
from repro.order.sc_table import _NO_SLACK, SCTable
from repro.primes.sieve import primes_first_n

PRIMES = primes_first_n(24)  # 2 .. 89
COUNTERS = ("sc.records_touched", "sc.shift_span", "sc.residue_overflows")


class SCTableModel(RuleBasedStateMachine):
    group_size = 5

    def __init__(self):
        super().__init__()
        self.table = SCTable(group_size=self.group_size)
        self.orders = {}  # the oracle: self_label -> order
        self.groups = []  # the oracle's grouping: member labels per record

    def step(self, action):
        """Run ``action`` and return its ``sc.*`` counter deltas."""
        with metrics.collecting() as registry:
            result = action()
        return result, tuple(registry.counter_value(name) for name in COUNTERS)

    @rule(data=st.data())
    def register(self, data):
        free = [p for p in PRIMES if p not in self.orders]
        if not free:
            return
        label = data.draw(st.sampled_from(free))
        order = data.draw(st.integers(0, label - 1))
        _, counters = self.step(lambda: self.table.register(label, order))
        assert counters == (1, 0, 0)
        self.orders[label] = order
        if self.groups and (
            self.group_size is None or len(self.groups[-1]) < self.group_size
        ):
            self.groups[-1].append(label)
        else:
            self.groups.append([label])

    @precondition(lambda self: self.orders)
    @rule(data=st.data())
    def register_past_capacity(self, data):
        free = [p for p in PRIMES if p not in self.orders]
        if not free:
            return
        label = data.draw(st.sampled_from(free))
        order = data.draw(st.integers(label, label + 3))
        with pytest.raises(CapacityError):
            self.table.register(label, order)

    @precondition(lambda self: self.orders)
    @rule(data=st.data())
    def unregister(self, data):
        label = data.draw(st.sampled_from(sorted(self.orders)))
        _, counters = self.step(lambda: self.table.unregister(label))
        assert counters == (0, 0, 0)
        self._drop(label)

    @precondition(lambda self: self.orders)
    @rule(data=st.data())
    def set_order(self, data):
        label = data.draw(st.sampled_from(sorted(self.orders)))
        order = data.draw(st.integers(0, label - 1))
        _, counters = self.step(lambda: self.table.set_order(label, order))
        assert counters == (1, 0, 0)
        self.orders[label] = order

    @rule(data=st.data())
    def shift(self, data):
        top = max(self.orders.values(), default=0)
        threshold = data.draw(st.integers(0, top + 2))
        touched = sum(
            any(self.orders[label] >= threshold for label in members)
            for members in self.groups
        )
        overflowed, moved = [], 0
        for members in self.groups:
            for label in members:
                order = self.orders[label]
                if order >= threshold:
                    if order + 1 >= label:
                        overflowed.append((label, order + 1))
                    else:
                        self.orders[label] = order + 1
                        moved += 1
        result, counters = self.step(lambda: self.table.shift_orders_from(threshold))
        assert result == (touched, overflowed)
        assert counters == (touched, moved, len(overflowed))
        for label, _ in overflowed:
            self._drop(label)

    def _drop(self, label):
        del self.orders[label]
        for members in self.groups:
            if label in members:
                members.remove(label)

    @invariant()
    def orders_match_the_model(self):
        assert self.table.node_count == len(self.orders)
        for label, order in self.orders.items():
            assert self.table.order_of(label) == order

    @invariant()
    def grouping_and_aggregates_are_exact(self):
        assert len(self.table) == len(self.groups)
        for record, members in zip(self.table, self.groups):
            pairs = list(record.system.congruences())
            assert [modulus for modulus, _ in pairs] == members
            orders = [order for _, order in pairs]
            assert record.cur_max == max(orders, default=-1)
            assert record.cur_min == min(orders, default=_NO_SLACK)
            assert record.cur_slack == min(
                (modulus - order for modulus, order in pairs), default=_NO_SLACK
            )

    @invariant()
    def table_checks_and_audits_clean(self):
        assert self.table.check()
        report = audit_sc_table(self.table)
        assert report.ok, report.summary()


def machine(group_size):
    """The model's ``TestCase`` for one SC group size."""
    case = type(
        f"SCTableModelGroups{group_size}", (SCTableModel,), {"group_size": group_size}
    ).TestCase
    case.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
    return case


TestGroupSize1 = machine(1)
TestGroupSize2 = machine(2)
TestGroupSize5 = machine(5)
TestGroupSizeNone = machine(None)
