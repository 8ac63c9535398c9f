"""Cost-based step planning: scan vs merge vs twig vs window.

The engine has four physical operators for a structural step and none of
them dominates:

* **scan** — per-context tag-index scan with one label test per
  (context, candidate) pair; always applicable, O(|ctx| · |cand|).
* **merge** — the stack-based structural join; linear in |ctx| + |cand|
  but only for child/descendant steps without positional predicates, and
  it must sort both sides by the scheme's order key (for the prime scheme
  that means SC-table lookups — the paper's "overhead ... to generate
  global order via the SC table").
* **window** — binary-searched pre/post range windows over each
  document's :class:`~repro.query.window.DocWindow`; O(|ctx| · log |cand|
  + |out|) and it never consults the order key, but it needs valid
  window columns (absent on hand-assembled stores that are not a
  preorder).
* **twig** — the bottom-up tree-pattern matcher of
  :mod:`repro.query.twig`, a *whole-query* route for pure structural
  chains: one pass over each document instead of one operator per step.

This module prices the four against :class:`~repro.query.store.StoreStatistics`
(tag selectivity, document count, order-key cost) and the live context
size, returning :class:`StepChoice` records that the engine both obeys
and exposes — through ``repro.obs`` counters (``planner.pick.<strategy>``)
and the CLI's ``--explain`` flag.  The unit costs are deliberately crude
(a catalog-grade optimizer is out of scope); the bench exhibit
(``repro bench planner``) is the empirical check that "auto" never loses
badly to the best fixed strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.query.ast import Axis, Query, Step
from repro.query.store import StoreStatistics

__all__ = ["StepChoice", "QueryPlan", "Planner"]

# Relative unit costs, calibrated coarsely against the bench exhibit.
_PAIR_TEST = 1.0  # one label comparison (scan's inner loop)
_MERGE_ITEM = 1.5  # one merge-stack push/pop cycle
_WINDOW_PROBE = 2.0  # one bisect probe round (two binary searches)
_WINDOW_EMIT = 0.25  # emitting one row from a window slice
_TWIG_ITEM = 3.0  # one element through the bottom-up semi-join
_PRIME_ORDER_KEY = 8.0  # an SC-table order lookup (modulo over big ints)
_PLAIN_ORDER_KEY = 1.0  # order read off the label itself

_MERGE_AXES = (Axis.CHILD, Axis.DESCENDANT)


@dataclass(frozen=True)
class StepChoice:
    """The planner's decision for one step, with its cost estimates."""

    axis: str
    tag: str
    strategy: str
    context_size: int
    costs: Dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        """One ``--explain`` line: the pick plus every priced alternative."""
        priced = ", ".join(
            f"{name}={cost:.0f}" for name, cost in sorted(self.costs.items())
        )
        return f"{self.axis}::{self.tag} -> {self.strategy} ({priced})"


@dataclass
class QueryPlan:
    """The chosen route for one evaluation: per-step picks or a twig pass."""

    strategy: str
    steps: List[StepChoice] = field(default_factory=list)
    twig: Optional[str] = None  # compact pattern text when the twig route ran

    def record(self, choice: StepChoice) -> None:
        """Append one step decision (called by the engine as it executes)."""
        self.steps.append(choice)

    def describe(self) -> str:
        """Multi-line ``--explain`` rendering of the whole plan."""
        lines = [f"strategy: {self.strategy}"]
        if self.twig is not None:
            lines.append(f"twig: {self.twig}")
        for index, choice in enumerate(self.steps):
            lines.append(f"step {index}: {choice.describe()}")
        return "\n".join(lines)


class Planner:
    """Prices the physical operators for each step of a query.

    Stateless apart from the statistics snapshot handed to each call, so
    one planner instance can serve an engine across mutations — the store
    recomputes :class:`StoreStatistics` lazily and the engine passes the
    fresh snapshot in.
    """

    def order_key_cost(self, stats: StoreStatistics) -> float:
        """Unit cost of one document-order lookup under the store's ops."""
        return _PRIME_ORDER_KEY if stats.ops_name == "prime" else _PLAIN_ORDER_KEY

    def step_costs(
        self, stats: StoreStatistics, step: Step, context_size: int
    ) -> Dict[str, float]:
        """Price every applicable operator for ``step``.

        ``context_size`` is the *live* context cardinality — the planner
        runs per step at evaluation time, not at parse time, so selective
        early steps make later windows cheap.
        """
        ctx = max(1, context_size)
        per_doc = max(1.0, stats.candidates_per_doc(step.tag))
        total = max(1, stats.total_candidates(step.tag))
        order_cost = self.order_key_cost(stats)
        costs: Dict[str, float] = {}
        # scan: |ctx| passes over the owning doc's tag bucket, then an
        # order-key sort of matches (bounded by the bucket itself).
        costs["scan"] = ctx * per_doc * _PAIR_TEST + total * order_cost
        if step.axis in _MERGE_AXES and step.position is None:
            # merge: sort both sides by order key, one linear pass.
            costs["merge"] = (ctx + total) * (_MERGE_ITEM + order_cost)
        if stats.has_windows:
            # window: a probe per context row plus the emitted slice; no
            # order keys anywhere (pre ranks are the order).
            width = min(total, ctx * per_doc * 0.25)
            costs["window"] = (
                ctx * (_WINDOW_PROBE * math.log2(per_doc + 2.0)) + width * _WINDOW_EMIT
            )
        return costs

    def plan_step(
        self, stats: StoreStatistics, step: Step, context_size: int
    ) -> StepChoice:
        """Pick the cheapest applicable operator for one step."""
        costs = self.step_costs(stats, step, context_size)
        strategy = min(costs, key=lambda name: costs[name])
        return StepChoice(
            axis=step.axis.value,
            tag=step.tag,
            strategy=strategy,
            context_size=context_size,
            costs=costs,
        )

    # ------------------------------------------------------------------
    # Whole-query twig route
    # ------------------------------------------------------------------

    @staticmethod
    def twig_eligible(query: Query) -> bool:
        """A query the tree-pattern matcher can take whole.

        Pure structural chains only: child/descendant axes, no positional
        or text predicates (the twig matcher has neither concept).
        """
        return all(
            step.axis in _MERGE_AXES
            and step.position is None
            and step.text is None
            for step in query.steps
        )

    def twig_cost(self, stats: StoreStatistics, query: Query) -> float:
        """Price the whole-query twig pass (one semi-join per document)."""
        per_step = sum(
            stats.total_candidates(step.tag) for step in query.steps
        )
        return stats.row_count * _PAIR_TEST + per_step * _TWIG_ITEM * len(query.steps)

    def chain_cost(self, stats: StoreStatistics, query: Query) -> float:
        """Estimated cost of the best per-step route, for twig comparison.

        Context sizes are unknown before execution; assume each step's
        output is its candidate total (pessimistic for selective chains,
        which is fine — it only makes the twig route *less* likely, and
        the twig matcher is the nichest operator of the four).
        """
        total = 0.0
        context = stats.doc_count
        for step in query.steps:
            costs = self.step_costs(stats, step, context)
            total += min(costs.values())
            context = max(1, stats.total_candidates(step.tag))
        return total
