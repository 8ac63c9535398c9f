"""Shared fixtures for the benchmark suite.

Each ``test_*`` file regenerates one exhibit of the paper (see DESIGN.md's
per-experiment index).  Session-scoped fixtures hold the corpora so the
expensive builds happen once; the ``benchmark`` fixture then times only the
operation the exhibit is about.

Run with::

    pytest benchmarks/ --benchmark-only

Printed ``extra_info`` fields carry the measured values (label bits,
relabel counts, retrieved rows) that correspond to the paper's y-axes.
"""

from __future__ import annotations

import pytest

from repro.bench.response import PAPER_QUERIES, build_query_corpus
from repro.query.engine import QueryEngine
from repro.query.store import LabelStore


@pytest.fixture(scope="session")
def query_corpus():
    """The Section 5.2 corpus: plays replicated 5 times (scaled for CI)."""
    return build_query_corpus(plays=8, replicate=5, seed=100)


@pytest.fixture(scope="session")
def query_engines(query_corpus):
    """One engine per contender scheme, built once and warmed.

    The engines take the ``scan`` strategy, the label-driven evaluation
    Figure 15 compares (``figure15_table`` pins it too); the default
    ``auto`` path answers from pre/size windows for every scheme and so
    never exercises the labels.  One untimed query per engine loads what
    the first evaluation loads, such as the prime store's SC tables,
    which a fresh ordered document builds on first use.
    """
    engines = {
        scheme: QueryEngine(LabelStore.build(query_corpus, scheme=scheme), strategy="scan")
        for scheme in ("interval", "prime", "prefix-2")
    }
    for engine in engines.values():
        engine.evaluate(PAPER_QUERIES[0][1])
    return engines
