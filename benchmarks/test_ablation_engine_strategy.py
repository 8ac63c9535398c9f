"""Ablation: the label scan vs the window columns in the query engine.

``scan`` tests every (context, candidate) pair by label comparison and
sorts by the scheme's order key (for prime: the SC table), as the
paper's SQL translation does; ``auto`` answers each step from the
store's binary-searched pre/post ranges and never computes an order
key.  On selective steps they are close; on dense steps (many contexts ×
many candidates, e.g. ``/ACT//LINE``) the windows win by the avoided
quadratic factor.
"""

import pytest

from repro.datasets.shakespeare import shakespeare_corpus
from repro.query.engine import QueryEngine
from repro.query.store import LabelStore

QUERIES = {
    "dense": "/ACT//LINE",
    "chained": "/PLAY//ACT//SCENE//SPEECH//LINE",
    "selective": "/PLAY//PERSONAE/PERSONA",
}


@pytest.fixture(scope="module")
def store():
    return LabelStore.build(shakespeare_corpus(plays=6, seed=9), scheme="prime")


@pytest.mark.parametrize("strategy", ["scan", "auto"])
@pytest.mark.parametrize("shape", list(QUERIES))
def test_engine_strategy(benchmark, store, shape, strategy):
    engine = QueryEngine(store, strategy=strategy)
    rows = benchmark(engine.evaluate, QUERIES[shape])
    benchmark.extra_info["rows"] = len(rows)
    benchmark.group = shape


def test_strategies_agree(benchmark, store):
    def check():
        scan = QueryEngine(store, strategy="scan")
        auto = QueryEngine(store, strategy="auto")
        counts = {}
        for shape, query in QUERIES.items():
            scan_rows = [r.element_id for r in scan.evaluate(query)]
            auto_rows = [r.element_id for r in auto.evaluate(query)]
            assert scan_rows == auto_rows, shape
            counts[shape] = len(scan_rows)
        return counts

    counts = benchmark.pedantic(check, rounds=1)
    benchmark.extra_info["rows"] = counts
