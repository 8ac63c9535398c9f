"""Experiment harness: the code behind every table and figure.

Each ``figure_*``/``table_*`` function regenerates one exhibit of the
paper's evaluation (Section 5) or size analysis (Section 3.1) and returns a
:class:`repro.bench.harness.ResultTable` that renders as the same rows or
series the paper reports.  The ``benchmarks/`` directory wraps these in
pytest-benchmark targets; examples and EXPERIMENTS.md print them directly.
"""

from repro.bench.compaction import compaction_table
from repro.bench.durability import durability_table
from repro.bench.harness import ResultTable
from repro.bench.models import figure3_table, figure4_table, figure5_table
from repro.bench.resilience import resilience_table
from repro.bench.response import figure15_table, table2_table
from repro.bench.spaces import figure13_table, figure14_table, table1_table
from repro.bench.updates import figure16_table, figure17_table, figure18_table

__all__ = [
    "ResultTable",
    "compaction_table",
    "durability_table",
    "resilience_table",
    "figure3_table",
    "figure4_table",
    "figure5_table",
    "figure13_table",
    "figure14_table",
    "figure15_table",
    "figure16_table",
    "figure17_table",
    "figure18_table",
    "table1_table",
    "table2_table",
]
