"""repro.analysis — AST-level invariant linter for the update protocol.

The paper's guarantees (Property 3 ancestor test, CRT-based SC order
decode) and the systems layers built on them (durability, resilience,
batching) are correct only while a handful of *update-protocol
disciplines* hold: labels change only through ``_set_label``, SC residue
state mutates only inside the SC layer, core layers never import service
layers, replayed paths stay deterministic, and so on.  This package
machine-checks those disciplines over plain Python ASTs — stdlib only,
no third-party dependencies:

* :mod:`repro.analysis.engine` — rule registry, file walker, inline
  ``# repro: ignore[RULE] -- justification`` suppressions,
* :mod:`repro.analysis.rules` — the per-file rules R1–R13,
* :mod:`repro.analysis.program` — the whole-program layer: project symbol
  table, approximate call graph, and the interprocedural passes R14, R15
  and R17 (lock discipline, publication escape, WAL-before-apply
  ordering; R16 is retired),
* :mod:`repro.analysis.baseline` — committed grandfather list with
  stale-entry expiry and rename-tolerant basename fallback,
* :mod:`repro.analysis.reporters` — text, JSON, and SARIF 2.1.0 output,
* :mod:`repro.analysis.cli` — the ``python -m repro lint`` verb.

The rule catalog with full rationale and the suppression policy live in
``docs/ANALYSIS.md``; CI runs the linter (plus the mypy strict gate) in
the ``lint-invariants`` job and fails on any new finding.
"""

from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.context import FileContext, Suppression, context_from_source
from repro.analysis.engine import (
    LintReport,
    ProgramRule,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
    register,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.program import Program
from repro.analysis.reporters import (
    render_json,
    render_sarif,
    render_stats,
    render_text,
)

__all__ = [
    "Baseline",
    "BaselineError",
    "FileContext",
    "Finding",
    "LintReport",
    "Program",
    "ProgramRule",
    "Rule",
    "Severity",
    "Suppression",
    "all_rules",
    "context_from_source",
    "lint_paths",
    "lint_source",
    "register",
    "render_json",
    "render_sarif",
    "render_stats",
    "render_text",
]
