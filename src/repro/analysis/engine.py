"""Rule engine: registry, file walker, suppression and baseline folding.

The pipeline per file is: parse → run every registered rule → fold in
inline suppressions (``# repro: ignore[RULE] -- reason``) → fold in the
committed baseline.  Only findings that survive both are *active* and
drive the non-zero exit code; suppressed and baselined findings stay in
the report so reporters can show the full picture.

Rules subclass :class:`Rule` and register with :func:`register`; they
see one :class:`~repro.analysis.context.FileContext` at a time and yield
``(line, column, message)`` triples via :meth:`Rule.emit` so location
bookkeeping stays in one place.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.analysis.baseline import Baseline
from repro.analysis.context import FileContext, context_from_file, context_from_source
from repro.analysis.findings import Finding, Severity

if TYPE_CHECKING:
    from repro.analysis.program import Program

__all__ = [
    "Rule",
    "ProgramRule",
    "register",
    "all_rules",
    "LintReport",
    "lint_contexts",
    "lint_paths",
    "lint_source",
    "iter_python_files",
]

#: Rule id for the meta-finding raised on a justification-less directive.
SUPPRESSION_RULE = "SUP"


class Rule:
    """Base class for one static-analysis rule.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings for one file.  ``rationale`` feeds the rule
    catalog in the SARIF output and ``docs/ANALYSIS.md``.
    """

    id: str = ""
    title: str = ""
    severity: Severity = Severity.ERROR
    rationale: str = ""
    #: Program rules run once per lint with the whole-program view instead
    #: of once per file; see :class:`ProgramRule`.
    program: bool = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield every violation of this rule in ``ctx``."""
        raise NotImplementedError

    def emit(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        """A finding of this rule at ``node``'s location in ``ctx``."""
        return Finding(
            rule=self.id,
            message=message,
            path=ctx.rel,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            severity=self.severity,
        )


class ProgramRule(Rule):
    """Base class for whole-program (interprocedural) rules.

    Program rules run once per lint over a :class:`~repro.analysis.program.Program`
    built from every context in the run; their findings flow through the
    same suppression/baseline folding as per-file findings, keyed by the
    context each finding lands in.  ``check`` is a no-op so a program rule
    accidentally run per-file yields nothing rather than crashing.
    """

    program: bool = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_program(self, program: "Program") -> Iterator[Finding]:
        """Yield every violation of this rule across the program."""
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule (by id) to the global registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id (imports the rule modules)."""
    # Import for side effect: rule classes register themselves on import.
    from repro.analysis import rules as _rules  # noqa: F401
    from repro.analysis.program import passes as _passes  # noqa: F401

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


@dataclass
class LintReport:
    """Outcome of one lint run over a set of files."""

    findings: List[Finding] = field(default_factory=list)  # active
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    stale_baseline: List[str] = field(default_factory=list)  # fingerprints
    files_checked: int = 0
    #: cumulative wall-clock seconds spent in each rule's check, by rule id.
    rule_timings: Dict[str, float] = field(default_factory=dict)
    #: pass-0 sizes (files/modules/classes/functions/call graph) when the
    #: whole-program passes ran; empty when they were skipped.
    program_stats: Dict[str, int] = field(default_factory=dict)
    #: non-fatal notices (baseline fallback matches, skipped passes, ...).
    warnings: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 when no active finding remains, 1 otherwise."""
        return 1 if self.findings else 0

    def sort(self) -> None:
        """Order every bucket by location for stable output."""
        key = lambda f: (f.path, f.line, f.column, f.rule)  # noqa: E731
        self.findings.sort(key=key)
        self.suppressed.sort(key=key)
        self.baselined.sort(key=key)
        self.stale_baseline.sort()


def _fold_suppressions(
    ctx: FileContext, raw: Iterable[Finding], report: LintReport
) -> Iterator[Finding]:
    """Split raw findings into suppressed vs still-pending ones."""
    for finding in raw:
        directive = ctx.suppression_for(finding.rule, finding.line)
        if directive is None:
            yield finding
        elif directive.valid:
            report.suppressed.append(finding.suppress(directive.justification))
        else:
            # Directive present but naked: the finding stands, and the
            # directive itself is called out so it gets a justification.
            yield finding
            report.findings.append(
                Finding(
                    rule=SUPPRESSION_RULE,
                    message=(
                        "suppression directive is missing a '-- justification'; "
                        "explain why the finding is acceptable"
                    ),
                    path=ctx.rel,
                    line=directive.line,
                    severity=Severity.ERROR,
                )
            )


def lint_contexts(
    contexts: Sequence[FileContext],
    baseline: Optional[Baseline] = None,
    rules: Optional[Sequence[Rule]] = None,
    include_program: bool = True,
) -> LintReport:
    """Run rules over already-built contexts; fold suppressions/baseline.

    File rules run per context; program rules (``rule.program``) run once
    over a :class:`~repro.analysis.program.Program` built from every
    context, unless ``include_program`` is false (partial file sets make
    whole-program conclusions unsound, so ``--changed-only`` disables them).
    """
    report = LintReport(files_checked=len(contexts))
    chosen = list(rules) if rules is not None else all_rules()
    file_rules = [rule for rule in chosen if not rule.program]
    program_rules = [rule for rule in chosen if rule.program]
    pending: List[Finding] = []
    for ctx in contexts:
        raw: List[Finding] = []
        for rule in file_rules:
            started = time.perf_counter()
            raw.extend(rule.check(ctx))
            elapsed = time.perf_counter() - started
            report.rule_timings[rule.id] = (
                report.rule_timings.get(rule.id, 0.0) + elapsed
            )
        pending.extend(_fold_suppressions(ctx, raw, report))
    if program_rules and include_program and contexts:
        # Imported lazily: program construction pulls in the pass modules,
        # which import this engine for the ProgramRule base class.
        from repro.analysis.program import Program

        started = time.perf_counter()
        program = Program(contexts)
        report.program_stats = program.stats()
        report.rule_timings["pass0"] = time.perf_counter() - started
        by_rel = {ctx.rel: ctx for ctx in contexts}
        for rule in program_rules:
            started = time.perf_counter()
            raw = list(rule.check_program(program))
            report.rule_timings[rule.id] = time.perf_counter() - started
            grouped: Dict[str, List[Finding]] = {}
            for finding in raw:
                grouped.setdefault(finding.path, []).append(finding)
            for rel, batch in grouped.items():
                ctx = by_rel.get(rel)
                if ctx is None:
                    pending.extend(batch)
                else:
                    pending.extend(_fold_suppressions(ctx, batch, report))
    elif program_rules and not include_program:
        report.warnings.append(
            "whole-program passes (R14, R15, R17) skipped: partial file set"
        )
    if baseline is not None:
        active, grandfathered, stale = baseline.split(
            pending, warnings=report.warnings
        )
        report.findings.extend(active)
        report.baselined.extend(grandfathered)
        report.stale_baseline.extend(stale)
    else:
        report.findings.extend(pending)
    report.sort()
    return report


def iter_python_files(root: Path) -> Iterator[Path]:
    """Every ``*.py`` under ``root`` (a file yields itself), sorted."""
    if root.is_file():
        yield root
        return
    yield from sorted(root.rglob("*.py"))


def lint_paths(
    paths: Sequence[Path],
    repo_root: Path,
    baseline: Optional[Baseline] = None,
    rules: Optional[Sequence[Rule]] = None,
    include_program: bool = True,
) -> LintReport:
    """Lint every python file under ``paths``.

    ``repo_root`` anchors the repo-relative paths findings are reported
    under (and therefore baseline fingerprints): pass the directory that
    contains ``src/``.
    """
    contexts = []
    for path in paths:
        for file_path in iter_python_files(Path(path)):
            contexts.append(context_from_file(file_path, repo_root))
    return lint_contexts(
        contexts, baseline=baseline, rules=rules, include_program=include_program
    )


def lint_source(
    source: str,
    rel: str,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
) -> LintReport:
    """Lint one in-memory snippet under a virtual repo-relative path.

    The workhorse of the rule-fixture tests: rules see exactly the same
    context they would for a real file at ``rel``.
    """
    return lint_contexts(
        [context_from_source(source, rel)], baseline=baseline, rules=rules
    )
