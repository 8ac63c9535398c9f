"""The ``repro lint`` verb: run the invariant linter over the tree.

Wired into :mod:`repro.cli` as a subcommand::

    python -m repro lint [paths...] [--format text|json|sarif]
                         [--output FILE] [--baseline FILE | --no-baseline]
                         [--update-baseline] [--verbose]

Exit codes: 0 — no active finding; 1 — active findings (or stale
baseline entries under ``--strict-baseline``); the usual CLI-wide codes
(2 missing file, ...) apply on top.

Path and baseline defaults are derived from the package location, not
the working directory: the repo root is the parent of the ``src/``
directory containing this installed package, the default lint target is
``src/repro`` beneath it, and the default baseline is
``analysis-baseline.json`` at the root.  ``repro lint`` therefore works
from any cwd and report paths/fingerprints stay stable.
"""

from __future__ import annotations

import argparse
import subprocess  # repro: ignore[R13] -- the --changed-only flag shells out to git for the index diff; the linter CLI is tooling, not the labeled-tree runtime R13 protects
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import Baseline
from repro.analysis.engine import LintReport, lint_paths
from repro.analysis.reporters import (
    render_json,
    render_sarif,
    render_stats,
    render_text,
)

__all__ = [
    "repo_root",
    "default_baseline_path",
    "changed_python_files",
    "run_lint",
    "cmd_lint",
]

BASELINE_NAME = "analysis-baseline.json"


def changed_python_files(root: Path) -> List[Path]:
    """Python files changed against the git index (staged + unstaged).

    Used by ``--changed-only``: names come from ``git diff HEAD --name-only``
    plus untracked files, filtered to ``*.py`` that still exist.  Raises
    ``RuntimeError`` when git is unavailable or ``root`` is not a work tree.
    """
    names: List[str] = []
    for args in (
        ["git", "diff", "HEAD", "--name-only"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                args,
                cwd=root,
                capture_output=True,
                text=True,
                check=True,
                timeout=30,
            )
        except (OSError, subprocess.SubprocessError) as error:
            raise RuntimeError(f"cannot diff against git index: {error}") from error
        names.extend(line.strip() for line in proc.stdout.splitlines())
    out: List[Path] = []
    seen = set()
    for name in names:
        if not name.endswith(".py") or name in seen:
            continue
        seen.add(name)
        path = root / name
        if path.is_file():
            out.append(path)
    return sorted(out)


def repo_root() -> Path:
    """The directory containing ``src/`` (parent of the package tree)."""
    package_dir = Path(__file__).resolve().parent  # .../src/repro/analysis
    return package_dir.parent.parent.parent


def default_baseline_path() -> Path:
    """Where the committed baseline lives (repo root)."""
    return repo_root() / BASELINE_NAME


def run_lint(
    paths: Optional[List[str]] = None,
    baseline_path: Optional[Path] = None,
    use_baseline: bool = True,
    changed_only: bool = False,
) -> LintReport:
    """Programmatic entry point: lint ``paths`` (default: ``src/repro``).

    ``changed_only`` replaces the targets with the files changed against
    the git index and skips the whole-program passes (a partial file set
    cannot support sound interprocedural conclusions).
    """
    root = repo_root()
    if changed_only:
        targets = changed_python_files(root)
        if not targets:
            return LintReport()
    else:
        targets = [Path(p) for p in paths] if paths else [root / "src" / "repro"]
    baseline = None
    if use_baseline:
        baseline = Baseline.load(baseline_path or default_baseline_path())
    return lint_paths(
        targets,
        repo_root=root,
        baseline=baseline,
        include_program=not changed_only,
    )


def cmd_lint(args: argparse.Namespace) -> int:
    """Handler for the ``lint`` subcommand (see :func:`repro.cli.main`)."""
    baseline_path = Path(args.baseline) if args.baseline else default_baseline_path()
    changed_only = bool(getattr(args, "changed_only", False))
    report = run_lint(
        paths=args.paths or None,
        baseline_path=baseline_path,
        use_baseline=not args.no_baseline,
        changed_only=changed_only,
    )
    if args.update_baseline:
        # Absorb the current active findings (plus the still-live
        # grandfathered ones) and drop stale entries.
        Baseline.from_findings(report.findings + report.baselined).save(baseline_path)
        report = run_lint(
            paths=args.paths or None,
            baseline_path=baseline_path,
            use_baseline=True,
            changed_only=changed_only,
        )
    if args.format == "json":
        rendered = render_json(report)
    elif args.format == "sarif":
        rendered = render_sarif(report)
    else:
        rendered = render_text(report, verbose=args.verbose)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
        if args.format == "text" and report.findings:
            print(render_text(report))
    else:
        print(rendered)
    if getattr(args, "stats", False):
        print(render_stats(report))
    return report.exit_code


def add_lint_parser(
    commands: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> None:
    """Register the ``lint`` subparser on the main CLI's subcommands."""
    lint = commands.add_parser(
        "lint",
        help="run the invariant linter (rules R1-R15 and R17, docs/ANALYSIS.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the installed src/repro tree)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default text)",
    )
    lint.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        help=f"baseline file (default {BASELINE_NAME} at the repo root)",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the committed baseline (report grandfathered findings)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to absorb current findings and drop stale entries",
    )
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed and baselined findings (text format)",
    )
    lint.add_argument(
        "--changed-only",
        action="store_true",
        help=(
            "lint only python files changed against the git index; skips "
            "the whole-program passes (R14, R15, R17), which need the full tree"
        ),
    )
    lint.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print the self-audit exhibit: call-graph size, per-rule "
            "runtimes, and per-rule finding counts"
        ),
    )
    lint.set_defaults(handler=cmd_lint)
