"""Command line: ``python -m perf run ...`` and ``python -m perf compare A B``.

Run from the repository root.  The benchmark imports the ``repro`` package
from this checkout's ``src/`` and refuses to run (exit 2) without it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[1]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perf")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", default="all", help="a workload name, or all")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measured seconds per run (default: run_seconds in BENCHMARK.json)",
    )
    run.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="also run the traced phase and report per-layer metrics",
    )
    run.add_argument("--out", help="append each run's full record to this JSON-lines file")
    compare = commands.add_parser("compare", help="compare two run sets")
    compare.add_argument("before", help="JSON-lines file of the first run set")
    compare.add_argument("after", help="JSON-lines file of the second run set")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` and run the chosen command; returns the exit code."""
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.command == "compare":
        from perf import compare

        return compare.main(args.before, args.after)
    from perf import run

    seconds = args.seconds
    if seconds is None:
        seconds = float(run.load_spec()["run_seconds"])
    return run.main(args.workload, args.seed, seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
