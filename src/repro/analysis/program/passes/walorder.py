"""R17 — WAL/journal write must dominate the in-memory apply.

On every mutation entry point of ``DurableCollection`` and ``ShardRouter``,
the durability write (WAL append, journal buffer/inflight record) must come
before the in-memory or remote apply — otherwise a crash between the two
leaves an applied-but-unlogged mutation that recovery cannot replay.

Mutation entry points are verb-named methods: prefixes ``insert_``,
``bulk_``, ``apply``, ``compact`` and the exact names ``delete``/
``add_document``.  Per class the pass knows what counts as a *journal* call
and what counts as an *apply*:

* ``DurableCollection``: journal = ``.append``/``.write`` on a receiver
  chain containing a ``wal`` segment, or a ``self.<m>()`` call whose method
  transitively performs one (closure over the class's own methods); apply =
  a verb-named attribute call on a receiver chain containing ``live``.
* ``ShardRouter``: journal = ``.append``/``.insert`` on a chain containing
  ``journal``, or an assignment to ``.inflight`` on such a chain; apply =
  ``.request``/``.send`` on a chain containing ``supervisor``.

A verb-named method that delegates to another verb-named ``self`` method is
considered satisfied — responsibility transfers to the callee (this keeps
``apply_batch -> apply_batch_addressed`` to a single
decision point).  Comparison is by line number, which is sound for the
straight-line mutation bodies this codebase uses; docs/ANALYSIS.md notes
the limits.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from ...context import FileContext
from ...engine import ProgramRule, register
from ...findings import Finding
from ..symbols import ClassInfo

if TYPE_CHECKING:
    from .. import Program

_VERB_PREFIXES = ("insert_", "bulk_", "apply", "compact")
_VERB_EXACT = {"delete", "add_document"}


def _is_mutation_entry(name: str) -> bool:
    return name in _VERB_EXACT or any(name.startswith(p) for p in _VERB_PREFIXES)


def _chain_segments(expr: ast.expr) -> List[str]:
    """Name/attribute segments of a receiver chain, left to right."""
    parts: List[str] = []
    node: ast.expr = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


def _segment_matches(segments: List[str], token: str) -> bool:
    return any(token in segment for segment in segments)


@dataclass
class _ClassSpec:
    journal_attrs: Set[str]
    journal_chain: str
    apply_chain: str
    apply_attrs: Optional[Set[str]] = None  # None -> any verb-named attr
    inflight_chain: Optional[str] = None


_SPECS: Dict[str, _ClassSpec] = {
    "DurableCollection": _ClassSpec(
        journal_attrs={"append", "write"},
        journal_chain="wal",
        apply_chain="live",
    ),
    "ShardRouter": _ClassSpec(
        journal_attrs={"append", "insert"},
        journal_chain="journal",
        apply_chain="supervisor",
        apply_attrs={"request", "send"},
        inflight_chain="journal",
    ),
}


def _iter_stmts(node: ast.AST) -> Iterator[ast.AST]:
    """Source-ordered walk that skips nested def/class bodies."""
    stack: List[ast.AST] = list(reversed(list(ast.iter_child_nodes(node))))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(child))))


def _first_journal_line(
    method: ast.FunctionDef,
    spec: _ClassSpec,
    journaling_methods: Set[str],
) -> Optional[int]:
    for node in _iter_stmts(method):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            segments = _chain_segments(node.func.value)
            if node.func.attr in spec.journal_attrs and _segment_matches(
                segments, spec.journal_chain
            ):
                return node.lineno
            if (
                segments == ["self"]
                and node.func.attr in journaling_methods
            ):
                return node.lineno
        if (
            spec.inflight_chain is not None
            and isinstance(node, ast.Assign)
        ):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and target.attr == "inflight":
                    if _segment_matches(
                        _chain_segments(target.value), spec.inflight_chain
                    ):
                        return target.lineno
    return None


def _first_apply(
    method: ast.FunctionDef, spec: _ClassSpec
) -> Optional[ast.Call]:
    for node in _iter_stmts(method):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        segments = _chain_segments(node.func.value)
        if not _segment_matches(segments, spec.apply_chain):
            continue
        attr = node.func.attr
        if spec.apply_attrs is not None:
            if attr in spec.apply_attrs:
                return node
        elif _is_mutation_entry(attr):
            return node
    return None


def _delegates(method: ast.FunctionDef, own_methods: Set[str]) -> bool:
    """True if the method calls another verb-named method on self."""
    for node in _iter_stmts(method):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
            and node.func.attr != method.name
            and node.func.attr in own_methods
            and _is_mutation_entry(node.func.attr)
        ):
            return True
    return False


def _journaling_methods(cls: ClassInfo, spec: _ClassSpec) -> Set[str]:
    """Methods that (transitively) perform a journal write themselves."""
    direct: Set[str] = set()
    calls: Dict[str, Set[str]] = {}
    for name, method in cls.methods.items():
        calls[name] = set()
        for node in _iter_stmts(method.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            segments = _chain_segments(node.func.value)
            if node.func.attr in spec.journal_attrs and _segment_matches(
                segments, spec.journal_chain
            ):
                direct.add(name)
            elif segments == ["self"]:
                calls[name].add(node.func.attr)
    closure = set(direct)
    changed = True
    while changed:
        changed = False
        for name, callees in calls.items():
            if name not in closure and callees & closure:
                closure.add(name)
                changed = True
    return closure


@register
class WalBeforeApplyRule(ProgramRule):
    id = "R17"
    title = "WAL/journal write must precede the in-memory apply"
    rationale = (
        "A mutation applied to live state before its WAL/journal record is "
        "durable cannot be replayed after a crash: recovery restores the "
        "snapshot plus the log, and the unlogged apply is silently lost."
    )

    def check_program(self, program: "Program") -> Iterator[Finding]:
        for module_name in sorted(program.symbols.modules):
            info = program.symbols.modules[module_name]
            ctx = program.context_for_module(module_name)
            if ctx is None:
                continue
            for cls_name, spec in _SPECS.items():
                cls = info.classes.get(cls_name)
                if cls is not None:
                    yield from self._check_class(ctx, cls, spec)

    def _check_class(
        self, ctx: FileContext, cls: ClassInfo, spec: _ClassSpec
    ) -> Iterator[Finding]:
        journaling = _journaling_methods(cls, spec)
        own = set(cls.methods)
        # Verb-named entry points plus every own method they (transitively)
        # call: delegation moves the journal/apply pair into helpers like
        # ShardRouter._mutate, and the ordering must hold wherever it lands.
        candidates: Set[str] = {
            name for name in cls.methods if _is_mutation_entry(name)
        }
        changed = True
        while changed:
            changed = False
            for name in list(candidates):
                for node in _iter_stmts(cls.methods[name].node):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "self"
                        and node.func.attr in own
                        and node.func.attr not in candidates
                    ):
                        candidates.add(node.func.attr)
                        changed = True
        for name in sorted(candidates):
            method = cls.methods[name]
            apply_call = _first_apply(method.node, spec)
            journal_line = _first_journal_line(method.node, spec, journaling)
            if apply_call is None:
                # No apply in this body: the method either journals only
                # (fine) or delegates the whole pair to a helper that is
                # itself a candidate.
                continue
            if journal_line is None:
                if _delegates(method.node, own):
                    continue
                yield Finding(
                    rule=self.id,
                    message=(
                        f"{cls.name}.{name} applies a mutation with no "
                        "WAL/journal write anywhere in the method"
                    ),
                    path=ctx.rel,
                    line=method.lineno,
                    column=method.node.col_offset,
                    severity=self.severity,
                )
                continue
            if apply_call.lineno < journal_line:
                yield Finding(
                    rule=self.id,
                    message=(
                        f"{cls.name}.{name} applies at line "
                        f"{apply_call.lineno} before the WAL/journal write "
                        f"at line {journal_line}"
                    ),
                    path=ctx.rel,
                    line=apply_call.lineno,
                    column=apply_call.col_offset,
                    severity=self.severity,
                )
