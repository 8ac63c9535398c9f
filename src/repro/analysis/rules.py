"""The project-specific invariant rules R1–R13.

Each rule machine-checks one update-protocol discipline the paper's
guarantees rest on (Property 3 ancestor test, CRT-based SC ordering) or
one serving-layer discipline the durability/resilience subsystems rest
on.  The catalog with full rationale lives in ``docs/ANALYSIS.md``; the
``rationale`` strings here are the one-line versions surfaced by the
SARIF reporter.

All rules operate on plain :mod:`ast` trees via the shared
:class:`~repro.analysis.context.FileContext` — no third-party deps, no
imports of the modules under analysis.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.context import FileContext
from repro.analysis.engine import Rule, register
from repro.analysis.findings import Finding, Severity

__all__ = ["dotted_name"]

#: The four packages forming the paper-core layer (rule R3).
CORE_PACKAGES = ("primes", "labeling", "order", "xmlkit")


def dotted_name(node: ast.AST) -> Optional[str]:
    """Flatten ``a.b.c`` attribute/name chains to ``"a.b.c"`` (else None).

    Calls inside the chain dissolve to their function's chain
    (``self.wal().append`` → ``self.wal.append``) so receiver matching
    sees through trivial accessor calls.
    """
    parts: List[str] = []
    cursor = node
    while True:
        if isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        elif isinstance(cursor, ast.Call):
            cursor = cursor.func
        elif isinstance(cursor, ast.Name):
            parts.append(cursor.id)
            break
        else:
            return None
    return ".".join(reversed(parts))


def _assign_targets(node: ast.AST) -> Iterator[ast.expr]:
    """Every assignment target expression under ``node`` (one statement)."""
    if isinstance(node, ast.Assign):
        for target in node.targets:
            yield target
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        yield node.target
    # Tuple targets unpack below via the caller walking Tuple elts.


def _flatten_targets(targets: Iterator[ast.expr]) -> Iterator[ast.expr]:
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flatten_targets(iter(target.elts))
        else:
            yield target


def _calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register
class LabelWriteRule(Rule):
    """R1 — labels change only through ``LabelingScheme._set_label``."""

    id = "R1"
    title = "label writes outside the labeling layer"
    rationale = (
        "Property 3 (ancestor test by divisibility) holds only if every "
        "label write flows through _set_label, which also feeds the exact "
        "relabel tracking the batch pipeline depends on."
    )

    _ATTRS = {"label", "_label"}
    _MAPS = {"_labels", "_nodes"}
    _MUTATORS = {"pop", "clear", "update", "setdefault", "popitem"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        in_labeling = ctx.in_package("labeling")
        for node in ast.walk(ctx.tree):
            for target in _flatten_targets(_assign_targets(node)):
                # someone.label = ... / someone._label = ...
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in self._ATTRS
                    and not in_labeling
                ):
                    yield self.emit(
                        ctx,
                        target,
                        f"assignment to .{target.attr} outside repro.labeling; "
                        "labels may only change via LabelingScheme._set_label",
                    )
                # someone._labels[...] = ...
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr in self._MAPS
                    and ctx.module != "repro.labeling.base"
                ):
                    yield self.emit(
                        ctx,
                        target,
                        f"direct write into .{target.value.attr} outside "
                        "labeling/base.py; use _set_label/_drop_label",
                    )
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if (
                    name is not None
                    and ctx.module != "repro.labeling.base"
                    and any(
                        f".{map_attr}.{mut}" in f".{name}"
                        for map_attr in self._MAPS
                        for mut in self._MUTATORS
                    )
                ):
                    yield self.emit(
                        ctx,
                        node,
                        f"mutating call {name}() bypasses _set_label/_drop_label",
                    )


@register
class ResidueMutationRule(Rule):
    """R2 — SC residue state mutates only inside primes/ and sc_table.py.

    ``_congruences`` is flagged on any receiver.  ``_offset`` is a common
    name (the replica tailer keeps its own), so it is flagged only when
    read off another object, never as ``self._offset``.
    """

    id = "R2"
    title = "CongruenceSystem internals touched outside the SC layer"
    rationale = (
        "Every residue is the stored residue plus the system's offset, and "
        "the cached CRT value is derived from both; outside writers "
        "desynchronize them and break the paper's order decode (Theorem 1)."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_package("primes") or ctx.is_module("repro.order.sc_table"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr == "_congruences" or (
                node.attr == "_offset"
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                yield self.emit(
                    ctx,
                    node,
                    f"access to CongruenceSystem.{node.attr} outside "
                    "repro.primes/* and repro.order.sc_table; use "
                    "append/set_residues/shift_all/remove",
                )


@register
class LayeringRule(Rule):
    """R3 — core layers never import the service layers above them."""

    id = "R3"
    title = "core layer imports a service layer"
    severity = Severity.ERROR
    rationale = (
        "primes/labeling/order/xmlkit are the paper core; importing "
        "durable/resilient/bench/obs.audit from them inverts the "
        "dependency stack and re-creates the init-order cycles PR 2 "
        "fought.  Sole carve-out: repro.obs.metrics, the dependency-free "
        "instrumentation facade (R8 requires it)."
    )

    _BANNED_ROOTS = ("repro.durable", "repro.resilient", "repro.bench", "repro.obs")
    _ALLOWED = {"repro.obs.metrics"}

    def _banned(self, module: str) -> bool:
        if module in self._ALLOWED:
            return False
        return any(
            module == root or module.startswith(root + ".")
            for root in self._BANNED_ROOTS
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(*CORE_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._banned(alias.name):
                        yield self.emit(
                            ctx,
                            node,
                            f"core package {ctx.package!r} imports service "
                            f"module {alias.name}",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:
                    continue  # relative imports stay within the package
                module = node.module
                names = {alias.name for alias in node.names}
                if module == "repro.obs" and names == {"metrics"}:
                    continue  # the sanctioned instrumentation facade
                offenders = []
                if self._banned(module):
                    offenders.append(module)
                else:
                    # `from repro import durable` smuggles the package in.
                    offenders.extend(
                        f"{module}.{name}"
                        for name in sorted(names)
                        if self._banned(f"{module}.{name}")
                        and f"{module}.{name}" not in self._ALLOWED
                    )
                for offender in offenders:
                    yield self.emit(
                        ctx,
                        node,
                        f"core package {ctx.package!r} imports service "
                        f"module {offender}",
                    )


@register
class DeterminismRule(Rule):
    """R4 — no ambient randomness or wall-clock reads in library code."""

    id = "R4"
    title = "ambient nondeterminism in library code"
    rationale = (
        "WAL replay and chaos soaks assert byte-identical recovery; that "
        "only holds when every random draw comes from an explicitly "
        "seeded random.Random and every clock is injected or monotonic."
    )

    _EXEMPT_PACKAGES = ("datasets",)
    _BANNED_CALLS = {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "date.today",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_package(*self._EXEMPT_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = sorted(
                    alias.name for alias in node.names if alias.name != "Random"
                )
                if bad:
                    yield self.emit(
                        ctx,
                        node,
                        f"importing ambient randomness from random: {bad}; "
                        "import Random and seed it explicitly",
                    )
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name.startswith("random.") and name != "random.Random":
                yield self.emit(
                    ctx,
                    node,
                    f"{name}() draws from the ambient global RNG; construct "
                    "random.Random(seed) and pass it down",
                )
            elif name in self._BANNED_CALLS:
                yield self.emit(
                    ctx,
                    node,
                    f"{name}() reads the wall clock; inject a clock "
                    "parameter or use time.perf_counter for durations",
                )


@register
class SwallowedExceptionRule(Rule):
    """R5 — durable/resilient code never swallows broad exceptions."""

    id = "R5"
    title = "broad exception handler swallows silently"
    rationale = (
        "A swallowed error on the durability path turns a recoverable "
        "fault into silent data loss; handlers must re-raise, record a "
        "metric, or flag a report."
    )

    _SCOPES = ("durable", "resilient", "replica", "shard")
    _SIGNAL_CALLS = re.compile(
        r"(^|\.)(incr|gauge|timed|flag|warning|error|exception|critical)$"
    )

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        name = dotted_name(handler.type)
        return name in {"Exception", "BaseException"}

    def _signals(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name and self._SIGNAL_CALLS.search(name):
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(*self._SCOPES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and self._is_broad(node):
                if not self._signals(node):
                    what = "bare except" if node.type is None else "except Exception"
                    yield self.emit(
                        ctx,
                        node,
                        f"{what} swallows without re-raise, metric, or "
                        "report.flag on a durability/resilience path",
                    )


@register
class WalAppendRule(Rule):
    """R6 — WAL appends happen only inside the durable write path."""

    id = "R6"
    title = "WAL append outside the checksummed write path"
    rationale = (
        "WriteAheadLog.append is the only encoder that checksums and "
        "fsync-policies records; append-family calls from other layers "
        "would bypass rollback/poisoning and break replay atomicity."
    )

    _ALLOWED = ("repro.durable.wal", "repro.durable.collection")
    _APPEND_METHODS = {"append", "write"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_module(*self._ALLOWED):
            return
        for node in _calls(ctx.tree):
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in self._APPEND_METHODS:
                continue
            receiver = dotted_name(node.func.value)
            if receiver is None:
                continue
            segments = receiver.split(".")
            if any(segment in {"wal", "_wal"} for segment in segments):
                yield self.emit(
                    ctx,
                    node,
                    f"{receiver}.{node.func.attr}() appends to the WAL from "
                    "outside repro.durable.{wal,collection}; route mutations "
                    "through DurableCollection",
                )


@register
class MutableDefaultRule(Rule):
    """R7 — no mutable default arguments."""

    id = "R7"
    title = "mutable default argument"
    rationale = (
        "A shared default list/dict/set aliases state across calls — the "
        "classic source of order-dependent, replay-divergent behaviour."
    )

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "Counter", "defaultdict"}

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name in self._MUTABLE_CALLS
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.emit(
                        ctx,
                        default,
                        f"mutable default argument in {node.name}(); "
                        "use None and construct inside the body",
                    )


@register
class MutationMetricRule(Rule):
    """R8 — public mutators in order/ and durable/ emit an obs metric."""

    id = "R8"
    title = "public mutator without an observability metric"
    rationale = (
        "docs/OBSERVABILITY.md promises every state transition in the "
        "order and durability layers is countable; a mutator that emits "
        "nothing is invisible to the audit trail and the benchmarks."
    )

    _SCOPES = ("order", "durable")
    _VERB = re.compile(
        r"^(insert|delete|remove|register|unregister|shift|set_|apply"
        r"|bulk_|checkpoint|compact|prune|reset|truncate|rollback|append)"
    )
    _EXEMPT_PREFIXES = ("from_", "_")

    def _delegates(self, node: ast.FunctionDef) -> bool:
        """Whether the body forwards to another mutation-verb method.

        Such a callee is itself subject to this rule wherever it is
        defined (``self.live.apply``, ``self.apply_batch_addressed``,
        ``wal.append`` ...), so the state transition is counted there and
        double-counting in the wrapper would skew the counters.
        """
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            if isinstance(sub.func, ast.Attribute) and self._VERB.match(sub.func.attr):
                return True
        return False

    def _emits_metric(self, node: ast.FunctionDef) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                name = dotted_name(sub.func)
                if name and (
                    name.startswith("metrics.") or ".metrics." in f".{name}"
                ):
                    return True
        for decorator in node.decorator_list:
            name = dotted_name(decorator)
            if name and "metrics." in name:
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(*self._SCOPES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            name = node.name
            if name.startswith(self._EXEMPT_PREFIXES):
                continue
            if not self._VERB.match(name):
                continue
            if any(
                dotted_name(d) in {"property", "classmethod", "staticmethod"}
                for d in node.decorator_list
            ):
                continue
            if self._delegates(node) or self._emits_metric(node):
                continue
            yield self.emit(
                ctx,
                node,
                f"public mutator {name}() emits no repro.obs metric; add "
                "metrics.incr/timed or suppress with a justification",
            )


@register
class PrintRule(Rule):
    """R9 — no ``print()`` in library code."""

    id = "R9"
    title = "print() in library code"
    rationale = (
        "Library output must flow through return values, metrics, or "
        "raised errors; stray prints corrupt CLI/SARIF output streams "
        "and can't be captured by callers."
    )

    _EXEMPT_MODULES = ("repro.cli", "repro.__main__")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_module(*self._EXEMPT_MODULES):
            return
        # The analysis reporters print through their own exempted writer
        # module; everything else in repro.analysis is library code too.
        if ctx.is_module("repro.analysis.cli"):
            return
        for node in _calls(ctx.tree):
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                yield self.emit(
                    ctx,
                    node,
                    "print() in library code; return data or raise, and let "
                    "the CLI layer do the printing",
                )


@register
class FsyncContainmentRule(Rule):
    """R10 — fsync/flush stay inside the WAL and the durable-file module."""

    id = "R10"
    title = "fsync/flush outside durable/wal.py and durable/files.py"
    rationale = (
        "The fsync policy (always/batch:N/never) is enforced in exactly "
        "one place so the durability loss-window story stays provable; "
        "scattered fsyncs make the policy a lie.  Whole-file publishes "
        "and tail truncations go through durable/files.py's "
        "replace_durably and truncate_durably.  Flushing the console "
        "streams is not durability and is exempt."
    )

    _ALLOWED = ("repro.durable.wal", "repro.durable.files")
    #: Console flushes: they push text to a terminal or pipe, not to disk.
    _CONSOLE_FLUSHES = frozenset({"sys.stdout.flush", "sys.stderr.flush"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_module(*self._ALLOWED):
            return
        for node in _calls(ctx.tree):
            name = dotted_name(node.func)
            if name is None:
                continue
            if name == "os.fsync" or name.endswith(".fsync"):
                yield self.emit(
                    ctx,
                    node,
                    f"{name}() outside durable/wal.py and durable/files.py",
                )
            elif (
                name.endswith(".flush")
                and not node.args
                and not node.keywords
                and name not in self._CONSOLE_FLUSHES
            ):
                yield self.emit(
                    ctx,
                    node,
                    f"{name}() outside durable/wal.py and durable/files.py",
                )


@register
class WindowMaintenanceRule(Rule):
    """R11 — window-index maintenance stays in the store/live layer."""

    id = "R11"
    title = "window-index maintenance outside the store/live layer"
    severity = Severity.ERROR
    rationale = (
        "The rows' pre/size columns are trusted by the engine's window "
        "path only because every mutation flows through "
        "LabelStore's row mutators (which keep each document's preorder "
        "row list, its tag lists, and the columns in lockstep) and "
        "LiveCollection's patch hooks; a bench or service module touching "
        "the maintenance API directly would desynchronize the columns "
        "from the tree."
    )

    #: Modules allowed to import the column machinery at all (readers of
    #: the per-document lists included: the engine binary-searches them).
    _IMPORT_SCOPE = "query"
    #: DocWindow maintainers — callable only where the lists are owned.
    _INDEX_MUTATORS = {"apply_insert", "apply_delete"}
    _INDEX_CALLERS = ("repro.query.store", "repro.query.window")
    #: LabelStore row mutators — callable only from the live patch hooks
    #: (and the store itself).
    _STORE_MUTATORS = {"insert_row", "delete_subtree", "refresh_labels"}
    _STORE_CALLERS = ("repro.query.store", "repro.query.live")
    _STORE_SEGMENTS = {"store", "_store"}

    def _imports_window(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.query.window" or alias.name.startswith(
                    "repro.query.window."
                ):
                    return alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            if node.module == "repro.query.window":
                return node.module
            if node.module == "repro.query" and any(
                alias.name == "window" for alias in node.names
            ):
                return "repro.query.window"
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        in_query = ctx.in_package(self._IMPORT_SCOPE)
        for node in ast.walk(ctx.tree):
            if not in_query:
                offender = self._imports_window(node)
                if offender is not None:
                    yield self.emit(
                        ctx,
                        node,
                        f"import of {offender} outside repro.query; the "
                        "window columns are an internal accelerator "
                        "structure — query through QueryEngine instead",
                    )
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            method = node.func.attr
            if method in self._INDEX_MUTATORS and not ctx.is_module(
                *self._INDEX_CALLERS
            ):
                receiver = dotted_name(node.func.value) or "<expr>"
                yield self.emit(
                    ctx,
                    node,
                    f"{receiver}.{method}() mutates window columns outside "
                    "repro.query.store; route mutations through "
                    "LabelStore.insert_row/delete_subtree",
                )
            elif method in self._STORE_MUTATORS and not ctx.is_module(
                *self._STORE_CALLERS
            ):
                receiver = dotted_name(node.func.value)
                if receiver is None:
                    continue
                segments = receiver.split(".")
                if any(segment in self._STORE_SEGMENTS for segment in segments):
                    yield self.emit(
                        ctx,
                        node,
                        f"{receiver}.{method}() patches store rows outside "
                        "repro.query.{store,live}; mutate through "
                        "LiveCollection so columns stay consistent",
                    )


@register
class ThreadingContainmentRule(Rule):
    """R12 — threading primitives stay in the replication layer."""

    id = "R12"
    title = "threading primitives outside the replication layer"
    severity = Severity.ERROR
    rationale = (
        "The concurrency story is single-writer / many-readers over "
        "immutable published versions: repro.replica owns every thread "
        "(tailers, ship servers, reader pools) and repro.query.live owns "
        "the one publication lock.  A thread or lock anywhere else would "
        "create a second, unreviewed synchronization discipline — and the "
        "paper-core layers must stay deterministic and thread-free."
    )

    _ALLOWED_PACKAGES = ("replica",)
    _ALLOWED_MODULES = ("repro.query.live",)
    _BANNED_ROOTS = {"threading", "_thread", "concurrent"}

    def _offending(self, module: str) -> Optional[str]:
        root = module.split(".")[0]
        return module if root in self._BANNED_ROOTS else None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_package(*self._ALLOWED_PACKAGES) or ctx.is_module(
            *self._ALLOWED_MODULES
        ):
            return
        for node in ast.walk(ctx.tree):
            offenders: List[str] = []
            if isinstance(node, ast.Import):
                offenders = [
                    alias.name
                    for alias in node.names
                    if self._offending(alias.name) is not None
                ]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                if self._offending(node.module) is not None:
                    offenders = [node.module]
            for offender in offenders:
                yield self.emit(
                    ctx,
                    node,
                    f"import of {offender} outside repro.replica / "
                    "repro.query.live; threads and locks are confined to "
                    "the replication layer (single-writer MVCC discipline)",
                )


@register
class ProcessContainmentRule(Rule):
    """R13 — process spawning stays in the sharding layer."""

    id = "R13"
    title = "process spawning outside the sharding layer"
    severity = Severity.ERROR
    rationale = (
        "repro.shard is the one fault-isolation boundary: its supervisor "
        "owns every child process, restart, and kill, so crash recovery "
        "and quarantine accounting stay provable.  A multiprocessing or "
        "subprocess import anywhere else would create worker lifetimes no "
        "supervisor tracks — orphans on crash, unbounded restarts, and a "
        "second unreviewed IPC discipline."
    )

    _ALLOWED_PACKAGES = ("shard",)
    _BANNED_ROOTS = {"multiprocessing", "subprocess"}
    _SPAWN_CALLS = {
        "os.fork",
        "os.forkpty",
        "os.system",
        "os.popen",
        "os.posix_spawn",
        "os.posix_spawnp",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_package(*self._ALLOWED_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            offenders: List[str] = []
            if isinstance(node, ast.Import):
                offenders = [
                    alias.name
                    for alias in node.names
                    if alias.name.split(".")[0] in self._BANNED_ROOTS
                ]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                if node.module.split(".")[0] in self._BANNED_ROOTS:
                    offenders = [node.module]
            for offender in offenders:
                yield self.emit(
                    ctx,
                    node,
                    f"import of {offender} outside repro.shard; worker "
                    "processes are spawned and supervised only by the "
                    "sharding layer (fault-isolation discipline)",
                )
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and (
                    name in self._SPAWN_CALLS
                    or name.startswith("os.spawn")
                    or name.startswith("os.exec")
                ):
                    yield self.emit(
                        ctx,
                        node,
                        f"{name}() spawns a process outside repro.shard; "
                        "route worker lifecycles through ShardSupervisor",
                    )
