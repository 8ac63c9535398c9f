"""R16 — wire-protocol exhaustiveness: encoder/decoder parity.

The on-disk formats (RPSN snapshots, RPLS label stores, RPWL WAL segments,
varint label codec) each have a hand-written encoder and decoder.  This pass
extracts a *token stream* from both sides and proves they agree at the
version every writer emits (the module's default version).

Both sides speak one idiom, the shared field codec of
:mod:`repro.labeling.codec`, and one table keyed by the called name turns
each field call into its token on either side: ``pack(fmt, ...)`` /
``unpack(fmt)`` give ``fmt``, ``uvarint`` gives ``INT``, ``string(W, ...)``
gives ``STR:W``, a codec's ``write_label``/``read_label`` give ``LABEL``,
and the snapshot's ``_write_tree``/``_read_tree`` give ``TREE`` (its
``_read_legacy_int`` reads a v1/v2 ``INT``).  A local bound to a field
method (``read_int = FieldReader.uvarint if version >= 3 else ...``) reads
as that field wherever it is called.  Anything else — the magic, the CRC
footer ``finish`` writes, raw ``take`` slices — is not a field.

A declared pair the pass cannot check is itself a finding: a writer or
reader that is missing from its module (renamed without updating
``_MODULE_SPECS``), or a writer whose body yields no tokens at all (a write
shape the extractor cannot read).  Two empty streams would otherwise
compare equal and the pair would pass in silence.

Version dispatch in a reader (``if version >= 3: ...``) is resolved
symbolically: the extractor evaluates comparisons of ``version`` against
integer constants (module constants like ``_SUPPORTED_VERSIONS`` resolve
through the symbol table) and walks only the branch live at the write
version; any other condition descends both branches.  The legacy read-only
branches have no writer to agree with; committed legacy files pin them
instead (``tests/fixtures/legacy``).

On top of stream parity the pass checks the WAL v3 opcode tables (every
emitted opcode decodable and vice versa, values unique and non-zero, both
codecs driven by the shared ``_OP_FIELDS`` table), per-module version
tables (default version supported, newest version is the default), and
the label-kind vocabulary shared by ``_kind_of``/``ints_to_label``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set

from ...context import FileContext
from ...engine import ProgramRule, register
from ...findings import Finding

if TYPE_CHECKING:
    from .. import Program

#: Field token per called name; ``{}`` is the call's first argument.
_FIELD_TOKENS = {
    "pack": "{}",
    "unpack": "{}",
    "uvarint": "INT",
    "_read_legacy_int": "INT",
    "string": "STR:{}",
    "write_label": "LABEL",
    "read_label": "LABEL",
    "_write_tree": "TREE",
    "_read_tree": "TREE",
}


class _Unresolvable(Exception):
    """A condition the extractor cannot evaluate for a fixed version."""


def _call_name(call: ast.Call) -> str:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return ""


def _const_str(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


class _Evaluator:
    """Evaluate version-dispatch conditions for one candidate version."""

    def __init__(
        self, version: Optional[int], constants: Dict[str, object]
    ) -> None:
        self.version = version
        self.constants = constants

    def value(self, expr: ast.expr) -> object:
        if isinstance(expr, ast.Constant):
            return expr.value
        if isinstance(expr, ast.Name):
            if expr.id == "version":
                if self.version is None:
                    raise _Unresolvable(expr.id)
                return self.version
            if expr.id in self.constants:
                return self.constants[expr.id]
            raise _Unresolvable(expr.id)
        if isinstance(expr, ast.Tuple):
            return tuple(self.value(elt) for elt in expr.elts)
        raise _Unresolvable(ast.dump(expr))

    def test(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
            return not self.test(expr.operand)
        if isinstance(expr, ast.BoolOp):
            results = [self.test(v) for v in expr.values]
            return all(results) if isinstance(expr.op, ast.And) else any(results)
        if isinstance(expr, ast.Compare) and len(expr.ops) == 1:
            left = self.value(expr.left)
            right = self.value(expr.comparators[0])
            op = expr.ops[0]
            try:
                if isinstance(op, ast.Lt):
                    return bool(left < right)  # type: ignore[operator]
                if isinstance(op, ast.LtE):
                    return bool(left <= right)  # type: ignore[operator]
                if isinstance(op, ast.Gt):
                    return bool(left > right)  # type: ignore[operator]
                if isinstance(op, ast.GtE):
                    return bool(left >= right)  # type: ignore[operator]
                if isinstance(op, ast.Eq):
                    return bool(left == right)
                if isinstance(op, ast.NotEq):
                    return bool(left != right)
                if isinstance(op, ast.In):
                    return left in right  # type: ignore[operator]
                if isinstance(op, ast.NotIn):
                    return left not in right  # type: ignore[operator]
            except TypeError as error:
                raise _Unresolvable(str(error)) from error
        raise _Unresolvable(ast.dump(expr))


class _StreamExtractor:
    """Extract the field-token stream of one encoder or decoder body."""

    def __init__(self, evaluator: _Evaluator) -> None:
        self.evaluator = evaluator
        self.tokens: List[str] = []
        #: Locals bound to a field method, with that method's token.
        self.aliases: Dict[str, str] = {}

    def run(self, node: ast.FunctionDef) -> List[str]:
        for stmt in node.body:
            self._walk(stmt)
        return self.tokens

    def _live(self, node: "ast.If | ast.IfExp") -> Optional[Sequence[ast.AST]]:
        """The branch live at the version, or None when unresolvable."""
        try:
            live = self.evaluator.test(node.test)
        except _Unresolvable:
            return None
        branch = node.body if live else node.orelse
        return branch if isinstance(branch, list) else [branch]

    def _walk(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(node, (ast.If, ast.IfExp)):
            live = self._live(node)
            if live is not None:
                for child in live:
                    self._walk(child)
                return
        if isinstance(node, ast.Assign):
            target, bound = node.targets[0], node.value
            # An IfExp binds its live branch: the method read at the version.
            live = self._live(bound) if isinstance(bound, ast.IfExp) else None
            bound_to = live[0] if live else bound
            field = getattr(bound_to, "attr", getattr(bound_to, "id", None))
            if isinstance(target, ast.Name) and field in _FIELD_TOKENS:
                self.aliases[target.id] = _FIELD_TOKENS[field]
                return
        if isinstance(node, ast.Call):
            name = _call_name(node)
            template = _FIELD_TOKENS.get(name) or (
                self.aliases.get(name) if isinstance(node.func, ast.Name) else None
            )
            if template is not None:
                first = _const_str(node.args[0]) if node.args else None
                self.tokens.append(template.format(first or "?"))
                return
        for child in ast.iter_child_nodes(node):
            self._walk(child)


@dataclass
class _PairSpec:
    writer: str
    reader: str


@dataclass
class _ModuleSpec:
    pairs: List[_PairSpec] = field(default_factory=list)
    supported_const: Optional[str] = None
    default_const: Optional[str] = None


_MODULE_SPECS: Dict[str, _ModuleSpec] = {
    "repro.durable.snapshot": _ModuleSpec(
        pairs=[
            _PairSpec("_encode_snapshot", "_decode_body"),
            _PairSpec("_write_tree", "_read_tree"),
        ],
        supported_const="_SUPPORTED_VERSIONS",
        default_const="_VERSION",
    ),
    "repro.query.persist": _ModuleSpec(
        pairs=[_PairSpec("save_store", "_load_store_checked")],
        supported_const="_SUPPORTED_VERSIONS",
        default_const="_VERSION",
    ),
    "repro.labeling.codec": _ModuleSpec(
        pairs=[_PairSpec("VarintCodec.write_label", "VarintCodec.read_label")],
    ),
    "repro.durable.wal": _ModuleSpec(
        supported_const="SUPPORTED_WAL_VERSIONS",
        default_const="_DEFAULT_VERSION",
    ),
}


def _find_function(
    module_tree: ast.Module, dotted: str
) -> Optional[ast.FunctionDef]:
    parts = dotted.split(".")
    body: Sequence[ast.stmt] = module_tree.body
    for index, part in enumerate(parts):
        found = None
        for stmt in body:
            if index < len(parts) - 1:
                if isinstance(stmt, ast.ClassDef) and stmt.name == part:
                    found = stmt
                    break
            else:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == part:
                    return stmt
        if found is None:
            return None
        body = found.body
    return None


def _find_assign(
    module_tree: ast.Module, name: str
) -> Optional[ast.stmt]:
    for stmt in module_tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == name:
                return stmt
    return None


def _str_keyed_dict(
    module_tree: ast.Module, name: str
) -> Optional[Dict[str, object]]:
    """A module-level dict literal's string keys, values best-effort.

    ``_OP_FIELDS`` maps names to shapes containing ``int``/``str`` type
    objects, which ``ast.literal_eval`` rejects — so the symbol table
    never records it as a constant.  The table checks only need the key
    sets (and, for ``_OPCODES``, the int codes), so read them straight
    off the AST and fall back to ``None`` for unevaluable values.
    """
    stmt = _find_assign(module_tree, name)
    if stmt is None:
        return None
    value = stmt.value if isinstance(stmt, (ast.Assign, ast.AnnAssign)) else None
    if not isinstance(value, ast.Dict):
        return None
    out: Dict[str, object] = {}
    for key, val in zip(value.keys, value.values):
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            try:
                out[key.value] = ast.literal_eval(val)
            except (ValueError, SyntaxError):
                out[key.value] = None
    return out


def _references(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(child, ast.Name) and child.id == name
        for child in ast.walk(node)
    )


@register
class WireParityRule(ProgramRule):
    id = "R16"
    title = "wire-format encoders and decoders must agree per version"
    rationale = (
        "Encode/decode drift between format versions corrupts data silently: "
        "an opcode without a decode branch, a field written in one order and "
        "read in another, or a version the dispatch table misses all turn "
        "into garbage labels on the next recovery."
    )

    def check_program(self, program: "Program") -> Iterator[Finding]:
        for module_name, spec in _MODULE_SPECS.items():
            ctx = program.context_for_module(module_name)
            if ctx is None:
                continue
            info = program.symbols.modules.get(module_name)
            constants = dict(info.constants) if info is not None else {}
            yield from self._check_versions(ctx, spec, constants)
            yield from self._check_pairs(ctx, spec, constants)
            if module_name == "repro.durable.wal":
                yield from self._check_wal_tables(ctx, constants)
            if module_name == "repro.labeling.codec":
                yield from self._check_kind_vocabulary(ctx)

    # -- version tables ------------------------------------------------

    def _check_versions(
        self, ctx: FileContext, spec: _ModuleSpec, constants: Dict[str, object]
    ) -> Iterator[Finding]:
        if spec.supported_const is None or spec.default_const is None:
            return
        supported = constants.get(spec.supported_const)
        default = constants.get(spec.default_const)
        if not isinstance(supported, tuple) or not isinstance(default, int):
            return
        anchor = _find_assign(ctx.tree, spec.default_const)
        line = anchor.lineno if anchor is not None else 1
        if default not in supported:
            yield Finding(
                rule=self.id,
                message=(
                    f"default format version {default} is not in "
                    f"{spec.supported_const} {supported}"
                ),
                path=ctx.rel,
                line=line,
                severity=self.severity,
            )
        elif supported and max(int(v) for v in supported) != default:
            yield Finding(
                rule=self.id,
                message=(
                    f"newest supported version {max(int(v) for v in supported)} "
                    f"is not the default ({spec.default_const} = {default}); "
                    "new files would be written in an old format"
                ),
                path=ctx.rel,
                line=line,
                severity=self.severity,
            )

    # -- token-stream parity -------------------------------------------

    def _check_pairs(
        self, ctx: FileContext, spec: _ModuleSpec, constants: Dict[str, object]
    ) -> Iterator[Finding]:
        version: Optional[int] = None
        if spec.default_const is not None:
            default = constants.get(spec.default_const)
            if isinstance(default, int):
                version = default
        label = f"version {version}" if version is not None else "all versions"
        evaluator = _Evaluator(version, constants)
        for pair in spec.pairs:
            writer = _find_function(ctx.tree, pair.writer)
            reader = _find_function(ctx.tree, pair.reader)
            if writer is None or reader is None:
                missing = [
                    name
                    for name, fn in ((pair.writer, writer), (pair.reader, reader))
                    if fn is None
                ]
                present = writer or reader
                yield Finding(
                    rule=self.id,
                    message=(
                        f"declared wire pair {pair.writer}/{pair.reader} "
                        f"cannot be checked: {' and '.join(missing)} not "
                        f"found in {ctx.module}; rename the pair in R16's "
                        "module specs together with the function"
                    ),
                    path=ctx.rel,
                    line=present.lineno if present is not None else 1,
                    severity=self.severity,
                )
                continue
            wrote = _StreamExtractor(evaluator).run(writer)
            if not wrote:
                yield Finding(
                    rule=self.id,
                    message=(
                        f"{pair.writer} yields no field tokens for {label}: "
                        "R16 cannot read its write shape, so the pair would "
                        "compare equal in silence"
                    ),
                    path=ctx.rel,
                    line=writer.lineno,
                    column=writer.col_offset,
                    severity=self.severity,
                )
                continue
            read = _StreamExtractor(evaluator).run(reader)
            if wrote == read:
                continue
            index = next(
                (i for i, (a, b) in enumerate(zip(wrote, read)) if a != b),
                min(len(wrote), len(read)),
            )
            wrote_at = wrote[index] if index < len(wrote) else "<end>"
            read_at = read[index] if index < len(read) else "<end>"
            yield Finding(
                rule=self.id,
                message=(
                    f"{pair.writer}/{pair.reader} disagree for {label}: "
                    f"field {index + 1} is {wrote_at!r} on the write side "
                    f"but {read_at!r} on the read side "
                    f"(writer emits {len(wrote)} fields, reader consumes "
                    f"{len(read)})"
                ),
                path=ctx.rel,
                line=writer.lineno,
                column=writer.col_offset,
                severity=self.severity,
            )

    # -- WAL opcode tables ---------------------------------------------

    def _check_wal_tables(
        self, ctx: FileContext, constants: Dict[str, object]
    ) -> Iterator[Finding]:
        opcodes = _str_keyed_dict(ctx.tree, "_OPCODES")
        op_fields = _str_keyed_dict(ctx.tree, "_OP_FIELDS")
        if opcodes is None or op_fields is None:
            return
        anchor = _find_assign(ctx.tree, "_OPCODES")
        line = anchor.lineno if anchor is not None else 1
        decodable = set(op_fields) | {"batch"}
        for name in sorted(set(opcodes) - decodable):
            yield Finding(
                rule=self.id,
                message=(
                    f"WAL opcode {name!r} (code {opcodes[name]}) is emitted "
                    "by the v3 encoder but has no _OP_FIELDS entry, so the "
                    "decoder cannot read it"
                ),
                path=ctx.rel,
                line=line,
                severity=self.severity,
            )
        for name in sorted(set(op_fields) - set(opcodes)):
            yield Finding(
                rule=self.id,
                message=(
                    f"WAL field table entry {name!r} has no opcode in "
                    "_OPCODES, so the encoder can never emit it"
                ),
                path=ctx.rel,
                line=line,
                severity=self.severity,
            )
        by_code: Dict[object, List[str]] = {}
        for name, code in opcodes.items():
            by_code.setdefault(code, []).append(str(name))
        for code, names in sorted(by_code.items(), key=lambda kv: str(kv[0])):
            if len(names) > 1:
                yield Finding(
                    rule=self.id,
                    message=(
                        f"WAL opcodes {sorted(names)} share code {code}; "
                        "decode is ambiguous"
                    ),
                    path=ctx.rel,
                    line=line,
                    severity=self.severity,
                )
            if code == 0:
                yield Finding(
                    rule=self.id,
                    message=(
                        f"WAL opcode {names[0]!r} uses code 0, which is "
                        "reserved for the JSON fallback record"
                    ),
                    path=ctx.rel,
                    line=line,
                    severity=self.severity,
                )
        encoder = _find_function(ctx.tree, "_encode_op_v3")
        decoder = _find_function(ctx.tree, "_decode_op_v3")
        if encoder is not None and decoder is not None:
            for fn in (encoder, decoder):
                if not _references(fn, "_OP_FIELDS"):
                    yield Finding(
                        rule=self.id,
                        message=(
                            f"{fn.name} does not read the shared _OP_FIELDS "
                            "table; encoder and decoder field orders can "
                            "drift independently"
                        ),
                        path=ctx.rel,
                        line=fn.lineno,
                        severity=self.severity,
                    )

    # -- label-kind vocabulary -----------------------------------------

    def _check_kind_vocabulary(self, ctx: FileContext) -> Iterator[Finding]:
        kind_of = _find_function(ctx.tree, "_kind_of")
        ints_to_label = _find_function(ctx.tree, "ints_to_label")
        if kind_of is None or ints_to_label is None:
            return
        produced: Set[str] = set()
        for node in ast.walk(kind_of):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant):
                if isinstance(node.value.value, str):
                    produced.add(node.value.value)
        consumed: Set[str] = set()
        for node in ast.walk(ints_to_label):
            if isinstance(node, ast.Compare):
                for comparator in [node.left, *node.comparators]:
                    if isinstance(comparator, ast.Constant) and isinstance(
                        comparator.value, str
                    ):
                        consumed.add(comparator.value)
        for kind in sorted(produced - consumed):
            yield Finding(
                rule=self.id,
                message=(
                    f"label kind {kind!r} is produced by _kind_of but "
                    "ints_to_label has no branch for it"
                ),
                path=ctx.rel,
                line=ints_to_label.lineno,
                severity=self.severity,
            )
        for kind in sorted(consumed - produced):
            yield Finding(
                rule=self.id,
                message=(
                    f"ints_to_label handles label kind {kind!r} that "
                    "_kind_of never produces (dead or misspelled branch)"
                ),
                path=ctx.rel,
                line=ints_to_label.lineno,
                severity=self.severity,
            )
