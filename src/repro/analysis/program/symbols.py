"""Project-wide symbol table construction (pass 0, part 1).

Builds :class:`SymbolTable` from a set of :class:`~repro.analysis.context.FileContext`
objects.  The table records, per module:

* import aliases (``import repro.durable.wal as wal`` -> ``wal`` maps to
  ``repro.durable.wal``),
* from-imports (``from .wal import WriteAheadLog`` -> local name maps to the
  defining module plus original name, enabling re-export chasing),
* top-level classes with their methods, declared attribute types, and
  ``# repro: guarded-by(<lock>): fields`` declarations,
* top-level functions.

Everything here is a best-effort approximation over stdlib ``ast``; the
limitations are documented in docs/ANALYSIS.md.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..context import FileContext

_GUARDED_BY = re.compile(
    r"#\s*repro:\s*guarded-by\((?P<lock>\w+)\)\s*:\s*(?P<fields>[A-Za-z0-9_,\s]+)"
)


@dataclass
class FunctionInfo:
    """A function or method definition."""

    name: str
    node: ast.FunctionDef
    lineno: int
    is_method: bool = False
    decorators: Tuple[str, ...] = ()

    @property
    def is_classmethod(self) -> bool:
        return "classmethod" in self.decorators

    @property
    def is_staticmethod(self) -> bool:
        return "staticmethod" in self.decorators


@dataclass
class GuardDecl:
    """A ``# repro: guarded-by(lock): fields`` declaration inside a class."""

    lock: str
    fields: Tuple[str, ...]
    lineno: int


@dataclass
class ClassInfo:
    """A top-level class definition."""

    name: str
    node: ast.ClassDef
    lineno: int
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: maps ``self.<attr>`` names to a best-effort type name (class name or
    #: dotted name) inferred from annotations or constructor calls.
    attr_types: Dict[str, str] = field(default_factory=dict)
    guards: List[GuardDecl] = field(default_factory=list)

    @property
    def guarded_fields(self) -> Dict[str, str]:
        """Map of field name -> lock attribute name."""
        out: Dict[str, str] = {}
        for decl in self.guards:
            for name in decl.fields:
                out[name] = decl.lock
        return out


@dataclass
class ModuleInfo:
    """Symbols defined by one module."""

    module: str
    rel: str
    #: ``import x.y as z`` -> {"z": "x.y"}; ``import x.y`` -> {"x": "x"}
    imports: Dict[str, str] = field(default_factory=dict)
    #: ``from m import a as b`` -> {"b": ("m", "a")}
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)


def _decorator_names(node: ast.FunctionDef) -> Tuple[str, ...]:
    names: List[str] = []
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, ast.Attribute):
            names.append(target.attr)
    return tuple(names)


def _annotation_name(annotation: Optional[ast.expr]) -> Optional[str]:
    """Extract a plain class name from an annotation, unwrapping Optional."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # string annotation: take the last identifier-ish component
        text = annotation.value.strip()
        match = re.search(r"([A-Za-z_][A-Za-z0-9_]*)\s*\]?$", text)
        return match.group(1) if match else None
    if isinstance(annotation, ast.Subscript):
        # Optional[T] / Final[T] -> T; other generics are too fuzzy to chase.
        base = annotation.value
        base_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else None
        )
        if base_name in {"Optional", "Final", "ClassVar"}:
            return _annotation_name(annotation.slice)
    return None


def _call_type_name(value: ast.expr) -> Optional[str]:
    """If ``value`` is ``ClassName(...)`` or ``mod.ClassName(...)``, return the name."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _collect_attr_types(info: ClassInfo) -> None:
    """Infer ``self.<attr>`` types from class-body annotations and __init__."""
    for stmt in info.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = _annotation_name(stmt.annotation)
            if name:
                info.attr_types[stmt.target.id] = name
    init = info.methods.get("__init__")
    if init is None:
        return
    # Parameter annotations let ``self.x = x`` inherit the declared type.
    param_types: Dict[str, str] = {}
    args = init.node.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        name = _annotation_name(arg.annotation)
        if name:
            param_types[arg.arg] = name
    for stmt in ast.walk(init.node):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        attr = target.attr
        if isinstance(stmt, ast.AnnAssign):
            name = _annotation_name(stmt.annotation)
            if name:
                info.attr_types.setdefault(attr, name)
                continue
        if value is None:
            continue
        ctor = _call_type_name(value)
        if ctor:
            info.attr_types.setdefault(attr, ctor)
        elif isinstance(value, ast.Name) and value.id in param_types:
            info.attr_types.setdefault(attr, param_types[value.id])


def _parse_guards(ctx: FileContext) -> List[Tuple[int, GuardDecl]]:
    decls: List[Tuple[int, GuardDecl]] = []
    for lineno, line in enumerate(ctx.source.splitlines(), start=1):
        match = _GUARDED_BY.search(line)
        if not match:
            continue
        fields = tuple(
            part.strip() for part in match.group("fields").split(",") if part.strip()
        )
        if fields:
            decls.append((lineno, GuardDecl(match.group("lock"), fields, lineno)))
    return decls


def _module_from_level(ctx_module: str, level: int, module: Optional[str]) -> str:
    """Resolve a relative import to an absolute dotted module name."""
    if level == 0:
        return module or ""
    parts = ctx_module.split(".")
    # level=1 from inside a module means "this package".
    base = parts[: len(parts) - level]
    if module:
        base = base + module.split(".")
    return ".".join(base)


def module_info_from_context(ctx: FileContext) -> ModuleInfo:
    info = ModuleInfo(module=ctx.module, rel=ctx.rel)
    guard_decls = _parse_guards(ctx)
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    info.imports[alias.asname] = alias.name
                else:
                    info.imports[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(stmt, ast.ImportFrom):
            source = _module_from_level(ctx.module, stmt.level, stmt.module)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.from_imports[local] = (source, alias.name)
        elif isinstance(stmt, ast.FunctionDef):
            info.functions[stmt.name] = FunctionInfo(
                name=stmt.name,
                node=stmt,
                lineno=stmt.lineno,
                decorators=_decorator_names(stmt),
            )
        elif isinstance(stmt, ast.ClassDef):
            cls = ClassInfo(
                name=stmt.name,
                node=stmt,
                lineno=stmt.lineno,
                bases=tuple(
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in stmt.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                ),
            )
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef):
                    cls.methods[item.name] = FunctionInfo(
                        name=item.name,
                        node=item,
                        lineno=item.lineno,
                        is_method=True,
                        decorators=_decorator_names(item),
                    )
            _collect_attr_types(cls)
            end = stmt.end_lineno or stmt.lineno
            for lineno, decl in guard_decls:
                if stmt.lineno <= lineno <= end:
                    cls.guards.append(decl)
            info.classes[stmt.name] = cls
    return info


class SymbolTable:
    """Project-wide symbol table keyed by dotted module name."""

    def __init__(self, contexts: Iterable[FileContext]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.contexts: Dict[str, FileContext] = {}
        for ctx in contexts:
            info = module_info_from_context(ctx)
            self.modules[ctx.module] = info
            self.contexts[ctx.module] = ctx

    def module(self, name: str) -> Optional[ModuleInfo]:
        """The :class:`ModuleInfo` for dotted module ``name``, if analyzed."""
        return self.modules.get(name)

    def resolve_function(
        self, module: str, name: str, _depth: int = 0
    ) -> Optional[Tuple[str, FunctionInfo]]:
        """Resolve ``name`` in ``module`` to its defining (module, function).

        Follows from-import re-export chains up to a small depth.
        """
        if _depth > 8:
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.functions:
            return module, info.functions[name]
        if name in info.from_imports:
            source, orig = info.from_imports[name]
            return self.resolve_function(source, orig, _depth + 1)
        return None

    def resolve_class(
        self, module: str, name: str, _depth: int = 0
    ) -> Optional[Tuple[str, ClassInfo]]:
        """Resolve ``name`` in ``module`` to its defining (module, class)."""
        if _depth > 8:
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.classes:
            return module, info.classes[name]
        if name in info.from_imports:
            source, orig = info.from_imports[name]
            return self.resolve_class(source, orig, _depth + 1)
        return None

    def find_class(self, name: str) -> Optional[Tuple[str, ClassInfo]]:
        """Find a class by bare name anywhere in the project (first match)."""
        for module in sorted(self.modules):
            info = self.modules[module]
            if name in info.classes:
                return module, info.classes[name]
        return None

    def stats(self) -> Dict[str, int]:
        """Symbol counts (modules, classes, functions incl. methods)."""
        return {
            "modules": len(self.modules),
            "classes": sum(len(m.classes) for m in self.modules.values()),
            "functions": sum(
                len(m.functions) + sum(len(c.methods) for c in m.classes.values())
                for m in self.modules.values()
            ),
        }
