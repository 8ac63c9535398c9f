"""Whole-program analysis: symbol table, call graph, and interprocedural passes.

:class:`Program` bundles pass-0 artefacts (symbol table + call graph) built
once per lint run from all file contexts.  Program rules (R14, R15, R17, see
``repro.analysis.program.passes``) subclass :class:`~repro.analysis.engine.ProgramRule`
and receive the :class:`Program` instead of a single file context.

See docs/ANALYSIS.md ("Whole-program passes") for the architecture and the
approximations each pass makes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..context import FileContext
from .callgraph import CallGraph, build_callgraph
from .symbols import ClassInfo, ModuleInfo, SymbolTable

__all__ = [
    "Program",
    "SymbolTable",
    "CallGraph",
    "ModuleInfo",
    "ClassInfo",
]


class Program:
    """Pass-0 view of the whole project under analysis."""

    def __init__(self, contexts: Iterable[FileContext]) -> None:
        self.contexts: List[FileContext] = list(contexts)
        self.symbols = SymbolTable(self.contexts)
        self.callgraph = build_callgraph(self.symbols)
        self._by_module: Dict[str, FileContext] = {
            ctx.module: ctx for ctx in self.contexts
        }

    def context_for_module(self, module: str) -> Optional[FileContext]:
        """The file context defining dotted module ``module``, if present."""
        return self._by_module.get(module)

    def stats(self) -> Dict[str, int]:
        """Pass-0 sizes: files, symbols, and call-graph counts."""
        out = {"files": len(self.contexts)}
        out.update(self.symbols.stats())
        graph = self.callgraph.stats()
        out["call_edges"] = graph["edges"]
        out["call_nodes"] = graph["nodes"]
        out["unresolved_calls"] = graph["unresolved"]
        return out
