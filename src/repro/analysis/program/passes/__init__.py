"""Interprocedural passes R14, R15 and R17 (imported for registration side effects)."""

from __future__ import annotations

from . import escape, locks, walorder  # noqa: F401

__all__ = ["locks", "escape", "walorder"]
