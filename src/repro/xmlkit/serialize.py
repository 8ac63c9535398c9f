"""Serialize element trees back to XML text."""

from __future__ import annotations

from typing import List, Tuple

from repro.xmlkit.tree import XmlElement

__all__ = ["serialize", "escape_text", "escape_attribute"]


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return escape_text(value).replace('"', "&quot;")


def _open_tag(node: XmlElement, self_closing: bool) -> str:
    parts = [node.tag]
    parts.extend(
        f'{name}="{escape_attribute(value)}"' for name, value in node.attributes.items()
    )
    slash = "/" if self_closing else ""
    return f"<{' '.join(parts)}{slash}>"


def serialize(node: XmlElement, indent: int | None = None) -> str:
    """Serialize the subtree rooted at ``node`` to XML text.

    With ``indent=None`` (default) the output is compact, a lossless
    round-trip partner for :func:`repro.xmlkit.parser.parse_document` when
    the document has no mixed content.  With an integer ``indent``, children
    are pretty-printed ``indent`` spaces per level (text-bearing elements are
    kept on one line so their text survives a re-parse).

    The walk is iterative, so documents deeper than Python's recursion
    limit serialize too.
    """
    newline = "" if indent is None else "\n"
    chunks: List[str] = []
    # (element, level, closing): a closing entry emits the end tag once
    # every child above it on the stack has been written.
    stack: List[Tuple[XmlElement, int, bool]] = [(node, 0, False)]
    while stack:
        current, level, closing = stack.pop()
        pad = "" if indent is None else " " * (indent * level)
        if closing:
            chunks.append(f"{pad}</{current.tag}>{newline}")
        elif not current.children and not current.text:
            chunks.append(f"{pad}{_open_tag(current, self_closing=True)}{newline}")
        elif not current.children:
            chunks.append(
                f"{pad}{_open_tag(current, False)}{escape_text(current.text)}"
                f"</{current.tag}>{newline}"
            )
        else:
            chunks.append(f"{pad}{_open_tag(current, False)}")
            if current.text:
                chunks.append(escape_text(current.text))
            chunks.append(newline)
            stack.append((current, level, True))
            stack.extend(
                (child, level + 1, False) for child in reversed(current.children)
            )
    return "".join(chunks)
