"""Text tokenization shared by the parser, the inverted index, and scoring.

The tokenizer is deliberately simple and deterministic: terms are maximal
runs of ASCII letters and digits, lowercased.  Everything else (punctuation,
whitespace, unicode symbols) is a separator.  Both the index build and the
query side must use the same function, so it lives here in one place.
"""

from __future__ import annotations

import re
from typing import List, Mapping, Tuple

_TERM_RE = re.compile(r"[A-Za-z0-9]+")


def tokenize_text(text: str) -> List[str]:
    """Split ``text`` into lowercase terms.

    >>> tokenize_text("Search Engine basics, 2nd ed.")
    ['search', 'engine', 'basics', '2nd', 'ed']
    """
    return [m.group(0).lower() for m in _TERM_RE.finditer(text)]


def tokenize_with_spans(text: str) -> List[Tuple[str, int, int]]:
    """Like :func:`tokenize_text` but returns ``(term, start, end)`` character
    spans, used by tests that check offset bookkeeping."""
    return [(m.group(0).lower(), m.start(), m.end())
            for m in _TERM_RE.finditer(text)]


def tokenize_phrase(phrase: str) -> List[str]:
    """Tokenize a query phrase.  Identical to document tokenization so that
    a phrase matches itself when planted in a document."""
    return tokenize_text(phrase)


def escape_text(text: str) -> str:
    """Escape text content for XML serialization (``&`` first, so the
    entities the later replacements insert are not escaped again)."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def escape_attr(value: str) -> str:
    """Escape an attribute value for XML serialization (double-quoted)."""
    value = escape_text(value)
    if '"' in value:
        value = value.replace('"', "&quot;")
    return value


def attr_string(attrs: Mapping[str, object]) -> str:
    """Attributes as written after a tag name: `` k="v"`` each, in
    order, every value as ``str(v)`` escaped by :func:`escape_attr`."""
    return "".join(f' {k}="{escape_attr(str(v))}"' for k, v in attrs.items())
