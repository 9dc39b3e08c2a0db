"""The ``POST /query`` response renderer of the HTTP front end.

Every JSON body is ``json.dumps(payload, indent=2, default=str)``
encoded as UTF-8 — the exact bytes ``repro query --expr`` prints, so the
CLI and the server answer byte-identically.  CPython builds it with the pure-Python encoder:
``json`` uses its C encoder only when ``indent`` is None, so a
full-history answer of a few thousand rows took longer to serialise than
to evaluate.

:func:`render_json` produces the same bytes faster.  The row lists of a
query answer (``matches``, ``history``) are written from one template per
row; every other value — and every row that does not have the exact
shape the template covers — goes through ``json.dumps`` and is indented
into place.  Nesting under ``indent=2`` only prepends spaces to every
line after the first, and JSON strings never contain a raw newline, so
re-indenting a rendered value is a plain ``replace``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import List

#: The two row-list keys of a query payload.
_ROW_LISTS = ("matches", "history")

_MATCH_KEYS = ("slide", "items", "support")
_MATCH_ROW = (
    '    {\n      "slide": %d,\n      "items": [\n        %s\n      ],\n'
    '      "support": %d\n    }'
)
_ITEM_SEP = ",\n        "
_CURVE_KEYS = ("slide", "support")
_CURVE_ROW = '    {\n      "slide": %d,\n      "support": %d\n    }'


def _dumps(value: object, indent: str) -> str:
    """``json.dumps(value, indent=2, default=str)`` nested at ``indent``."""
    return json.dumps(value, indent=2, default=str).replace("\n", "\n" + indent)


def _row(row: object) -> str:
    """One element of a row list, at four spaces (the template's level).

    ``encode_basestring_ascii`` is the encoder ``json.dumps`` applies to
    every string, and it raises ``TypeError`` on a non-string item.  Only
    exact ``int`` fields take the template: ``bool`` is an ``int``
    subclass that ``json`` spells ``true``/``false``.
    """
    if type(row) is dict:
        keys = tuple(row)
        if keys == _MATCH_KEYS:
            slide, items, support = row["slide"], row["items"], row["support"]
            if type(slide) is int and type(support) is int and type(items) is list and items:
                try:
                    listed = _ITEM_SEP.join(map(encode_basestring_ascii, items))
                except TypeError:
                    pass
                else:
                    return _MATCH_ROW % (slide, listed, support)
        elif keys == _CURVE_KEYS:
            slide, support = row["slide"], row["support"]
            if type(slide) is int and type(support) is int:
                return _CURVE_ROW % (slide, support)
    return "    " + _dumps(row, "    ")


def render_json(payload: object) -> bytes:
    """Exactly ``json.dumps(payload, indent=2, default=str).encode("utf-8")``."""
    if type(payload) is not dict or not payload or not all(
        type(key) is str for key in payload
    ):
        return json.dumps(payload, indent=2, default=str).encode("utf-8")
    members: List[str] = []
    for key, value in payload.items():
        if key in _ROW_LISTS and type(value) is list and value:
            body = "[\n" + ",\n".join(map(_row, value)) + "\n  ]"
        else:
            body = _dumps(value, "  ")
        members.append(f"  {encode_basestring_ascii(key)}: {body}")
    return ("{\n" + ",\n".join(members) + "\n}").encode("utf-8")


__all__ = ["render_json"]
