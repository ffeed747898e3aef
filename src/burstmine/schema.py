"""One checker for the shape of every JSON document burstmine reads.

A shape is a leaf kind, a ``(description, predicate)`` pair, or a ``ListOf``,
``MapOf`` or ``Record`` of shapes.  Each reader checks a parsed record once
against its format's shape table, then builds values with no type tests.
``records`` splits every line-based file (trace, burst, matrix) into records;
``TextTable`` encodes each distinct value of one write once.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

ANY = ("any JSON value", lambda v: True)
STRING = ("a string", lambda v: isinstance(v, str))
BOOL = ("a bool", lambda v: isinstance(v, bool))
INTEGER = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
NUMBER = ("a number", lambda v: isinstance(v, (int, float))
          and not isinstance(v, bool) and math.isfinite(v))
TARGETS = ("a string or a list of strings", lambda v: isinstance(v, str) or (
    isinstance(v, list) and all(map(STRING[1], v))))
# A probe's value, one letter per code: T=0, F=1, U=2.  A cell test is
# membership of this tuple, so "TF" and "" are not cells.
LETTERS = ("T", "F", "U")
TFU = ("a T/F/U string", lambda v: isinstance(v, str)
       and not v.strip("".join(LETTERS)))
SCALAR = ("a JSON scalar", lambda v: not isinstance(v, (list, dict)))
LIST = ("a list", lambda v: isinstance(v, list))

# A list, or a JSON object, of ``item``s; with a ``name``, the member at 3 or
# 'k' is called ``name 3`` or ``name 'k'`` and stands for the key leading to it.
ListOf = namedtuple("ListOf", "item name", defaults=("",))
MapOf = namedtuple("MapOf", "item name", defaults=("",))
# A JSON object with ``required`` and ``optional`` keys; other keys are
# ignored, or rejected when ``closed``.  A ``name`` stands for its key.
Record = namedtuple("Record", "required optional name closed",
                    defaults=({}, "", False))


def check(value, shape, what: str, error=ValueError):
    """``value`` if it has ``shape``, else raise ``error(message)`` naming the
    first place it departs: ``model transition 1 'traces' must be a list``."""
    found = _mismatch(value, shape)
    if found is None:
        return value
    message = " ".join([what, *reversed(found[0]), found[1]])
    # Adjacent keys join into one path: 'pre_state.objects'.
    raise error(message.replace("' '", ".")) from None


def _mismatch(value, shape):
    """``None``, or the steps to the first mismatch, innermost first, and
    what is wrong there.  A step is a quoted key or a member's name."""
    kind = type(shape)
    if kind is tuple:
        return None if shape[1](value) else ([], f"must be {shape[0]}")
    if not isinstance(value, list if kind is ListOf else dict):
        return [], "must be a list" if kind is ListOf else "must be a JSON object"
    if kind is Record:
        found = _record_mismatch(value, shape)
        if found and shape.name:
            found[0].append(shape.name)
        return found
    for key, item in enumerate(value) if kind is ListOf else value.items():
        if found := _mismatch(item, shape.item):
            found[0].append(f"{shape.name} {key!r}" if shape.name else
                            f"[{key}]" if kind is ListOf else f"'{key}'")
            return found
    return None


def _record_mismatch(value: dict, shape):
    for key, sub in (*shape.required.items(), *shape.optional.items()):
        if key not in value:
            if key in shape.required:
                return [], f"is missing key {key!r}"
        elif found := _mismatch(value[key], sub):
            # A named member stands for its key: "transition 1", not
            # "'transitions' transition 1".
            if not (found[0] and getattr(sub, "name", "")):
                found[0].append(f"'{key}'")
            return found
    unknown = [k for k in value if k not in shape.required
               and k not in shape.optional] if shape.closed else ()
    return ([f"'{unknown[0]}'"], "is unknown") if unknown else None


def records(text: str) -> list[tuple[int, str]]:
    """The non-blank records with their line numbers.  Records end at "\\n"
    or "\\r\\n" only: JSON strings may hold U+2028 and U+0085 raw.  A blank
    line holds only JSON whitespace; any other goes to the reader."""
    return [(lineno, line.removesuffix("\r")) for lineno, line in
            enumerate(text.split("\n"), start=1) if line.strip(" \t\r")]


class TextTable(dict):
    """One write's ``json.dumps`` text of each distinct value's ``to_dict()``,
    encoded once: on one line or, given a ``depth``, at ``indent=2`` as an
    item that many levels deep in a document written at ``indent=2``."""

    def __init__(self, depth: int | None = None) -> None:
        super().__init__()
        self.indent = None if depth is None else 2
        self.pad = "\n" + "  " * (depth or 0)

    def __missing__(self, value) -> str:
        text = self[value] = json.dumps(value.to_dict(), indent=self.indent
                                        ).replace("\n", self.pad)
        return text
