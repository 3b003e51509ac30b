"""Canonical JSON reports.

Byte-for-byte reproducibility is a contract here: two runs with the same
inputs must serialize identically. Hence sorted keys, sorted set contents,
a fixed indent, a trailing newline, and no timestamps or wall-clock numbers
anywhere in a report (work counters are deterministic; clocks are not).

``canonical_json`` is the only converter: in one pass it writes exactly
``json.dumps(..., sort_keys=True, indent=2)`` of the value with enums, sets
and ``as_dict`` objects converted, plus a newline. ``tests/test_reports.py``
keeps that copy-then-dump form as the oracle. The writer tests the exact
type first: an ``int``, ``str``, ``bool`` or ``None`` is written at once,
also as an item or a value, and an exact ``dict``, ``list`` or ``tuple``
goes to the one dict or list body. A dict whose keys are all exact strs is
sorted as it is; other keys go through ``str`` first. Everything else (enums,
sets, subclasses, ``as_dict`` objects, floats) falls through to the oracle's
isinstance chain, in the oracle's order, which unwraps it into one of those
types or writes it; a set is sorted by ``_order``. Within one report, a
list or tuple of exact ints is written once per distinct content and
indent, and its repeats append that text: it is looked up by (indent,
length, first, last) and then compared whole.
Lists holding bools, int subclasses or IntEnums, and empty lists, are
written item by item.
"""

from __future__ import annotations

import json
from enum import Enum
from json.encoder import encode_basestring_ascii

SCHEMA_VERSION = "1"
# formats exact ints; the int-list body reads it by this name, so a test can
# count its calls there, while a plain int uses the copy held in _SCALARS
_int_text = int.__repr__
_literal = {None: "null", True: "true", False: "false"}.__getitem__
_SCALARS = {int: _int_text, str: encode_basestring_ascii, bool: _literal, type(None): _literal}


def canonical_json(obj) -> str:
    out: list[str] = []
    _write(obj, "\n", out, {})
    return "".join(out) + "\n"


def _write(obj, nl: str, out: list[str], memo: dict) -> None:
    """Append obj to out at indent nl.

    memo maps (inner indent, length, first, last) of an exact-int list to
    the (list, text) pairs written so far in this report under that key.
    """
    while (t := type(obj)) is not dict and t is not list and t is not tuple:
        if (scalar := _SCALARS.get(t)) is not None:
            return out.append(scalar(obj))
        if isinstance(obj, Enum):
            obj = obj.value
        elif isinstance(obj, (frozenset, set)):
            obj = sorted(obj, key=_order)
        elif isinstance(obj, (list, tuple)):
            obj = list(obj)
        elif isinstance(obj, dict):
            obj = dict(obj.items())
        elif hasattr(obj, "as_dict"):
            obj = obj.as_dict()
        elif isinstance(obj, str):
            return out.append(encode_basestring_ascii(obj))
        elif isinstance(obj, (int, float)):
            return out.append(json.dumps(obj))
        else:
            raise TypeError(f"cannot serialize {t.__name__} into a report")
    inner = nl + "  "
    if t is dict:
        if set(map(type, obj)) != {str}:
            obj = {str(k): v for k, v in obj.items()}
        sep = "{" + inner
        for k in sorted(obj):
            v = obj[k]
            out += sep, encode_basestring_ascii(k), ": "
            if (scalar := _SCALARS.get(type(v))) is None:
                _write(v, inner, out, memo)
            else:
                out.append(scalar(v))
            sep = "," + inner
        return out.append(nl + "}" if obj else "{}")
    if obj and type(obj[0]) is int and set(map(type, obj)) == {int}:
        seen = memo.setdefault((inner, len(obj), obj[0], obj[-1]), [])
        for other, text in seen:
            if other is obj or (
                other == obj if type(other) is t else tuple(other) == tuple(obj)
            ):
                return out.append(text)
        text = "".join(("[", inner, ("," + inner).join(map(_int_text, obj)), nl, "]"))
        seen.append((obj, text))
        return out.append(text)
    sep = "[" + inner
    for x in obj:
        if (scalar := _SCALARS.get(type(x))) is None:
            out.append(sep)
            _write(x, inner, out, memo)
        else:
            out += sep, scalar(x)
        sep = "," + inner
    out.append(nl + "]" if obj else "[]")


def _order(x):
    """What a set member sorts by: its report value, as far as < can tell.

    A dict never compares by <, so an as_dict object stops at as_dict().
    """
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, frozenset):
        return sorted(map(_order, x))
    if isinstance(x, tuple):
        return list(map(_order, x))
    if hasattr(x, "as_dict"):
        return x.as_dict()
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    raise TypeError(f"cannot serialize {type(x).__name__} into a report")


def make_report(command: str, params: dict, results: dict, work: dict) -> dict:
    """The report of one run, holding the given objects: no copy is made."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {"command": command, "params": params},
        "results": results,
        "work": work,
    }
