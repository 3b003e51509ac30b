"""Canonical JSON reports.

Byte-for-byte reproducibility is a contract here: two runs with the same
inputs must serialize identically. Hence sorted keys, sorted set contents,
a fixed indent, a trailing newline, and no timestamps or wall-clock numbers
anywhere in a report (work counters are deterministic; clocks are not).

``canonical_json`` is the only converter: in one pass it writes exactly
``json.dumps(..., sort_keys=True, indent=2)`` of the value with enums, sets
and ``as_dict`` objects converted, plus a newline. ``tests/test_reports.py``
keeps that copy-then-dump form as the oracle. Within one report, a list or
tuple of exact ints is written once per distinct content and indent, and
its repeats append that text; lists holding bools, int subclasses or
IntEnums, and empty lists, are written item by item.
"""

from __future__ import annotations

import json
from enum import Enum
from json.encoder import encode_basestring_ascii

SCHEMA_VERSION = "1"
_int_text = int.__repr__  # the one formatter of exact ints; a test counts its calls


def canonical_json(obj) -> str:
    out: list[str] = []
    _write(obj, "\n", out, {})
    return "".join(out) + "\n"


def _write(obj, nl: str, out: list[str], memo: dict) -> None:
    """Append obj to out at indent nl, testing types in the oracle's order.

    memo maps (inner indent, *ints) to the text of an all-int list already
    written in this report, so repeated int lists are formatted once.
    """
    if type(obj) is int or obj is None:
        return out.append("null" if obj is None else _int_text(obj))
    if isinstance(obj, Enum):
        return _write(obj.value, nl, out, memo)
    if isinstance(obj, (frozenset, set)):
        obj = sorted(obj, key=_order)
    if isinstance(obj, (list, tuple)):
        inner = nl + "  "
        if set(map(type, obj)) == {int}:
            key = (inner, *obj)
            text = memo.get(key)
            if text is None:
                ints = ("," + inner).join(map(_int_text, obj))
                text = memo[key] = "".join(("[", inner, ints, nl, "]"))
            out.append(text)
        else:
            sep = "[" + inner
            for x in obj:
                out.append(sep)
                _write(x, inner, out, memo)
                sep = "," + inner
            out.append(nl + "]" if obj else "[]")
    elif isinstance(obj, dict):
        inner = nl + "  "
        named = {str(k): v for k, v in obj.items()}
        sep = "{" + inner
        for k in sorted(named):
            out += sep, encode_basestring_ascii(k), ": "
            _write(named[k], inner, out, memo)
            sep = "," + inner
        out.append(nl + "}" if named else "{}")
    elif hasattr(obj, "as_dict"):
        _write(obj.as_dict(), nl, out, memo)
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (bool, int, float)):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


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
