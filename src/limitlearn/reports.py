"""Canonical JSON reports.

Byte-for-byte reproducibility is a contract here: two runs with the same
inputs must serialize identically. Hence sorted keys, sorted set contents,
a fixed indent, a trailing newline, and no timestamps or wall-clock numbers
anywhere in a report (work counters are deterministic; clocks are not).

``canonical_json`` is the only converter: in one pass it writes exactly
``json.dumps(..., sort_keys=True, indent=2)`` of the value with enums, sets
and ``as_dict`` objects converted, plus a newline. ``tests/test_reports.py``
keeps that copy-then-dump form as the oracle.
"""

from __future__ import annotations

import json
from enum import Enum
from json.encoder import encode_basestring_ascii

SCHEMA_VERSION = "1"


def canonical_json(obj) -> str:
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out) + "\n"


def _write(obj, nl: str, out: list[str]) -> None:
    """Append obj to out at indent nl, testing types in the oracle's order."""
    if type(obj) is int or obj is None:
        return out.append("null" if obj is None else int.__repr__(obj))
    if isinstance(obj, Enum):
        return _write(obj.value, nl, out)
    if isinstance(obj, (frozenset, set)):
        obj = sorted(obj, key=_order)
    if isinstance(obj, (list, tuple)):
        inner = nl + "  "
        if obj and all(type(x) is int for x in obj):
            out += "[", inner, ("," + inner).join(map(int.__repr__, obj)), nl, "]"
        else:
            sep = "[" + inner
            for x in obj:
                out.append(sep)
                _write(x, inner, out)
                sep = "," + inner
            out.append(nl + "]" if obj else "[]")
    elif isinstance(obj, dict):
        inner = nl + "  "
        named = {str(k): v for k, v in obj.items()}
        sep = "{" + inner
        for k in sorted(named):
            out += sep, encode_basestring_ascii(k), ": "
            _write(named[k], inner, out)
            sep = "," + inner
        out.append(nl + "}" if named else "{}")
    elif hasattr(obj, "as_dict"):
        _write(obj.as_dict(), nl, out)
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


def make_report(
    command: str, params: dict, results: dict, work: dict | None = None
) -> dict:
    """The report of one run, holding the given objects: no copy is made."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {"command": command, "params": params},
        "results": results,
    }
    if work is not None:
        report["work"] = work
    return report
