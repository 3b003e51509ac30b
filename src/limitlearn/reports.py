"""Canonical JSON reports.

Byte-for-byte reproducibility is a contract here: two runs with the same
inputs must serialize identically. Hence sorted keys, sorted set contents,
a fixed indent, a trailing newline, and no timestamps or wall-clock numbers
anywhere in a report (work counters are deterministic; clocks are not).

The layout is exactly ``json.dumps(to_jsonable(obj), sort_keys=True,
indent=2)`` plus a newline, written in one pass by ``canonical_json``;
``tests/test_reports.py`` keeps that two-step form as the oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii

SCHEMA_VERSION = "1"


def to_jsonable(obj):
    """Coerce package objects into plain JSON-friendly structures."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (frozenset, set)):
        return sorted(to_jsonable(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "as_dict"):
        return to_jsonable(obj.as_dict())
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj) -> str:
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out) + "\n"


def _write(obj, nl: str, out: list[str]) -> None:
    """Append obj to out at indent nl, testing types in to_jsonable's order."""
    if type(obj) is int or obj is None:
        return out.append("null" if obj is None else int.__repr__(obj))
    if isinstance(obj, Enum):
        return _write(obj.value, nl, out)
    if isinstance(obj, (frozenset, set)):
        obj = sorted(map(to_jsonable, obj))
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


@dataclass
class ExperimentConfig:
    command: str
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"command": self.command, "params": self.params}


def make_report(config: ExperimentConfig, results: dict, work: dict | None = None) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": to_jsonable(config),
        "results": to_jsonable(results),
    }
    if work is not None:
        report["work"] = to_jsonable(work)
    return report
