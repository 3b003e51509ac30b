"""Command line front end.

Subcommands: construct (run one stage table), learn (trace a learner on a
text), check (trace plus both finite-horizon verdicts), family (inspect one
family member's enumeration), suite (the nine-part self-check battery).
Reports are canonical JSON on stdout or --out; anything timing-related goes
to stderr so reports stay byte-reproducible.

PARAMS declares every parameter once. A value comes from its flag, else the
--config JSON object, else its default, and is checked however it arrived.

Exit codes: 0 success; 1 bad input (a parameter, a --config file or a --text
file), a verdict came back FAIL_WITNESSED (learn/check), a suite criterion
failed, or a runtime error; 2 usage errors (argparse).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from functools import partial
from typing import Callable, NamedTuple

from .criteria import (
    Status,
    Text,
    _check_ij,
    canonical_text,
    check_txtfex,
    check_txtfext,
    run_learner,
)
from .encodings import _check_natural
from .reports import canonical_json, make_report
from .suite import run_suite
from .workspace import SAMPLE_LEARNERS, Workspace

ALL_LEARNERS = SAMPLE_LEARNERS + ("gap_parity",)
# Work budget of --horizon. Every command is linear in the horizon but two:
# a check reads each stage table its trace met up to the horizon, and
# construct --stage-bound has its own budget (construction.MAX_CODE_LENGTHS).
# At the budget the slowest, check --learner fresh_each_step --adversary
# constant_zero --i '*' --j '*' --horizon 500000, took 8.0 s by its elapsed
# line (9.1 s to exit) and 514 MiB peak RSS on a 2-core machine, inside a
# 2 GB RLIMIT_AS: one run, Python 3.11, ru_maxrss of a child process.
MAX_HORIZON = 500_000
# Work budget of a check, in tables x horizon: a gap_parity trace on a text
# whose least element keeps falling meets one diagonal table per value. At
# the budget, two tables read to MAX_HORIZON took 7.3 s by the elapsed line
# and 0.6 GiB with the slower adversary, constant_zero (length_parity: 7.0 s).
# 1000 tables met to horizon 1000 (constant_zero, text [999, ..., 0]) took
# 0.55-0.59 s and 55 MiB at the default bound, since a read bounded at or
# below a table's e runs no table, and 3.9-5.5 s and 249 MiB with --bound
# 1000, which runs every table (BENCH_bounded_read.json).
MAX_TABLE_STAGES = 2 * MAX_HORIZON
# Byte budget of a --text file, checked before it is read: the densest file,
# "[0,0,...]", peaks at 288 MiB RSS at the budget, inside a 2 GB ulimit -v.
MAX_TEXT_BYTES = 16 * 2**20
# Items per piece of a --text file's digest (_text_sha256).
_DIGEST_ITEMS = 2**16


def _check_horizon_budget(value, name: str) -> None:
    _check_natural(value, name)
    if value > MAX_HORIZON:
        raise ValueError(f"{name} {value} is over the budget of {MAX_HORIZON} stages")


def _check_path(value, name: str) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a file path, got {value!r}")


def _check_out(value, name: str) -> None:
    """A report path: checked before the run, so a bad one costs no work."""
    _check_path(value, name)
    if os.path.isdir(value) or not os.path.isdir(os.path.dirname(value) or "."):
        raise ValueError(
            f"--{name} {value!r} must name a file in an existing directory"
        )


class Param(NamedTuple):
    """One parameter: a checker (or a tuple of allowed values) and a default."""

    check: Callable[[object, str], None] | tuple
    default: object = None
    required: bool = False
    help: str | None = None


_BASE_E = Param(_check_natural, 0)
_HORIZON = Param(_check_horizon_budget, 200)
_OUT = Param(_check_out, help="write the report here instead of stdout")
_MEMBER = {
    "base_e": _BASE_E,
    "member_n": Param(_check_natural, 0),
    "variant": Param(("plain", "hat"), "plain"),
}
_LEARN = {
    "learner": Param(ALL_LEARNERS, required=True),
    "adversary": Param(SAMPLE_LEARNERS),
    **_MEMBER,
    "horizon": _HORIZON,
    "settle": Param(_check_natural),
    "bound": Param(_check_natural, 64),
    "text": Param(_check_path, help="JSON file holding a list of naturals"),
    "i": Param(_check_ij, help="natural number or *"),
    "j": Param(_check_ij, help="natural number or *"),
    "out": _OUT,
}
PARAMS: dict[str, dict[str, Param]] = {
    "construct": {
        "learner": Param(SAMPLE_LEARNERS, required=True),
        "base_e": _BASE_E,
        "horizon": _HORIZON,
        "bound": Param(_check_natural, 50),
        "stage_bound": Param(_check_natural),
        "out": _OUT,
    },
    "learn": _LEARN,
    "check": _LEARN,
    "family": {
        "adversary": Param(SAMPLE_LEARNERS, required=True),
        **_MEMBER,
        "horizon": _HORIZON,
        "bound": Param(_check_natural, 50),
        "out": _OUT,
    },
    "suite": {"seed": Param(_check_natural, 0), "out": _OUT},
}


def _star_or_int(raw: str):
    """Flag text of --i/--j: numbers become ints, the rest is left to _check_ij."""
    try:
        return int(raw)
    except ValueError:
        return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitlearn",
        description="finite-horizon experiments in vacillatory learning",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    types = {_check_natural: int, _check_horizon_budget: int, _check_ij: _star_or_int}
    for cmd, params in PARAMS.items():
        p = sub.add_parser(cmd, help=COMMANDS[cmd][0])
        for name, param in params.items():
            kwargs = {"required": param.required, "help": param.help}
            if isinstance(param.check, tuple):
                kwargs["choices"] = param.check
            elif param.check in types:
                kwargs["type"] = types[param.check]
            p.add_argument("--" + name.replace("_", "-"), **kwargs)
        p.add_argument("--config", help="JSON object of parameter values; flags win")
    return parser


def _over_budget(flag: str, path: str, size: int | str) -> ValueError:
    budget = f"over the budget of {MAX_TEXT_BYTES} bytes"
    return ValueError(f"{flag} file {path} has {size} bytes, {budget}")


def _read_json(path: str, flag: str):
    """The JSON value held in a file, read with one byte over the budget to spare
    (a device or a FIFO has size 0); nesting too deep to decode is a ValueError."""
    with open(path, "rb") as fh:
        if len(blob := fh.read(MAX_TEXT_BYTES + 1)) > MAX_TEXT_BYTES:
            raise _over_budget(flag, path, f"at least {len(blob)}")
    try:
        return json.loads(blob.decode("utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to decode") from None


def resolve(args: argparse.Namespace) -> dict:
    """Each parameter of args.cmd from its flag, else --config, else its default.

    Every value is checked; a config key must name a parameter that has no
    required flag.
    """
    params = PARAMS[args.cmd]
    cfg = {}
    if args.config is not None:
        _check_path(args.config, "config")
        cfg = _read_json(args.config, "--config")
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        allowed = [name for name, param in params.items() if not param.required]
        unknown = sorted(set(cfg) - set(allowed))
        if unknown:
            raise ValueError(
                f"{args.cmd} takes no config key {unknown[0]!r}; "
                f"allowed keys: {', '.join(allowed)}"
            )
    values = {}
    for name, param in params.items():
        value = getattr(args, name)
        if value is None:
            value = cfg.get(name, param.default)
        values[name] = value
        if value is None and param.default is None:
            continue
        if not isinstance(param.check, tuple):
            param.check(value, name)
        elif value not in param.check:
            raise ValueError(
                f"{name} must be one of {', '.join(param.check)}, got {value!r}"
            )
    return values


def _cmd_construct(p: dict) -> tuple[dict, int]:
    ws = Workspace()
    c = ws.construction(p["learner"], p["base_e"])
    c.run_to(p["horizon"])
    results = {
        "stage": c.stage,
        "rows": c.rows_snapshot(limit=12),
        "markers_even": c.a_values(),
        "markers_odd": c.b_values(),
        "prefix_plain": c.r_prefix(p["bound"], "plain"),
        "prefix_hat": c.r_prefix(p["bound"], "hat"),
        "chain_ok": c.chain_ok(),
    }
    if p["stage_bound"] is not None:
        results["separation_level"] = c.separation_level(p["stage_bound"])
    work = dict(c.counters, registry_queries=ws.registry.query_count)
    return make_report("construct", p, results, work), 0


def _text_sha256(items: list) -> str:
    """sha256 of canonical_json(items), hashed _DIGEST_ITEMS items at a time.

    A list's canonical JSON is "[", its items one per indented line joined
    by ",", then the closing line, and a chunk's is written alike, so the
    text between a chunk's brackets is its share of the whole: no string of
    the whole text is ever built.
    """
    h = hashlib.sha256()
    sep = b"["
    for i in range(0, len(items), _DIGEST_ITEMS):
        chunk = canonical_json(items[i : i + _DIGEST_ITEMS])
        h.update(sep + chunk[1:-3].encode())
        sep = b","
    h.update(b"\n]\n" if items else b"[]\n")
    return h.hexdigest()


def _build_text(p: dict, ws: Workspace) -> tuple[Text, dict]:
    """The input text, and what a report records of a --text file beyond its
    path: the item count and the sha256 of the items' canonical JSON."""
    path, horizon = p["text"], p["horizon"]
    if path:
        if (size := os.stat(path).st_size) > MAX_TEXT_BYTES:
            raise _over_budget("--text", path, size)
        items = _read_json(path, "--text")
        if not isinstance(items, list):
            raise ValueError("--text file must hold a JSON list of naturals")
        for x in items:
            _check_natural(x, "--text item")
        source = {"text_items": len(items), "text_sha256": _text_sha256(items)}
        return Text(items=tuple(items), label=f"file:{path}"), source
    if p["adversary"] is None:
        raise ValueError("provide --text or --adversary to define the input text")
    code = ws.family_member_code(
        p["adversary"], p["base_e"], p["member_n"], p["variant"]
    )
    return canonical_text(ws.registry, code, horizon), {}


def _cmd_learn(command: str, p: dict) -> tuple[dict, int]:
    i, j = p["i"], p["j"]
    if command == "check" and (i is None or j is None):
        raise ValueError("check requires both --i and --j")
    if (i is None) != (j is None):
        raise ValueError("--i and --j must be given together")
    ws = Workspace()
    if p["learner"] == "gap_parity":
        if p["adversary"] is None:
            raise ValueError("gap_parity needs --adversary to aim at")
        learner = ws.gap_parity_learner(p["adversary"])
    else:
        learner = ws.sample_learner(p["learner"])
    text, source = _build_text(p, ws)
    trace = run_learner(learner, text, p["horizon"])
    results: dict = {
        "text_label": text.label,
        "text_head": list(text.items[:20]),
        "outputs_head": list(trace.outputs[:20]),
        "outputs_tail": list(trace.outputs[-10:]),
        "distinct_outputs": sorted(set(trace.outputs)),
        **source,
    }
    failed = False
    if i is not None:
        tables = len(ws.counters()["tables"])
        if tables * p["horizon"] > MAX_TABLE_STAGES:
            raise ValueError(
                f"the checkers would read {tables} stage tables to horizon"
                f" {p['horizon']}, over the budget of {MAX_TABLE_STAGES} table stages"
            )
        window = {"settle": p["settle"], "bound": p["bound"]}
        fex = check_txtfex(trace, ws.registry, i, j, **window)
        fext = check_txtfext(trace, ws.registry, i, j, **window)
        results["vacillation"] = fex
        results["strict"] = fext
        failed = Status.FAIL_WITNESSED in (fex.status, fext.status)
    work = {"registry_queries": ws.registry.query_count}
    return make_report(command, p, results, work), 1 if failed else 0


def _cmd_family(p: dict) -> tuple[dict, int]:
    ws = Workspace()
    adversary, e, variant = p["adversary"], p["base_e"], p["variant"]
    code = ws.family_member_code(adversary, e, p["member_n"], variant)
    results = {
        "member_code": code,
        "diagonal_code": ws.diagonal_code(adversary, e, variant),
        "elements_below_bound": sorted(
            ws.registry.below_each((code,), p["bound"], p["horizon"])[0]
        ),
    }
    work = {"registry_queries": ws.registry.query_count}
    return make_report("family", p, results, work), 0


def _cmd_suite(p: dict) -> tuple[dict, int]:
    report, all_pass = run_suite(p["seed"])
    for entry in report["results"]["criteria"]:
        print(
            f"criterion {entry['criterion']} {entry['name']}: {entry['status']}",
            file=sys.stderr,
        )
    return report, 0 if all_pass else 1


COMMANDS = {
    "construct": ("run one diagonal stage table", _cmd_construct),
    "learn": ("trace a learner on a text", partial(_cmd_learn, "learn")),
    "check": ("trace a learner on a text", partial(_cmd_learn, "check")),
    "family": ("inspect one constructed family member", _cmd_family),
    "suite": ("run the nine-part self-check battery", _cmd_suite),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        p = resolve(args)
        out = p.pop("out")  # the one parameter a report does not record
        report, code = COMMANDS[args.cmd][1](p)
        payload = canonical_json(report)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    print(f"# elapsed {time.monotonic() - started:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
