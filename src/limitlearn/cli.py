"""Command line front end.

Subcommands: construct (run one stage table), learn (trace a learner on a
text), check (trace plus both finite-horizon verdicts), family (inspect one
family member's enumeration), suite (the nine-part self-check battery).
Reports are canonical JSON on stdout or --out; anything timing-related goes
to stderr so reports stay byte-reproducible.

Exit codes: 0 success; 1 a verdict came back FAIL_WITNESSED (learn/check), a
suite criterion failed, or a runtime error; 2 usage errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .criteria import (
    Status,
    Text,
    canonical_text,
    check_txtfex,
    check_txtfext,
    run_learner,
)
from .encodings import _check_natural
from .reports import ExperimentConfig, canonical_json, make_report
from .suite import run_suite
from .workspace import SAMPLE_LEARNERS, Workspace

PROFILED = tuple(SAMPLE_LEARNERS)
ALL_LEARNERS = PROFILED + ("gap_parity",)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with default parameter values")
    p.add_argument("--out", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitlearn",
        description="finite-horizon experiments in vacillatory learning",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("construct", help="run one diagonal stage table")
    p.add_argument("--learner", choices=PROFILED, required=True)
    p.add_argument("--base-e", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--method", choices=("profile", "brute"), default="profile")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--stage-bound", type=int, default=None)
    _add_common(p)

    for name in ("learn", "check"):
        p = sub.add_parser(name, help="trace a learner on a text")
        p.add_argument("--learner", choices=ALL_LEARNERS, required=True)
        p.add_argument("--adversary", choices=PROFILED, default=None)
        p.add_argument("--base-e", type=int, default=None)
        p.add_argument("--member-n", type=int, default=None)
        p.add_argument("--variant", choices=("plain", "hat"), default="plain")
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--settle", type=int, default=None)
        p.add_argument("--bound", type=int, default=None)
        p.add_argument("--text", help="JSON file holding a list of naturals")
        p.add_argument("--i", default=None, help="natural number or *")
        p.add_argument("--j", default=None, help="natural number or *")
        _add_common(p)

    p = sub.add_parser("family", help="inspect one constructed family member")
    p.add_argument("--adversary", choices=PROFILED, required=True)
    p.add_argument("--base-e", type=int, default=None)
    p.add_argument("--member-n", type=int, default=None)
    p.add_argument("--variant", choices=("plain", "hat"), default="plain")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--bound", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("suite", help="run the nine-part self-check battery")
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)

    return parser


def _load_config(args: argparse.Namespace) -> dict:
    if not getattr(args, "config", None):
        return {}
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def _pick(args: argparse.Namespace, cfg: dict, name: str, fallback):
    explicit = getattr(args, name, None)
    if explicit is not None:
        return explicit
    if name in cfg:
        return cfg[name]
    return fallback


def _parse_ij(raw, name: str):
    if raw == "*":
        return "*"
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"--{name} must be a natural number or '*', got {raw!r}")
    if value < 0:
        raise ValueError(f"--{name} must be a natural number or '*', got {raw!r}")
    return value


def _emit(report: dict, out: str | None) -> None:
    payload = canonical_json(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_construct(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    e = _pick(args, cfg, "base_e", 0)
    horizon = _pick(args, cfg, "horizon", 200)
    bound = _pick(args, cfg, "bound", 50)
    stage_bound = _pick(args, cfg, "stage_bound", None)
    for name, value in (("base_e", e), ("horizon", horizon), ("bound", bound)):
        _check_natural(value, name)
    if stage_bound is not None:
        _check_natural(stage_bound, "stage_bound")
    ws = Workspace()
    if args.method == "brute":
        from .construction import Construction

        c = Construction(ws.sample_learner(args.learner), e, ws.registry, method="brute")
    else:
        c = ws.construction(args.learner, e)
    c.run_to(horizon)
    results = {
        "stage": c.stage,
        "rows": c.rows_snapshot(limit=12),
        "markers_even": c.a_values(),
        "markers_odd": c.b_values(),
        "prefix_plain": c.r_prefix(bound, "plain"),
        "prefix_hat": c.r_prefix(bound, "hat"),
        "chain_ok": c.chain_ok(),
    }
    if stage_bound is not None:
        results["separation_level"] = c.separation_level(stage_bound)
    report = make_report(
        ExperimentConfig(
            "construct",
            {
                "learner": args.learner,
                "base_e": e,
                "horizon": horizon,
                "method": args.method,
                "bound": bound,
            },
        ),
        results,
        work=dict(c.counters, registry_queries=ws.registry.query_count),
    )
    _emit(report, _pick(args, cfg, "out", None))
    return 0


def _build_text(args: argparse.Namespace, cfg: dict, ws: Workspace, horizon: int):
    path = _pick(args, cfg, "text", None)
    if path:
        with open(path, encoding="utf-8") as fh:
            items = json.load(fh)
        if not isinstance(items, list) or not all(
            isinstance(x, int) and x >= 0 for x in items
        ):
            raise ValueError("--text file must hold a JSON list of naturals")
        if len(items) < horizon:
            raise ValueError(
                f"text file has {len(items)} items, horizon {horizon} needs that many"
            )
        return Text(items=tuple(items), label=f"file:{path}")
    adversary = _pick(args, cfg, "adversary", None)
    if adversary is None:
        raise ValueError("provide --text or --adversary to define the input text")
    e = _pick(args, cfg, "base_e", 0)
    n = _pick(args, cfg, "member_n", 0)
    code = ws.family_member_code(adversary, e, n, args.variant)
    return canonical_text(ws.registry, code, horizon)


def _cmd_learn(args: argparse.Namespace, verdicts_required: bool) -> int:
    cfg = _load_config(args)
    horizon = _pick(args, cfg, "horizon", 200)
    bound = _pick(args, cfg, "bound", 64)
    settle = _pick(args, cfg, "settle", None)
    raw_i = _pick(args, cfg, "i", None)
    raw_j = _pick(args, cfg, "j", None)
    if verdicts_required and (raw_i is None or raw_j is None):
        raise ValueError("check requires both --i and --j")
    if (raw_i is None) != (raw_j is None):
        raise ValueError("--i and --j must be given together")
    ws = Workspace()
    if args.learner == "gap_parity":
        adversary = _pick(args, cfg, "adversary", None)
        if adversary is None:
            raise ValueError("gap_parity needs --adversary to aim at")
        learner = ws.gap_parity_learner(adversary)
    else:
        learner = ws.sample_learner(args.learner)
    text = _build_text(args, cfg, ws, horizon)
    trace = run_learner(learner, text, horizon)
    distinct = sorted(set(trace.outputs))
    results: dict = {
        "text_label": text.label,
        "text_head": list(text.items[:20]),
        "outputs_head": list(trace.outputs[:20]),
        "outputs_tail": list(trace.outputs[-10:]),
        "distinct_outputs": distinct,
    }
    failed = False
    if raw_i is not None:
        i = _parse_ij(raw_i, "i")
        j = _parse_ij(raw_j, "j")
        fex = check_txtfex(trace, ws.registry, i, j, settle=settle, bound=bound)
        fext = check_txtfext(trace, ws.registry, i, j, settle=settle, bound=bound)
        results["vacillation"] = fex
        results["strict"] = fext
        failed = Status.FAIL_WITNESSED in (fex.status, fext.status)
    report = make_report(
        ExperimentConfig(
            "check" if verdicts_required else "learn",
            {
                "learner": args.learner,
                "horizon": horizon,
                "bound": bound,
                "i": raw_i,
                "j": raw_j,
            },
        ),
        results,
        work={"registry_queries": ws.registry.query_count},
    )
    _emit(report, _pick(args, cfg, "out", None))
    return 1 if failed else 0


def _cmd_family(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    e = _pick(args, cfg, "base_e", 0)
    n = _pick(args, cfg, "member_n", 0)
    horizon = _pick(args, cfg, "horizon", 200)
    bound = _pick(args, cfg, "bound", 50)
    ws = Workspace()
    code = ws.family_member_code(args.adversary, e, n, args.variant)
    elements = sorted(ws.registry.below(code, bound, horizon))
    report = make_report(
        ExperimentConfig(
            "family",
            {
                "adversary": args.adversary,
                "base_e": e,
                "member_n": n,
                "variant": args.variant,
                "horizon": horizon,
                "bound": bound,
            },
        ),
        {
            "member_code": code,
            "diagonal_code": ws.diagonal_code(args.adversary, e, args.variant),
            "elements_below_bound": elements,
        },
        work={"registry_queries": ws.registry.query_count},
    )
    _emit(report, _pick(args, cfg, "out", None))
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    seed = _pick(args, cfg, "seed", 0)
    report, all_pass = run_suite(seed)
    for entry in report["results"]["criteria"]:
        print(
            f"criterion {entry['criterion']} {entry['name']}: {entry['status']}",
            file=sys.stderr,
        )
    _emit(report, _pick(args, cfg, "out", None))
    return 0 if all_pass else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.cmd == "construct":
            code = _cmd_construct(args)
        elif args.cmd == "learn":
            code = _cmd_learn(args, verdicts_required=False)
        elif args.cmd == "check":
            code = _cmd_learn(args, verdicts_required=True)
        elif args.cmd == "family":
            code = _cmd_family(args)
        else:
            code = _cmd_suite(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# elapsed {time.monotonic() - started:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
