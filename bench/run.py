"""Benchmark for limitlearn: three closed-loop workloads, timed from outside.

Usage (from the repository root):

    python3 bench/run.py --workload table_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run repeats rounds while the next one is expected to end within
--seconds (at least one round). A round imports limitlearn afresh from src/,
builds its inputs from the seed, sets up a Workspace (together: setup_s) and
then runs the workload's timed phase (wall_s), split into units. Untraced
rounds time a fixed reference probe before each unit and before set-up, and
the end-to-end times are reported at reference speed (see reference.py), so
that the host's speed swings do not move them: wall_s and setup_s are the
medians over the run's rounds; unit_p50_ms and unit_p90_ms are taken over
the units of a round (units_per_round in the provenance), each unit's
latency being its median over the untraced rounds. The raw times are
printed beside them and kept in the result file.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics: untraced
and traced rounds alternate, the traced ones with limitlearn's entry points
wrapped (see spans.py and layers.json), and the spans go to bench/out/ as
JSONL. Every round's results are checked, and their SHA-256 digest must
match across rounds, across traced and untraced rounds, and across runs
with the same seed. Exit code 0 means every check passed; 1 means a check
failed (the result line is still printed); 2 means the benchmark could not
run at all, and then no result line is printed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
from spans import NullTracer, Tracer, write_jsonl  # noqa: E402
from workloads import SIZES, SWEEP_LEARNERS, WORKLOADS, row_events  # noqa: E402


class Recorder:
    """Hands the workload its unit timer and (in traced rounds) its spans.

    Untraced, it times a reference probe before each unit (outside the
    unit's time); the caller adds one more after the last unit.
    """

    def __init__(self, tracer, probing: bool) -> None:
        self.tracer = tracer
        self.probing = probing
        self.unit_s: list[float] = []
        self.probe_s: list[float] = []

    def span(self, name: str):
        return self.tracer.span(name)

    @contextmanager
    def unit(self, uid: int):
        if self.probing:
            self.probe_s.append(reference.probe_s())
        with self.tracer.span("unit", unit=uid):
            start = time.perf_counter()
            yield
            self.unit_s.append(time.perf_counter() - start)


def _purge_limitlearn() -> None:
    for name in [m for m in sys.modules if m == "limitlearn" or m.startswith("limitlearn.")]:
        del sys.modules[name]


def run_round(workload: str, seed: int, size: dict, layers: list | None) -> dict:
    """One full experiment from a fresh import; layers given means traced."""
    make_inputs, setup, measure = WORKLOADS[workload]
    traced = layers is not None
    gc.collect()
    setup_probes = [] if traced else [reference.probe_s() for _ in range(5)]
    t0 = time.perf_counter()
    _purge_limitlearn()
    ll = importlib.import_module("limitlearn")
    import_s = time.perf_counter() - t0
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(ll, layers)
    t1 = time.perf_counter()
    state = setup(ll, make_inputs(seed, size))
    setup_s = import_s + time.perf_counter() - t1
    rec = Recorder(tracer or NullTracer(), probing=not traced)
    t2 = time.perf_counter()
    with rec.span("measure"):
        rnd = measure(ll, state, rec)
    wall_s = time.perf_counter() - t2 - sum(rec.probe_s)
    ref = None
    if not traced:
        rec.probe_s.append(reference.probe_s())
        units = reference.per_unit(rec.unit_s, rec.probe_s)
        # units carry the speed of their own moment; the rest of the phase
        # (observation, reports) that of the round
        rest = reference.scale(wall_s - sum(rec.unit_s), rec.probe_s)
        ref = {
            "setup_s": reference.scale(setup_s, setup_probes),
            "wall_s": sum(units) + rest,
            "unit_s": units,
            "probe_ms": statistics.median(rec.probe_s) * 1e3,
        }
    # keep a compact summary only, so memory stays flat over many rounds
    statuses = [v.status.value for _, v in rnd.verdicts]
    return {
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "unit_s": rec.unit_s,
        "probe_s": rec.probe_s,
        "ref": ref,
        "checks": len(rnd.checks),
        "failed": [label for label, ok in rnd.checks if not ok],
        "digest": hashlib.sha256(rnd.report.encode()).hexdigest(),
        "work": _work_counts(state["ws"]),
        "scaling": rnd.scaling,
        "stats": dict(
            rnd.tally,
            verdicts=len(statuses),
            passed=statuses.count("PASS_AT_HORIZON"),
            fail=statuses.count("FAIL_WITNESSED"),
            inconclusive=statuses.count("INCONCLUSIVE"),
            pairs=sum(_pairs_scanned(v) for c, v in rnd.verdicts if c == "fext"),
            witnesses=len(rnd.witnesses),
            witnesses_valid=sum(rnd.witnesses),
            report_bytes=len(rnd.report.encode()),
        ),
        "tracer": tracer,
    }


def _work_counts(ws) -> dict:
    """Deterministic counters the program exposes, summed over tables."""
    counters = ws.counters()
    out = {"registry.queries": counters["registry_queries"], "row_events": 0}
    for key, table in counters["tables"].items():
        for name, value in table.items():
            if name != "stage":
                out[name] = out.get(name, 0) + value
        kind, _, e = key.rpartition("/e")
        out["row_events"] += row_events(ws.construction(kind, int(e)))
    return out


# ---------------- metrics ----------------


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end_metrics(plain: list[dict], key: str = "ref") -> dict:
    """The end-to-end metrics at reference speed, or raw with key=None.

    Unit k does the same work in every round, so its latency is its median
    over the rounds; the percentiles are taken over the units. This keeps a
    unit that one round caught in a burst of host load from moving them.
    """
    rounds = [r[key] if key else r for r in plain]
    units = [statistics.median(u) for u in zip(*(r["unit_s"] for r in rounds), strict=True)]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "unit_p50_ms": statistics.median(units) * 1e3,
        "unit_p90_ms": _p90(units) * 1e3,
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _exponents(plain: list[dict]) -> dict:
    """log2 of run_to time to H over run_to time to H/2, median over rounds."""
    out = {}
    scalings = [r["scaling"] for r in plain if r["scaling"]]
    if not scalings:
        return out
    kinds = list(scalings[0])
    per_kind: dict[str, list[float]] = {k: [] for k in kinds}
    total: list[float] = []
    for sc in scalings:
        half, full = sorted(sc[kinds[0]], key=int)
        for k in kinds:
            per_kind[k].append(math.log2(sc[k][full]["run_to_s"] / sc[k][half]["run_to_s"]))
        total.append(
            math.log2(
                sum(sc[k][full]["run_to_s"] for k in kinds)
                / sum(sc[k][half]["run_to_s"] for k in kinds)
            )
        )
    out["table.exponent"] = statistics.median(total)
    for k in kinds:
        out[f"table.exponent.{k}"] = statistics.median(per_kind[k])
    return out


def _pairs_scanned(verdict) -> int:
    """Pairs the strict checker compared before returning."""
    details = verdict.details
    if details.get("via") == "vacillation" or "tail_codes" not in details:
        return 0
    n = len(details["tail_codes"])
    w = verdict.witness
    if w is not None and w.get("kind") == "pairwise":
        codes = sorted(details["tail_codes"])
        i, j = codes.index(w["codes"][0]), codes.index(w["codes"][1])
        return i * (2 * n - i - 1) // 2 + (j - i - 1) + 1
    return n * (n - 1) // 2


def _self_time(run: dict, entries: list[str]) -> float:
    """Summed self time of the named entry points in one traced round."""
    self_s = run["tracer"].self_s
    return sum(self_s[e.partition("#")[0].partition(":")[2]] for e in entries)


def per_layer_metrics(plain: list[dict], traced: list[dict], layers: list[dict]) -> dict:
    last = traced[-1]
    tracer, stats, work = last["tracer"], last["stats"], last["work"]
    entries = {layer["name"]: layer["entry_points"] for layer in layers}
    all_entries = [e for group in entries.values() for e in group]

    def self_time(group: list[str]) -> float:
        return statistics.median(_self_time(r, group) for r in traced)

    calls = tracer.calls
    confirms = calls["Construction.confirmation_stage"]
    elements = tracer.hooks["diagonal.elements_returned"]
    decide = [e for e in entries["learners"] if e.endswith(".decide")]
    m = {
        "table.self_s": self_time(entries["table"]),
        "table.stages": work["stages"],
        "table.searches": work["searches"],
        "table.length_checks": work["length_checks"],
        "table.q_advances": work["q_advances"],
        "table.row_events": work["row_events"],
        "table.events_per_search": _ratio(work["row_events"], work["searches"]),
        "markers.self_s": self_time(entries["markers"]),
        "stabilizing.reverify_s": self_time(entries["stabilizing"]),
        "stabilizing.reverify_rows": stats.get("stabilizing.reverify_rows", 0),
        "confirm.self_s": self_time(entries["confirm"]),
        "confirm.calls": confirms,
        "confirm.cells": work["conf_cells"],
        "confirm.cells_per_call": _ratio(work["conf_cells"], confirms),
        "diagonal.self_s": self_time(entries["diagonal"]),
        "diagonal.calls": calls["DiagonalView.at_stage"],
        "diagonal.elements_returned": elements,
        "diagonal.new_ratio": _ratio(tracer.hooks["text.new_elements"], elements),
        "registry.queries": work["registry.queries"],
        "registry.self_s": self_time(entries["registry"]),
        "text.self_s": self_time(entries["text"]),
        "text.calls": stats.get("text.calls", 0),
        "text.items": stats.get("text.items", 0),
        "runlearner.self_s": self_time(["criteria:run_learner"]),
        "runlearner.decides": sum(calls[e.partition(":")[2]] for e in decide),
        "learners.decide_s": self_time(decide),
        "check.fex_s": self_time(["criteria:check_txtfex"]),
        "check.fext_s": self_time(["criteria:check_txtfext"]),
        "check.calls": stats["verdicts"],
        "check.pairs": stats["pairs"],
        "check.pass": stats["passed"],
        "check.fail": stats["fail"],
        "check.inconclusive": stats["inconclusive"],
        "verify.self_s": self_time(entries["verify"]),
        "verify.calls": stats["witnesses"],
        "verify.valid_ratio": _ratio(stats["witnesses_valid"], stats["witnesses"]),
        "reports.self_s": self_time(entries["reports"]),
        "reports.bytes": stats["report_bytes"],
        "tracing.overhead_ratio": statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain),
        "tracing.remainder_s": statistics.median(
            r["wall_s"] - _self_time(r, all_entries) for r in traced
        ),
    }
    # only table_sweep runs tables to two horizons; elsewhere they read 0
    m.update(dict.fromkeys(
        ["table.exponent"] + [f"table.exponent.{k}" for k in SWEEP_LEARNERS], 0.0
    ))
    m.update(_exponents(plain))
    return m


# ---------------- digests, provenance, output ----------------


def _digest_store_check(key: str, digest: str) -> bool:
    """True unless an earlier run with the same key recorded another digest."""
    path = OUT / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    earlier = store.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return earlier == digest


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "limitlearn").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, inputs: dict, units: int, rounds: int) -> dict:
    shown = {k: v for k, v in inputs.items() if k != "docs"}
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "size_params": shown,
        "units_per_round": units,
        "rounds": rounds,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, one thread",
    }


def run_workload(args, spec: dict, layers: list[dict]) -> int:
    size = SIZES[args.workload][args.size]
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    round_s = 0.0
    # start a round (or an untraced/traced pair) only if it should end within
    # --seconds, taking it to last as long as the previous one
    while not plain or time.perf_counter() - start + round_s <= args.seconds:
        before = time.perf_counter()
        plain.append(run_round(args.workload, args.seed, size, None))
        if args.trace:
            traced.append(run_round(args.workload, args.seed, size, layers))
        round_s = time.perf_counter() - before
    rounds = plain + traced

    digest = rounds[0]["digest"]
    checks = [
        (f"round {k} ({'traced' if r['traced'] else 'untraced'}) digest equals round 0", r["digest"] == digest)
        for k, r in enumerate(rounds[1:], 1)
    ]
    OUT.mkdir(exist_ok=True)
    key = f"{args.workload}|{args.seed}|{json.dumps(size, sort_keys=True)}"
    checks.append(("digest equals earlier runs with this seed", _digest_store_check(key, digest)))
    attempted = len(checks) + sum(r["checks"] for r in rounds)
    failed = [label for r in rounds for label in r["failed"]]
    failed += [label for label, ok in checks if not ok]

    raw = end_to_end_metrics(plain, key=None)
    if args.trace:
        values = per_layer_metrics(plain, traced, layers)
        wanted = spec["per_layer"]
    else:
        values = end_to_end_metrics(plain)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    raw_times = {
        f"raw_{m['name']}": {"value": raw[m["name"]], "unit": m["unit"]}
        for m in spec["end_to_end"]
        if m["name"] != "peak_rss_mb"
    }

    inputs = WORKLOADS[args.workload][0](args.seed, size)
    prov = provenance(args, inputs, len(plain[0]["unit_s"]), len(rounds))
    prov["units_measured"] = sum(len(r["unit_s"]) for r in plain)
    stem = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    if args.trace:
        spans = [dict(s, round=k) for k, r in enumerate(traced) for s in r["tracer"].spans]
        write_jsonl(OUT / f"{stem}.jsonl", dict(prov, rounds_traced=len(traced)), spans)
    summary = {
        "provenance": prov,
        "digest": digest,
        "checks": attempted,
        "checks_failed": len(failed),
        "failed_checks": failed[:20],
        "rounds": [
            {
                "traced": r["traced"],
                "setup_s": r["setup_s"],
                "wall_s": r["wall_s"],
                "units": len(r["unit_s"]),
                "unit_p50_ms": statistics.median(r["unit_s"]) * 1e3,
                "unit_p90_ms": _p90(r["unit_s"]) * 1e3,
                "ref": r["ref"] and {
                    "setup_s": r["ref"]["setup_s"],
                    "wall_s": r["ref"]["wall_s"],
                    "unit_p50_ms": statistics.median(r["ref"]["unit_s"]) * 1e3,
                    "unit_p90_ms": _p90(r["ref"]["unit_s"]) * 1e3,
                    "probe_ms": r["ref"]["probe_ms"],
                },
                "unit_s": r["unit_s"],
                "probe_s": r["probe_s"],
                "work": r["work"],
                "scaling": r["scaling"],
            }
            for r in rounds
        ],
        "metrics": metrics,
        "raw_times": raw_times,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")

    for name, m in (metrics | raw_times).items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} checks {attempted} count")
    print(f"{args.workload} checks_failed {len(failed)} count")
    print(json.dumps({"provenance": prov, "digest": digest, "failed_checks": failed[:20]}, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    results = {}
    code = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not proc.stdout.strip():
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 2
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
        code = max(code, proc.returncode)
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "workloads": results,
            }
        )
    )
    return code


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the smoke test only")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "limitlearn" / "__init__.py").is_file():
        print(f"error: no limitlearn sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layers = json.loads((BENCH_DIR / "layers.json").read_text())["layers"]
    except (OSError, ValueError) as exc:
        print(f"error: cannot read the benchmark definition: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec, layers)


if __name__ == "__main__":
    sys.exit(main())
