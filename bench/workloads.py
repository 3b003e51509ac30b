"""The three benchmark workloads.

Each workload is a single-process closed loop: one caller, one thread, the
next call into limitlearn made only after the previous one returns. Every
input comes from the workload seed; limitlearn only ever sees the generated
inputs. A workload has three parts:

- ``inputs(seed, size)``: plain data made from the seed, no limitlearn;
- ``setup(ll, inputs)``: Workspace creation and learner/code registration;
- ``measure(ll, state, rec)``: the timed phase. It returns a Round whose
  ``results`` are clock-free and counter-free, so their canonical JSON
  digest is the same on every round with the same seed.

The three stress different layers, so an optimisation of one layer shows in
one workload and predicts "no change" in the others (see layers.json).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

# Sizes for the timed runs and for the smoke test. "full" is sized so one
# round takes a few seconds on a 2-core machine and yields >= 100 units.
SIZES = {
    "table_sweep": {
        "full": {"horizon": 1000, "stages_per_unit": 10, "bound": 50},
        "tiny": {"horizon": 40, "stages_per_unit": 10, "bound": 20},
    },
    "family_texts": {
        "full": {"members": 25, "index_range": 4096, "length": 300},
        "tiny": {"members": 2, "index_range": 4096, "length": 40},
    },
    "vacillation_checks": {
        "full": {"texts": 100, "length": 200, "alphabet": 100},
        "tiny": {"texts": 3, "length": 30, "alphabet": 20},
    },
}

SWEEP_LEARNERS = ("constant_zero", "length_parity", "fresh_each_step")
FAMILY_ADVERSARIES = ("constant_zero", "fresh_each_step")
VARIANTS = ("plain", "hat")
# (learner, i, j) per text: the full pairwise strict scan, a cardinality
# witness, a content witness, and the two-code learner on a foreign text.
VACILLATION_PAIRS = (
    ("fresh_each_step", "*", "*"),
    ("fresh_each_step", "*", 10),
    ("length_parity", 0, "*"),
    ("gap_parity", "*", 2),
)


@dataclass
class Round:
    results: dict
    checks: list = field(default_factory=list)  # (label, ok)
    verdicts: list = field(default_factory=list)  # (checker, Verdict)
    witnesses: list = field(default_factory=list)  # bool per verify_witness call
    tally: dict = field(default_factory=dict)  # deterministic counts
    scaling: dict = field(default_factory=dict)  # table_sweep only
    report: str = ""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _verdict_results(trace, fex, fext) -> dict:
    """What `limitlearn check` reports for one trace, minus the config."""
    return {
        "outputs_head": list(trace.outputs[:20]),
        "outputs_tail": list(trace.outputs[-10:]),
        "distinct_outputs": sorted(set(trace.outputs)),
        "vacillation": fex,
        "strict": fext,
    }


def row_events(construction) -> int:
    """Row changes logged so far: sum of len(events) - 1 over rows."""
    return sum(len(row.events) - 1 for row in construction.rows)


# ---------------- table_sweep ----------------


def table_sweep_inputs(seed: int, size: dict) -> dict:
    rng = _rng("table_sweep", seed)
    return dict(size, base_e=rng.choice((0, 1, 2)))


def table_sweep_setup(ll, inputs: dict) -> dict:
    ws = ll.Workspace()
    tables = [(kind, ws.construction(kind, inputs["base_e"])) for kind in SWEEP_LEARNERS]
    return {"ws": ws, "tables": tables, **inputs}


def table_sweep_measure(ll, st: dict, rec) -> Round:
    horizon, step, bound = st["horizon"], st["stages_per_unit"], st["bound"]
    half = horizon // 2
    tables = st["tables"]
    run_s = {kind: 0.0 for kind, _ in tables}
    scaling: dict = {kind: {} for kind, _ in tables}
    for uid, target in enumerate(range(step, horizon + 1, step)):
        with rec.unit(uid):
            for kind, c in tables:
                t = time.perf_counter()
                c.run_to(target)
                run_s[kind] += time.perf_counter() - t
        if target in (half, horizon):
            for kind, c in tables:
                scaling[kind][str(target)] = {
                    "run_to_s": run_s[kind],
                    "counters": dict(c.counters),
                    "rows": len(c.rows),
                    "row_events": row_events(c),
                }
    out = Round(results={"base_e": st["base_e"], "horizon": horizon, "tables": {}})
    for kind, c in tables:
        with rec.span("observe"):
            a = c.a_values()
            b = c.b_values()
            plain = c.r_prefix(bound, "plain")
            hat = c.r_prefix(bound, "hat")
            chain = c.chain_ok()
            reverified = c.reverify_final()
        markers_ok = all(
            x % 2 == 0 and x > ell + 1 for ell, x in enumerate(a)
        ) and len(b) <= len(a) and all(y == a[ell] + 1 for ell, y in enumerate(b))
        out.checks += [
            (f"{kind}: chain_ok", chain),
            (f"{kind}: reverify_final witnesses all None", all(w is None for _, w in reverified)),
            (f"{kind}: marker invariants", markers_ok),
        ]
        out.results["tables"][kind] = {
            "stage": c.stage,
            "rows": c.rows_snapshot(limit=12),
            "markers_even": a,
            "markers_odd": b,
            "prefix_plain": plain,
            "prefix_hat": hat,
            "chain_ok": chain,
            "reverified": [[n, w] for n, w in reverified],
        }
        out.tally["stabilizing.reverify_rows"] = (
            out.tally.get("stabilizing.reverify_rows", 0) + len(reverified)
        )
    out.scaling = scaling
    out.report = ll.canonical_json(out.results)
    return out


# ---------------- family_texts ----------------


def family_texts_inputs(seed: int, size: dict) -> dict:
    rng = _rng("family_texts", seed)
    return dict(size, indices=sorted(rng.sample(range(size["index_range"]), size["members"])))


def family_texts_setup(ll, inputs: dict) -> dict:
    ws = ll.Workspace()
    adversaries = []
    for kind in FAMILY_ADVERSARIES:
        learner = ws.gap_parity_learner(kind)
        allowed = {ws.diagonal_code(kind, 0, v) for v in VARIANTS}
        members = [
            (n, v, ws.family_member_code(kind, 0, n, v))
            for n in inputs["indices"]
            for v in VARIANTS
        ]
        adversaries.append((kind, learner, allowed, members))
    return {"ws": ws, "adversaries": adversaries, **inputs}


def family_texts_measure(ll, st: dict, rec) -> Round:
    reg = st["ws"].registry
    length = st["length"]
    out = Round(results={"length": length, "members": []})
    uid = 0
    for kind, learner, allowed, members in st["adversaries"]:
        for n, variant, code in members:
            with rec.unit(uid):
                text = ll.canonical_text(reg, code, length)
                trace = ll.run_learner(learner, text, length)
                fex = ll.check_txtfex(trace, reg, "*", 2)
                fext = ll.check_txtfext(trace, reg, "*", 2)
            uid += 1
            tail = set(fex.details.get("tail_codes", []))
            ok = fex.status is ll.Status.PASS_AT_HORIZON and tail <= allowed
            out.checks.append((f"{kind}/{n}/{variant}: loose PASS within diagonal codes", ok))
            out.verdicts += [("fex", fex), ("fext", fext)]
            out.tally["text.items"] = out.tally.get("text.items", 0) + len(text)
            out.tally["text.calls"] = out.tally.get("text.calls", 0) + 1
            out.results["members"].append(
                dict(
                    _verdict_results(trace, fex, fext),
                    member=[kind, n, variant],
                    code=code,
                    text_head=list(text.items[:20]),
                )
            )
    out.report = ll.canonical_json(out.results)
    return out


# ---------------- vacillation_checks ----------------


def vacillation_checks_inputs(seed: int, size: dict) -> dict:
    rng = _rng("vacillation_checks", seed)
    # each text is a JSON document, as a `--text` file would hold it
    docs = [
        json.dumps([rng.randrange(size["alphabet"]) for _ in range(size["length"])])
        for _ in range(size["texts"])
    ]
    return dict(size, docs=docs)


def _load_text(ll, doc: str, label: str, horizon: int):
    """Parse and validate one text the way the CLI's --text option does."""
    items = json.loads(doc)
    if not isinstance(items, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in items
    ):
        raise ValueError(f"{label} must hold a JSON list of naturals")
    if len(items) < horizon:
        raise ValueError(f"{label} has {len(items)} items, horizon {horizon} needs that many")
    return ll.Text(items=tuple(items), label=f"file:{label}")


def vacillation_checks_setup(ll, inputs: dict) -> dict:
    ws = ll.Workspace()
    learners = {
        "fresh_each_step": ws.sample_learner("fresh_each_step"),
        "length_parity": ws.sample_learner("length_parity"),
        "gap_parity": ws.gap_parity_learner("length_parity"),
    }
    horizon = inputs["length"]
    texts = [
        _load_text(ll, doc, f"text{k:03d}.json", horizon)
        for k, doc in enumerate(inputs["docs"])
    ]
    pairs = [(name, learners[name], i, j) for name, i, j in VACILLATION_PAIRS]
    return {"ws": ws, "texts": texts, "pairs": pairs, "horizon": horizon}


def vacillation_checks_measure(ll, st: dict, rec) -> Round:
    reg = st["ws"].registry
    horizon = st["horizon"]
    fail = ll.Status.FAIL_WITNESSED
    passed = ll.Status.PASS_AT_HORIZON
    out = Round(results={"horizon": horizon, "texts": []})
    for uid, text in enumerate(st["texts"]):
        per_text = []
        with rec.unit(uid):
            for name, learner, i, j in st["pairs"]:
                trace = ll.run_learner(learner, text, horizon)
                fex = ll.check_txtfex(trace, reg, i, j)
                fext = ll.check_txtfext(trace, reg, i, j)
                valid = [
                    ll.verify_witness(v, trace, reg, i, j)
                    for v in (fex, fext)
                    if v.status is fail
                ]
                per_text.append((name, i, j, trace, fex, fext, valid))
        entries = []
        for name, i, j, trace, fex, fext, valid in per_text:
            label = f"{text.label} {name} i={i} j={j}"
            out.checks += [(f"{label}: FAIL witness re-verifies", ok) for ok in valid]
            out.checks.append(
                (
                    f"{label}: strict PASS implies loose PASS",
                    fext.status is not passed or fex.status is passed,
                )
            )
            out.witnesses += valid
            out.verdicts += [("fex", fex), ("fext", fext)]
            entries.append(
                dict(
                    _verdict_results(trace, fex, fext),
                    learner=name,
                    i=i,
                    j=j,
                    witness_valid=valid,
                )
            )
        out.results["texts"].append({"label": text.label, "checks": entries})
    out.report = ll.canonical_json(out.results)
    return out


WORKLOADS = {
    "table_sweep": (table_sweep_inputs, table_sweep_setup, table_sweep_measure),
    "family_texts": (family_texts_inputs, family_texts_setup, family_texts_measure),
    "vacillation_checks": (
        vacillation_checks_inputs,
        vacillation_checks_setup,
        vacillation_checks_measure,
    ),
}
