"""Self-checking battery: nine numbered checks over the whole stack.

Checks 1..8 run in a fixed order: 2..7 share one workspace, and 8 draws its
random scenarios from the seed, so every registered code, every table stage
and every scenario is a pure function of the seed. Check 9 replays
the whole battery from scratch and demands byte-identical canonical reports,
which is why nothing here may consult a clock or unordered iteration.
"""

from __future__ import annotations

import random

from .criteria import (
    Status,
    Text,
    Trace,
    canonical_text,
    check_txtfex,
    check_txtfext,
    run_learner,
    verify_witness,
)
from .encodings import _check_natural, finite_set_decode, finite_set_encode, pair, unpair
from .reports import canonical_json, make_report
from .universe import Registry, StepFunctionEnumerator, check_monotone
from .workspace import Workspace

FAMILY_INDICES = (0, 1, 2, 3, 5, 8, 12, 21, 33, 64)


def _result(criterion: int, name: str, ok: bool, details: dict) -> dict:
    return {
        "criterion": criterion,
        "name": name,
        "status": "PASS" if ok else "FAIL",
        "details": details,
    }


def criterion_1() -> dict:
    """Codecs invert each other and match pinned values."""
    ok = True
    for x in range(100):
        for y in range(100):
            if unpair(pair(x, y)) != (x, y):
                ok = False
    for z in range(5050):
        if pair(*unpair(z)) != z:
            ok = False
    for n in range(4096):
        if finite_set_encode(finite_set_decode(n)) != n:
            ok = False
    pinned = (
        pair(1, 2) == 8
        and pair(2, 1) == 7
        and finite_set_decode(5) == frozenset({0, 2})
        and finite_set_decode(6) == frozenset({1, 2})
    )
    ok = ok and pinned
    return _result(
        1,
        "encoding roundtrips",
        ok,
        {"pairs": 100 * 100, "indices": 5050, "finite_sets": 4096, "pinned": pinned},
    )


def criterion_2(ws: Workspace) -> dict:
    """Every registered enumerator is stage-monotone through stage 499."""
    for kind in ("constant_zero", "length_parity", "fresh_each_step"):
        ws.sample_learner(kind)
    ws.sample_learner("fresh_each_step").length_code(24)
    codes = list(range(len(ws.registry)))
    violations = check_monotone(ws.registry, codes, 499)
    return _result(
        2,
        "enumerator monotonicity",
        not violations,
        {"codes": len(codes), "max_stage": 499, "violations": violations[:10]},
    )


def criterion_3(ws: Workspace) -> dict:
    """Tables chain upward and every surviving row re-verifies standalone."""
    ok = True
    per = {}
    for kind in ("constant_zero", "length_parity"):
        for e in (0, 1, 2):
            c = ws.construction(kind, e)
            c.run_to(500)
            chain = c.chain_ok()
            reverified = c.reverify_final()
            clean = all(w is None for _, w in reverified)
            ok = ok and chain and clean
            per[f"{kind}/e{e}"] = {
                "defined_rows": len(reverified),
                "chain_ok": chain,
                "reverified": clean,
            }
    return _result(3, "chain and standalone re-verification", ok, per)


def criterion_4(ws: Workspace) -> dict:
    """Constant-learner table converges; marker gaps between the diagonals grow."""
    c = ws.construction("constant_zero", 0)
    c.run_to(2000)
    rows_1 = [r["value"] for r in c.rows_snapshot(limit=6)]
    a_1 = c.a_values(2000)[:6]
    c.run_to(4000)
    rows_2 = [r["value"] for r in c.rows_snapshot(limit=6)]
    a_2 = c.a_values(4000)[:6]
    converged = len(rows_1) == 6 and None not in rows_1 and rows_1 == rows_2
    a_ok = (
        len(a_1) == 6
        and a_1 == a_2
        and all(a % 2 == 0 and a > ell + 1 for ell, a in enumerate(a_1))
    )
    x_plain = ws.diagonal_code("constant_zero", 0, "plain")
    x_hat = ws.diagonal_code("constant_zero", 0, "hat")
    sizes = []
    for bound in (50, 100, 200):
        plain, hat = ws.registry.below_each((x_plain, x_hat), bound, 4000)
        sizes.append(len(plain ^ hat))
    growing = all(s > 0 for s in sizes) and sizes[0] < sizes[1] < sizes[2]
    return _result(
        4,
        "convergence under horizon doubling",
        converged and a_ok and growing,
        {
            "rows": rows_1,
            "markers": a_1,
            "diagonal_gap_sizes": sizes,
        },
    )


def criterion_5(ws: Workspace) -> dict:
    """Fresh-guess learner: empty marker list, forced vacillation, strict FAIL."""
    c = ws.construction("fresh_each_step", 0)
    c.run_to(200)
    markers = c.a_values()
    adv = c.adversarial_text(100)
    trace = run_learner(
        ws.sample_learner("fresh_each_step"), Text(items=adv, label="adversarial"), 100
    )
    distinct = len(set(trace.outputs))
    verdict = check_txtfext(trace, ws.registry, "*", 10)
    witnessed = verdict.status is Status.FAIL_WITNESSED and verify_witness(
        verdict, trace, ws.registry, "*", 10
    )
    ok = markers == [] and distinct >= 50 and witnessed
    return _result(
        5,
        "unstable learner never yields markers",
        ok,
        {
            "markers": markers,
            "distinct_outputs": distinct,
            "verdict": verdict.status.value,
            "witness_kind": None if verdict.witness is None else verdict.witness["kind"],
        },
    )


def criterion_6(ws: Workspace) -> dict:
    """The gap-parity learner succeeds across the constructed family."""
    ok = True
    members = 0
    failures = []
    for kind in ("constant_zero", "fresh_each_step"):
        learner = ws.gap_parity_learner(kind)
        allowed = {
            ws.diagonal_code(kind, 0, "plain"),
            ws.diagonal_code(kind, 0, "hat"),
        }
        for n in FAMILY_INDICES:
            for variant in ("plain", "hat"):
                code = ws.family_member_code(kind, 0, n, variant)
                text = canonical_text(ws.registry, code, 500)
                trace = run_learner(learner, text, 500)
                verdict = check_txtfex(trace, ws.registry, "*", 2)
                tail = set(verdict.details.get("tail_codes", []))
                good = verdict.status is Status.PASS_AT_HORIZON and tail <= allowed
                if not good:
                    failures.append(
                        {
                            "member": [kind, n, variant],
                            "status": verdict.status.value,
                            "tail_codes": sorted(tail),
                        }
                    )
                ok = ok and good
                members += 1
    return _result(
        6,
        "family learnability with two hypotheses",
        ok and members >= 20,
        {"members": members, "failures": failures[:5]},
    )


def criterion_7(ws: Workspace) -> dict:
    """Confirmed enumeration equals marker-subtraction below the bound."""
    ok = True
    per = {}
    for kind in ("constant_zero", "length_parity", "fresh_each_step"):
        for e in (0, 1):
            c = ws.construction(kind, e)
            c.run_to(500)
            for variant in ("plain", "hat"):
                code = ws.diagonal_code(kind, e, variant)
                enum_side = ws.registry.below_each((code,), 50, 500)[0]
                prefix_side = c.r_prefix(50, variant, s=500)
                same = enum_side == prefix_side
                ok = ok and same
                per[f"{kind}/e{e}/{variant}"] = {
                    "agree": same,
                    "size": len(enum_side),
                }
    return _result(7, "two routes to the diagonal prefix", ok, per)


def _growing_enumerator(rng: random.Random) -> StepFunctionEnumerator:
    schedule = tuple(
        (rng.randrange(12), rng.randrange(9))
        for _ in range(rng.randint(0, 6))
    )

    def fn(s: int, _schedule=schedule):
        return {elem for elem, born in _schedule if born <= s}

    return StepFunctionEnumerator(fn)


def criterion_8(seed: int) -> dict:
    """Strict-pass implies loose-pass on randomized scenarios."""
    rng = random.Random(seed * 1000003 + 8)
    histogram = {"fex": {}, "fext": {}}
    ok = True
    for _ in range(100):
        reg = Registry()
        codes = [reg.register(_growing_enumerator(rng)) for _ in range(rng.randint(1, 4))]
        horizon = rng.randint(2, 24)
        items = tuple(rng.randrange(12) for _ in range(horizon))
        if rng.random() < 0.5:
            settled_code = rng.choice(codes)
            outputs = tuple(
                rng.choice(codes) if n < horizon // 2 else settled_code
                for n in range(horizon + 1)
            )
        else:
            outputs = tuple(rng.choice(codes) for _ in range(horizon + 1))
        t = Trace(outputs=outputs, text=Text(items=items), horizon=horizon)
        i = "*" if rng.random() < 0.5 else rng.randint(0, 3)
        j = "*" if rng.random() < 0.3 else rng.randint(1, 3)
        fex = check_txtfex(t, reg, i, j)
        fext = check_txtfext(t, reg, i, j)
        histogram["fex"][fex.status.value] = histogram["fex"].get(fex.status.value, 0) + 1
        histogram["fext"][fext.status.value] = (
            histogram["fext"].get(fext.status.value, 0) + 1
        )
        if fext.status is Status.PASS_AT_HORIZON and fex.status is not Status.PASS_AT_HORIZON:
            ok = False
    return _result(8, "strict pass implies loose pass", ok, histogram)


def run_battery(seed: int) -> dict:
    ws = Workspace()
    criteria = [
        criterion_1(),
        criterion_2(ws),
        criterion_3(ws),
        criterion_4(ws),
        criterion_5(ws),
        criterion_6(ws),
        criterion_7(ws),
        criterion_8(seed),
    ]
    return {"criteria": criteria, "work": ws.counters()}


def run_suite(seed: int = 0) -> tuple[dict, bool]:
    """Run the battery twice and demand byte-identical canonical reports."""
    _check_natural(seed, "seed")
    first = run_battery(seed)
    second = run_battery(seed)
    b1 = canonical_json(first)
    b2 = canonical_json(second)
    replay = _result(
        9,
        "deterministic replay",
        b1 == b2,
        {"report_bytes": len(b1), "identical": b1 == b2},
    )
    criteria = first["criteria"] + [replay]
    all_pass = all(c["status"] == "PASS" for c in criteria)
    results = {"criteria": criteria, "all_pass": all_pass}
    return make_report("suite", {"seed": seed}, results, first["work"]), all_pass
