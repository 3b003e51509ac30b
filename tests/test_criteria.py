"""Finite-horizon verdicts for the two convergence notions.

Every FAIL must carry a witness that verify_witness re-derives from scratch,
and the strict notion can never pass where the loose one fails.
"""

import random
import re
from itertools import combinations

import pytest

from learner_helpers import FunctionLearner

from limitlearn import (
    FiniteSetEnumerator,
    FreshLengthLearner,
    Registry,
    Status,
    StepFunctionEnumerator,
    Text,
    Trace,
    Verdict,
    check_txtfex,
    check_txtfext,
    run_learner,
    verify_witness,
)


def _registry():
    reg = Registry()
    a = reg.register(FiniteSetEnumerator({0, 1}))
    b = reg.register(FiniteSetEnumerator({0, 1}))  # same set, distinct code
    c = reg.register(FiniteSetEnumerator({0, 2}))
    return reg, a, b, c


def _trace(outputs, text_len=20):
    return Trace(tuple(outputs), Text(tuple(range(text_len))), len(outputs) - 1)


def test_settled_vacillation_between_twin_codes():
    reg, a, b, c = _registry()
    tr = _trace((0,) * 5 + (a, b) * 7 + (a,))
    assert check_txtfex(tr, reg, "*", 2).status is Status.PASS_AT_HORIZON
    assert check_txtfext(tr, reg, "*", 2).status is Status.PASS_AT_HORIZON


def test_cardinality_violation():
    reg, a, b, c = _registry()
    tr = _trace((0,) * 5 + (a, b) * 7 + (a,))
    v = check_txtfex(tr, reg, "*", 1)
    assert v.status is Status.FAIL_WITNESSED
    assert v.witness == {"kind": "cardinality", "codes": [a, b], "allowed": 1}
    assert verify_witness(v, tr, reg, "*", 1)
    # a cardinality fail cannot be explained away by the strict checker
    assert check_txtfext(tr, reg, "*", 1).status is Status.FAIL_WITNESSED


def test_cardinality_fail_stable_under_horizon_extension():
    reg, a, b, c = _registry()
    short = _trace((0,) * 5 + (a, b) * 7 + (a,))
    longer = _trace((0,) * 5 + (a, b) * 17 + (a,), text_len=50)
    for tr in (short, longer):
        v = check_txtfex(tr, reg, "*", 1)
        assert v.status is Status.FAIL_WITNESSED
        assert v.witness["kind"] == "cardinality"


def test_content_violation_at_finite_index():
    reg, a, b, c = _registry()
    tr = _trace((c,) * 20)  # W_c = {0, 2} versus text content 0..18
    v = check_txtfex(tr, reg, 0, 1)
    assert v.status is Status.FAIL_WITNESSED
    assert v.witness["kind"] == "content"
    assert v.witness["code"] == c
    assert v.witness["revocable"] is True
    assert 1 in v.witness["difference"]
    assert verify_witness(v, tr, reg, 0, 1)
    # with the anytime reading (i = *) the same trace passes
    assert check_txtfex(tr, reg, "*", 1).status is Status.PASS_AT_HORIZON


def test_pairwise_persistent_difference_fails_strict_only():
    reg, a, b, c = _registry()
    tr = _trace((a, c) * 10)
    loose = check_txtfex(tr, reg, "*", 2)
    strict = check_txtfext(tr, reg, "*", 2)
    assert loose.status is Status.PASS_AT_HORIZON
    assert strict.status is Status.FAIL_WITNESSED
    assert strict.witness == {
        "kind": "pairwise",
        "codes": [a, c],
        "elements": [1, 2],
        "early_stage": 9,
        "stage": 19,
    }
    assert verify_witness(strict, tr, reg, "*", 2)


def test_forged_witnesses_do_not_verify():
    reg, a, b, c = _registry()
    # d agrees with a up to stage 30, then adds 7
    d = reg.register(StepFunctionEnumerator(lambda s: {0, 1, 7} if s > 30 else {0, 1}))
    tr = Trace((a, d) * 10, Text((0, 1) * 10), 19)
    for check in (check_txtfex, check_txtfext):
        assert check(tr, reg, 0, 2).status is Status.PASS_AT_HORIZON

    def pairwise(codes, elements, early_stage):
        return {
            "kind": "pairwise",
            "codes": codes,
            "elements": elements,
            "early_stage": early_stage,
            "stage": 19,
        }

    cardinality = {"kind": "cardinality", "codes": [d], "allowed": 0}
    forged = [
        # codes the learner never output
        (pairwise([a, c], [1, 2], 9), {}),
        ({"kind": "content", "code": c, "difference": [1, 2], "allowed": 0}, {}),
        # an early stage past the horizon, and a negative one
        (pairwise([d, a], [7], 40), {}),
        (pairwise([d, a], [7], -1), {}),
        # windows where check_txtfex finds nothing
        (cardinality, {"settle": 19}),
        (cardinality, {"settle": -1}),
    ]
    for witness, window in forged:
        if window:
            assert check_txtfex(tr, reg, 0, 0, **window).status is Status.INCONCLUSIVE
        forgery = Verdict(Status.FAIL_WITNESSED, witness, {})
        assert verify_witness(forgery, tr, reg, 0, 0 if window else 2, **window) is False, witness


def test_a_malformed_trace_is_refused_before_any_verdict():
    # too few outputs for its horizon, and a horizon past its text: neither
    # may reach a checker and come back with a plausible verdict
    for outputs, text, message in (
        ((0,), Text((0,) * 4), "horizon 4 needs 5 outputs"),
        ((0,) * 6, Text((0,) * 4), "horizon 4 needs 5 outputs"),
        ((0,) * 5, Text((0,)), "horizon 4 exceeds text length 1"),
    ):
        with pytest.raises(ValueError, match=message):
            Trace(outputs=outputs, text=text, horizon=4)
    for bad in (-1, 2.5, True, "4", None):
        message = re.escape(f"horizon must be a natural number, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            Trace(outputs=(0, 0), text=Text((0,) * 4), horizon=bad)

    # an int subclass other than bool is a natural number, as _check_natural has it
    class Nat(int):
        pass

    assert Trace(outputs=(0, 0), text=Text((0,)), horizon=Nat(1)).horizon == 1
    reg = Registry()
    tr = Trace(outputs=(0,) * 5, text=Text((0,) * 4), horizon=4)
    for check in (check_txtfex, check_txtfext):
        assert check(tr, reg, "*", 2).status is Status.PASS_AT_HORIZON


def test_degenerate_window_is_inconclusive():
    reg, a, b, c = _registry()
    tr = Trace((a,), Text((5,)), 0)
    v = check_txtfex(tr, reg, "*", 2)
    assert v.status is Status.INCONCLUSIVE
    assert v.details["reason"] == "degenerate window"


def test_negative_settle_is_a_degenerate_window():
    reg, a, b, c = _registry()
    tr = _trace((a, a, a, a, c, a))
    for check in (check_txtfex, check_txtfext):
        v = check(tr, reg, "*", "*", settle=-2)
        assert v.status is Status.INCONCLUSIVE
        assert v.details["reason"] == "degenerate window"


def test_tail_shift_is_inconclusive():
    reg, a, b, c = _registry()
    # first half all a, second half all c: the settle probe sees a moving tail
    tr = _trace((a,) * 10 + (c,) * 10)
    v = check_txtfex(tr, reg, "*", 2)
    assert v.status is Status.INCONCLUSIVE
    assert "tail still shifting" in v.details["reason"]


def test_late_one_sided_difference_is_inconclusive():
    reg, a, b, c = _registry()
    # d matches a until stage 18, then grows an extra element; the gap is
    # invisible at the early probe, so the strict checker withholds judgement
    d = reg.register(
        StepFunctionEnumerator(lambda s: {0, 1, 5} if s >= 18 else ({0, 1} if s else set()))
    )
    tr = _trace((a, d) * 10)
    v = check_txtfext(tr, reg, "*", 2)
    assert v.status is Status.INCONCLUSIVE
    assert v.details["reason"] == "late one-sided difference"
    assert v.details["pair"]["elements"] == [5]
    # the same shape with an early difference fails instead
    assert check_txtfext(_trace((a, c) * 10), reg, "*", 2).status is Status.FAIL_WITNESSED


def test_verdict_as_dict_is_serializable():
    reg, a, b, c = _registry()
    v = check_txtfex(_trace((a, c) * 10), reg, "*", 1)
    d = v.as_dict()
    assert d["status"] == "FAIL_WITNESSED"
    assert isinstance(d["details"], dict)


def test_bad_index_arguments():
    reg, a, b, c = _registry()
    tr = _trace((a,) * 8)
    with pytest.raises(ValueError, match="natural number or '\\*'"):
        check_txtfex(tr, reg, "**", 2)
    with pytest.raises(ValueError, match="natural number or '\\*'"):
        check_txtfex(tr, reg, "*", -1)


def _fail_verdict(reg, tr):
    """A FAIL that verify_witness accepts, so every refusal is its arguments'."""
    v = check_txtfex(tr, reg, "*", 1)
    assert verify_witness(v, tr, reg, "*", 1)
    return v


def test_bound_and_settle_must_be_well_formed():
    reg, a, b, c = _registry()
    tr = _trace((0,) * 5 + (a, b) * 7 + (a,))
    v = _fail_verdict(reg, tr)
    calls = (
        lambda **kw: check_txtfex(tr, reg, "*", 1, **kw),
        lambda **kw: check_txtfext(tr, reg, "*", 1, **kw),
        lambda **kw: verify_witness(v, tr, reg, "*", 1, **kw),
    )
    for call in calls:
        for bad in (-1, 2.5, True, "3"):
            message = f"bound must be a natural number, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                call(bound=bad)
        for bad in (2.5, True, "3"):
            message = f"settle must be an integer or None, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                call(settle=bad)
    # a negative int settle is still a degenerate window, not a refusal
    assert check_txtfex(tr, reg, "*", 1, settle=-1).status is Status.INCONCLUSIVE
    assert check_txtfext(tr, reg, "*", 1, settle=-1).status is Status.INCONCLUSIVE
    assert verify_witness(v, tr, reg, "*", 1, settle=-1) is False


def test_a_verdict_that_is_not_a_verdict_does_not_verify():
    reg, a, b, c = _registry()
    tr = _trace((0,) * 5 + (a, b) * 7 + (a,))
    v = _fail_verdict(reg, tr)
    # a saved report holds the as_dict() form, whose fields are not attributes
    partial = {"status": "FAIL_WITNESSED", "witness": v.witness}
    for other in (None, partial, v.as_dict()):
        assert verify_witness(other, tr, reg, "*", 1) is False, other


def test_malformed_witnesses_do_not_verify():
    reg, a, b, c = _registry()
    tr = _trace((a, c) * 10)  # a and c differ for good: pairwise and content FAIL
    malformed = [
        "x",
        [a, c],
        {"kind": "cardinality"},
        {"kind": "cardinality", "codes": 5},
        {"kind": "cardinality", "codes": [[a]]},
        {"kind": "content", "code": [a]},
        {"kind": "content", "code": c},
        {"kind": "pairwise", "codes": [a]},
        {"kind": "pairwise", "codes": None},
        {"kind": "pairwise", "codes": [[a], c]},
        {"kind": "pairwise", "codes": [a, c]},
        {"kind": "pairwise", "codes": [a, c], "elements": 3},
        {"kind": ["pairwise"], "codes": [a, c]},
        # True and 1.0 equal codes of the tail but are no codes
        {"kind": "cardinality", "codes": [True]},
        {"kind": "cardinality", "codes": [float(a)]},
        {"kind": "cardinality", "codes": [c, 1.0]},
        {"kind": "content", "code": True, "difference": [1]},
        {"kind": "pairwise", "codes": [True, float(c)], "elements": [1, 2]},
    ]
    for witness in malformed:
        forgery = Verdict(Status.FAIL_WITNESSED, witness, {})
        for i in ("*", 0):
            assert verify_witness(forgery, tr, reg, i, 1) is False, (witness, i)
    # the well-formed witnesses of the same trace still verify
    for check, i in ((check_txtfext, "*"), (check_txtfex, 0)):
        v = check(tr, reg, i, 2)
        assert v.status is Status.FAIL_WITNESSED
        assert verify_witness(v, tr, reg, i, 2), v.witness


def test_pairwise_witness_needs_two_codes():
    reg, a, b, c = _registry()
    # a code that drops 5 after stage 11 differs from itself across stages
    gone = reg.register(StepFunctionEnumerator(lambda s: {5} if s < 12 else set()))
    tr = _trace((a, gone) * 10)
    witness = {"kind": "pairwise", "codes": [gone, gone], "elements": [5]}
    forgery = Verdict(Status.FAIL_WITNESSED, witness, {})
    assert verify_witness(forgery, tr, reg, "*", 2) is False


def _random_scenario(rng, reg, codes):
    horizon = rng.randint(2, 24)
    tail = rng.sample(codes, rng.randint(1, len(codes)))
    outputs = []
    for n in range(horizon + 1):
        if rng.random() < 0.5 and n > horizon // 2:
            outputs.append(tail[n % len(tail)])
        else:
            outputs.append(rng.choice(codes))
    text = Text(tuple(rng.randint(0, 6) for _ in range(horizon)))
    return Trace(tuple(outputs), text, horizon)


def test_strict_pass_implies_loose_pass():
    rng = random.Random(29)
    reg = Registry()
    codes = [0] + [
        reg.register(FiniteSetEnumerator(rng.sample(range(6), rng.randint(0, 3))))
        for _ in range(3)
    ]
    for _ in range(300):
        tr = _random_scenario(rng, reg, codes)
        i = "*" if rng.random() < 0.5 else rng.randint(0, 3)
        j = "*" if rng.random() < 0.3 else rng.randint(1, 3)
        fex = check_txtfex(tr, reg, i, j)
        fext = check_txtfext(tr, reg, i, j)
        if fext.status is Status.PASS_AT_HORIZON:
            assert fex.status is Status.PASS_AT_HORIZON
        if fex.status is Status.FAIL_WITNESSED:
            assert fext.status is Status.FAIL_WITNESSED
            assert verify_witness(fex, tr, reg, i, j)


def test_every_witness_verifies():
    rng = random.Random(31)
    reg = Registry()
    codes = [0] + [
        reg.register(FiniteSetEnumerator(rng.sample(range(6), rng.randint(0, 3))))
        for _ in range(3)
    ]
    seen_fail = 0
    for _ in range(200):
        tr = _random_scenario(rng, reg, codes)
        v = check_txtfext(tr, reg, "*", 2)
        if v.status is Status.FAIL_WITNESSED:
            seen_fail += 1
            assert verify_witness(v, tr, reg, "*", 2)
    assert seen_fail > 0


def _fext_per_pair(trace, reg, i, j, settle=None, bound=64):
    """All-pairs reference for check_txtfext (settle >= 0): four reads per pair."""
    horizon = trace.horizon
    fex = check_txtfex(trace, reg, i, j, settle=settle, bound=bound)
    if fex.status is Status.FAIL_WITNESSED:
        return Verdict(fex.status, fex.witness, dict(fex.details, via="vacillation"))
    tail = set(trace.outputs[fex.details.get("settle", horizon // 2) :])
    early = max(1, horizon // 2)
    late_only = None
    for a, b in combinations(sorted(tail), 2):
        a_early = reg.below(a, bound, early)
        b_early = reg.below(b, bound, early)
        a_full = reg.below(a, bound, horizon)
        b_full = reg.below(b, bound, horizon)
        persistent = (a_early - b_full) | (b_early - a_full)
        if persistent:
            return Verdict(
                Status.FAIL_WITNESSED,
                {
                    "kind": "pairwise",
                    "codes": [a, b],
                    "elements": sorted(persistent),
                    "early_stage": early,
                    "stage": horizon,
                },
                dict(fex.details, via="pairwise"),
            )
        if late_only is None and a_full != b_full:
            late_only = {"codes": [a, b], "elements": sorted(a_full ^ b_full)}
    if fex.status is Status.INCONCLUSIVE:
        return fex
    if late_only is not None:
        return Verdict(
            Status.INCONCLUSIVE,
            None,
            dict(fex.details, reason="late one-sided difference", pair=late_only),
        )
    return Verdict(Status.PASS_AT_HORIZON, None, fex.details)


def _strict_scenarios(seed, count):
    """Traces over twin codes and late growers, with tails of 1 to 40 codes."""
    rng = random.Random(seed)
    reg = Registry()
    families = []  # codes of one base set, some growing one element at a late stage
    for _ in range(10):
        base = frozenset(rng.sample(range(5), rng.randint(0, 2)))
        twins = rng.randint(1, 4)
        family = [reg.register(FiniteSetEnumerator(base)) for _ in range(twins)]
        for _ in range(rng.randint(0, 2)):
            late, extra = rng.randint(1, 80), rng.randint(5, 7)
            grows = StepFunctionEnumerator(
                lambda s, b=base, t=late, x=extra: (b | {x} if s >= t else b) if s else ()
            )
            family.append(reg.register(grows))
        families.append(family)
    codes = [0] + [code for family in families for code in family]
    for _ in range(count):
        horizon = rng.randint(2, 80)
        if rng.random() < 0.4:
            pool = rng.choice(families)
        else:
            pool = rng.sample(codes, rng.randint(1, len(codes)))
        outputs = [rng.choice(codes) for _ in range(horizon // 2)]
        outputs += [pool[n % len(pool)] for n in range(horizon + 1 - len(outputs))]
        text = Text(tuple(rng.randint(0, 6) for _ in range(horizon)))
        settle = None if rng.random() < 0.7 else rng.randint(0, horizon + 1)
        i = "*" if rng.random() < 0.7 else rng.randint(0, 3)
        j = "*" if rng.random() < 0.7 else rng.randint(1, 40)
        yield reg, Trace(tuple(outputs), text, horizon), i, j, settle


def test_strict_checker_matches_the_per_pair_oracle():
    seen = set()
    longest = 0
    for reg, tr, i, j, settle in _strict_scenarios(37, 400):
        v = check_txtfext(tr, reg, i, j, settle=settle)
        assert v == _fext_per_pair(tr, reg, i, j, settle=settle)
        seen.add(v.details.get("via") or v.details.get("reason") or v.status.value)
        longest = max(longest, len(v.details.get("tail_codes", [])))
    assert longest >= 30
    assert seen >= {
        "pairwise",
        "vacillation",
        "late one-sided difference",
        "tail still shifting",
        "degenerate window",
        "PASS_AT_HORIZON",
    }


def test_strict_checker_reads_each_tail_code_once():
    single = 0
    for reg, tr, i, j, settle in _strict_scenarios(41, 400):
        before = reg.query_count
        fex = check_txtfex(tr, reg, i, j, settle=settle)
        loose = reg.query_count - before
        check_txtfext(tr, reg, i, j, settle=settle)
        strict = reg.query_count - before - loose
        tail = fex.details.get("tail_codes", [])
        assert strict <= loose + 2 * len(tail)
        if len(tail) == 1:
            single += 1
            assert strict == loose
    assert single > 0


def test_strict_checker_checks_registry_reads_once_however_long_its_tail(monkeypatch):
    # the tail is read in one batch per stage, so the code, bound and stage
    # checks of Registry._checked do not repeat per tail code
    calls = [0]
    checked = Registry._checked

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return checked(self, *args, **kwargs)

    monkeypatch.setattr(Registry, "_checked", counting)
    made = {}
    for horizon in (100, 400):
        reg = Registry()
        trace = run_learner(FreshLengthLearner(reg), Text(tuple(range(horizon))), horizon)
        calls[0] = 0
        verdict = check_txtfext(trace, reg, "*", "*")
        made[horizon] = calls[0]
        assert len(verdict.details["tail_codes"]) == horizon - horizon // 2 + 1
    assert made[100] == made[400], made


def test_a_refused_strict_read_counts_nothing():
    # codes 1..3 are registered, 9 is not; the tail holds all four
    reg, a, b, c = _registry()
    learner = FunctionLearner(lambda seq: (a, b, c, 9)[len(seq) % 4])
    tr = run_learner(learner, Text(tuple(range(20))), 19)
    assert check_txtfex(tr, reg, "*", "*").details["tail_codes"] == [a, b, c, 9]
    before = reg.query_count
    with pytest.raises(KeyError, match="unregistered hypothesis code 9"):
        check_txtfext(tr, reg, "*", "*")
    assert reg.query_count == before
