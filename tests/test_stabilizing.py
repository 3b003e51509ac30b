"""Stabilizing-pair checks: the profiled check against brute enumeration.

The brute oracle (tests/brute_oracle.py) literally enumerates every
admissible extension up to the budget. Budgets stay tiny (s <= 4) because
brute cost is exponential in s.
"""

import random
import re
import time

import pytest

from limitlearn import (
    ConstantLearner,
    FiniteSetEnumerator,
    FreshLengthLearner,
    GapParityLearner,
    LengthParityLearner,
    Registry,
    StabWitness,
    StepFunctionEnumerator,
    Workspace,
    base_qualifies,
    check_stabilizing,
    stab_witness_valid,
)

from brute_oracle import candidate_strings, check_brute
from learner_helpers import ProfiledFunctionLearner


def test_base_qualifies():
    assert base_qualifies((), 0, 0)
    assert base_qualifies((0, 1), 2, 0)
    assert not base_qualifies((0, 1, 2), 2, 0)      # too long for the budget
    assert not base_qualifies((0, 3), 2, 0)         # 3 exceeds the budget
    assert not base_qualifies((0,), 2, 1)           # 0 below the base value


def _scan_covers(e, k, sigma):
    """Condition 1 by a scan of every value: nothing below e, e..e+k all met."""
    return all(x >= e for x in sigma) and set(range(e, e + k + 1)) <= set(sigma)


def test_base_qualifies_and_condition_one_match_a_scan_of_every_value():
    rng = random.Random(3)
    learner, reg = ConstantLearner(), Registry()
    for _ in range(3000):
        e, k, s = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 6)
        sigma = tuple(rng.randint(0, 7) for _ in range(rng.randint(0, 7)))
        want = len(sigma) <= s and all(e <= x <= s for x in sigma)
        assert base_qualifies(sigma, s, e) == want, (sigma, s, e)
        w = check_stabilizing(e, k, sigma, s, learner, reg)
        assert (w is not None and w.violated_condition == 1) == (
            not _scan_covers(e, k, sigma)
        )


def _random_condition_one_cases(rng):
    """Strings around e..e+k: shuffled covers with duplicates, a value dropped,
    values below e, above e+k and above s mixed in, and the empty string."""
    for _ in range(1500):
        e, k = rng.randint(0, 3), rng.randint(0, 40)
        s = rng.randint(0, e + k + 20)
        sigma = list(range(e, e + k + 1))
        if rng.random() < 0.4:
            sigma.remove(rng.randint(e, e + k))
        sigma += rng.choices(range(e, e + k + 1), k=rng.randint(0, 300 - len(sigma)))
        if rng.random() < 0.3 and e:
            sigma.append(rng.randrange(e))
        if rng.random() < 0.4:
            sigma.append(e + k + rng.randint(1, 3))
        if rng.random() < 0.3:
            sigma.append(s + rng.randint(1, 3))
        rng.shuffle(sigma)
        yield e, k, tuple(sigma[: rng.randint(0, 300)]), s
    for e in range(3):
        for k in range(3):
            yield e, k, (), 5


def _table_condition_one_cases():
    """Every row string of two sample tables up to stage 200, at nearby depths."""
    for kind in ("constant_zero", "length_parity"):
        for e in (0, 1, 2):
            c = Workspace().construction(kind, e)
            c.run_to(200)
            rows = set()
            for s in range(201):
                rows.update((n, tuple(v)) for n, v in enumerate(c._strings(s)))
            for n, sigma in sorted(rows):
                for k in {0, max(n - 1, 0), n, n + 1}:
                    yield e, k, sigma, 200


def test_condition_one_by_count_matches_the_scan():
    learner, reg = ConstantLearner(), Registry()
    cases = [*_random_condition_one_cases(random.Random(29))]
    cases += _table_condition_one_cases()
    verdicts = set()
    for e, k, sigma, s in cases:
        covers = _scan_covers(e, k, sigma)
        verdicts.add(covers)
        w = check_stabilizing(e, k, sigma, s, learner, reg)
        assert (w is not None and w.violated_condition == 1) == (not covers), (e, k, s)
        claim = StabWitness(tau=sigma, t=0, violated_condition=1)
        assert stab_witness_valid(claim, e, k, sigma, s, learner, reg) == (not covers)
    assert verdicts == {True, False}


def test_candidate_strings_enumeration_order():
    got = candidate_strings((1,), 2, 1)
    assert got == [(1,), (1, 1), (1, 2)]
    # length capped by the budget, values drawn from [e, s], shortest first
    assert candidate_strings((), 1, 0) == [(), (0,), (1,)]
    assert candidate_strings((), 2, 1) == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert candidate_strings((0, 5), 3, 0) == []    # base itself not admissible
    with pytest.raises(ValueError, match="2396745 candidate strings"):
        candidate_strings((), 7, 0)                 # 8^0 + ... + 8^7, past the budget


def test_brute_check_past_its_budget_fails_fast():
    started = time.monotonic()
    # 9^0 + ... + 9^7 extensions of (0,) over [0, 8]
    with pytest.raises(
        ValueError,
        match="5380840 candidate strings at stage 8, over the budget of 1000000",
    ):
        check_brute(0, 0, (0,), 8, ConstantLearner(), Registry())
    assert time.monotonic() - started < 1


def test_condition_one_rejections():
    reg = Registry()
    m = ConstantLearner()
    # content must contain e..e+k
    w = check_brute(0, 1, (0,), 4, m, reg)
    assert w is not None and w.violated_condition == 1
    # content must avoid values below e
    w = check_brute(2, 0, (2, 1), 4, m, reg)
    assert w is not None and w.violated_condition == 1


def test_constant_learner_stabilizes_immediately():
    reg = Registry()
    m = ConstantLearner()
    for check in (check_brute, check_stabilizing):
        assert check(0, 0, (0,), 3, m, reg) is None
        assert check(1, 1, (1, 2), 4, m, reg) is None


def test_profile_requires_profiled_learner():
    reg = Registry()
    m = LengthParityLearner(reg)
    unprofiled = type("L", (), {"length_profiled": False, "decide": lambda self, s: 0})()
    with pytest.raises(ValueError, match="length-profiled"):
        check_stabilizing(0, 0, (0,), 2, unprofiled, reg)
    # one check, no method to choose
    with pytest.raises(TypeError, match="method"):
        check_stabilizing(0, 0, (0,), 2, m, reg, method="profile")


def test_an_unprofiled_learner_is_refused_before_sigma_is_read():
    # the empty sigma fails condition 1 and "x" is no natural number, but
    # the learner is tested first, so every sigma meets the same refusal
    reg = Registry()
    learner = GapParityLearner(lambda e, variant: 0)
    for sigma in ((), (0,), ("x",)):
        with pytest.raises(ValueError, match="length-profiled"):
            check_stabilizing(0, 0, sigma, 3, learner, reg)


def test_fresh_learner_never_stabilizes_with_budget():
    reg = Registry()
    m = FreshLengthLearner(reg)
    # any extension pushes the output code past the current string length
    for check in (check_brute, check_stabilizing):
        w = check(0, 0, (0,), 3, m, reg)
        assert w is not None
        assert w.violated_condition == 2
        assert stab_witness_valid(w, 0, 0, (0,), 3, m, reg)


def _random_profiled(rng):
    reg = Registry()
    pool = [0]
    for _ in range(3):
        members = rng.sample(range(5), rng.randint(0, 3))
        pool.append(reg.register(FiniteSetEnumerator(members)))
    table = {m: rng.choice(pool) for m in range(10)}
    learner = ProfiledFunctionLearner(
        lambda m, t=table: t.get(m, 0), finite=frozenset(pool)
    )
    return reg, learner


def test_profile_agrees_with_brute_on_sample_learners():
    rng = random.Random(7)
    cases = []
    reg_c = Registry()
    cases.append((reg_c, ConstantLearner()))
    reg_p = Registry()
    cases.append((reg_p, LengthParityLearner(reg_p)))
    reg_f = Registry()
    cases.append((reg_f, FreshLengthLearner(reg_f)))
    for reg, learner in cases:
        for _ in range(200):
            e = rng.randint(0, 2)
            k = rng.randint(0, 2)
            s = rng.randint(0, 4)
            sigma = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 3)))
            brute = check_brute(e, k, sigma, s, learner, reg)
            prof = check_stabilizing(e, k, sigma, s, learner, reg)
            assert (brute is None) == (prof is None), (learner.name, e, k, sigma, s)
            for w in (brute, prof):
                if w is not None:
                    assert stab_witness_valid(w, e, k, sigma, s, learner, reg)


def test_profile_agrees_with_brute_on_random_learners():
    rng = random.Random(19)
    for _ in range(25):
        reg, learner = _random_profiled(rng)
        for _ in range(40):
            e = rng.randint(0, 2)
            k = rng.randint(0, 2)
            s = rng.randint(0, 4)
            sigma = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 3)))
            brute = check_brute(e, k, sigma, s, learner, reg)
            prof = check_stabilizing(e, k, sigma, s, learner, reg)
            assert (brute is None) == (prof is None), (e, k, sigma, s)
            for w in (brute, prof):
                if w is not None:
                    assert stab_witness_valid(w, e, k, sigma, s, learner, reg)


def test_witness_round_trips_through_as_dict():
    reg = Registry()
    m = FreshLengthLearner(reg)
    w = check_stabilizing(0, 0, (0,), 3, m, reg)
    d = w.as_dict()
    assert d["violated_condition"] == 2
    assert tuple(d["tau"]) == w.tau


def test_invalid_witness_is_rejected():
    reg = Registry()
    m = ConstantLearner()
    w = check_brute(0, 1, (0,), 4, m, reg)
    assert w is not None
    # the same witness transplanted onto a passing instance must not validate
    assert not stab_witness_valid(w, 0, 0, (0,), 3, m, reg)


def test_instance_arguments_must_be_natural():
    reg = Registry()
    m = LengthParityLearner(reg)
    w = check_stabilizing(0, 1, (0, 1), 5, m, reg)
    assert stab_witness_valid(w, 0, 1, (0, 1), 5, m, reg)
    names = ("base value e", "depth k", "stage budget s")
    for bad in (-1, 2.5, True, "3"):
        for place, name in enumerate(names):
            eks = [0, 1, 5]
            eks[place] = bad
            e, k, s = eks
            message = f"{name} must be a natural number, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                check_stabilizing(e, k, (0, 1), s, m, reg)
            with pytest.raises(ValueError, match=re.escape(message)):
                stab_witness_valid(w, e, k, (0, 1), s, m, reg)
    # sigma's values are checked once, on its content: True is no 1 here
    for sigma, bad in (((0, True), True), (("a",), "a"), ((0, -1), -1)):
        message = f"sigma value must be a natural number, got {bad!r}"
        for form in (sigma, list(sigma)):
            with pytest.raises(ValueError, match=re.escape(message)):
                check_stabilizing(0, 1, form, 5, m, reg)
            with pytest.raises(ValueError, match=re.escape(message)):
                stab_witness_valid(w, 0, 1, form, 5, m, reg)


def _late_disagreement():
    # code 2 gains 1 at stage 4, so it parts from code 1 below depth 2 there
    reg = Registry()
    a = reg.register(FiniteSetEnumerator({0}))
    b = reg.register(StepFunctionEnumerator(lambda s: {0} if s < 4 else {0, 1}))
    return reg, ProfiledFunctionLearner(lambda m: a if m < 4 else b)


def _fresh_registry(make):
    reg = Registry()
    return reg, make(reg)


_PINNED_WITNESSES = [
    (LengthParityLearner, 0, 1, (0, 1), 5, ([0, 1, 0], 0, 3), 2),
    (LengthParityLearner, 1, 1, (1, 2), 5, ([1, 2, 1], 0, 3), 2),
    (LengthParityLearner, 0, 0, (0,), 3, ([0], 0, 2), 0),
    (LengthParityLearner, 0, 2, (0, 1, 2), 6, ([0, 1, 2, 0], 0, 3), 2),
    # depth 0 makes condition 3 vacuous, so no registry query is needed
    (LengthParityLearner, 0, 0, (0, 0), 6, None, 0),
    (FreshLengthLearner, 0, 0, (0,), 3, ([0], 0, 2), 0),
    (FreshLengthLearner, 1, 1, (1, 2, 1), 7, ([1, 2, 1], 0, 2), 0),
    (lambda reg: ConstantLearner(), 0, 1, (0, 1), 4, None, 0),
    ("late", 0, 2, (0, 1, 2), 6, ([0, 1, 2, 0], 1, 3), 4),
    ("late", 0, 2, (0, 1, 2), 3, None, 0),
    # condition 1 reads sigma alone: e missing, then a value below e
    (LengthParityLearner, 0, 1, (0,), 4, ([0], 0, 1), 0),
    (LengthParityLearner, 2, 0, (2, 1), 4, ([2, 1], 0, 1), 0),
]


@pytest.mark.parametrize("setup, e, k, sigma, s, witness, queries", _PINNED_WITNESSES)
def test_profile_witnesses_are_pinned(setup, e, k, sigma, s, witness, queries):
    reg, learner = _late_disagreement() if setup == "late" else _fresh_registry(setup)
    w = check_stabilizing(e, k, sigma, s, learner, reg)
    assert reg.query_count == queries
    if witness is None:
        assert w is None
    else:
        tau, t, condition = witness
        assert w.as_dict() == {"tau": tau, "t": t, "violated_condition": condition}
        assert stab_witness_valid(w, e, k, sigma, s, learner, reg)


def test_list_and_tuple_sigma_agree_on_every_condition():
    # a witness's tau is a tuple whatever sigma's type, and either form of
    # sigma confirms it
    conditions = set()
    for setup, e, k, sigma, s, _, _ in _PINNED_WITNESSES:
        reg, learner = _late_disagreement() if setup == "late" else _fresh_registry(setup)
        w = check_stabilizing(e, k, sigma, s, learner, reg)
        assert check_stabilizing(e, k, list(sigma), s, learner, reg) == w
        if w is not None:
            assert type(w.tau) is tuple
            for form in (sigma, list(sigma)):
                assert stab_witness_valid(w, e, k, form, s, learner, reg)
        conditions.add(w and w.violated_condition)
    assert conditions == {None, 1, 2, 3}
