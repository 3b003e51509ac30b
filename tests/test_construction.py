"""Stage table dynamics: survival, deaths, re-search, and the brute oracle.

Frozen row values below were computed once by hand-simulating the search
order (least string, length first, then lexicographic) and then pinned.
"""

import random

import pytest

from limitlearn import (
    ConstantLearner,
    Construction,
    FiniteSetEnumerator,
    FreshLengthLearner,
    LengthParityLearner,
    ProfiledFunctionLearner,
    Registry,
    StepFunctionEnumerator,
    Workspace,
    check_stabilizing,
)
from limitlearn.stabilizing import Survival


def _constant(e=0):
    return Construction(ConstantLearner(), e, Registry(), method="profile")


def test_constructor_validation():
    reg = Registry()
    with pytest.raises(ValueError, match="unknown method"):
        Construction(ConstantLearner(), 0, reg, method="magic")
    with pytest.raises(ValueError, match="natural number"):
        Construction(ConstantLearner(), -1, reg)
    unprofiled = type("L", (), {"length_profiled": False, "name": "x"})()
    with pytest.raises(ValueError, match="length-profiled"):
        Construction(unprofiled, 0, reg, method="profile")


def test_stage_zero_seeds_row_zero_with_empty_string():
    c = _constant()
    assert c.stage == 0
    assert c.rows[0].value == ()


def test_constant_rows_grow_one_per_stage():
    c = _constant()
    c.run_to(12)
    rows = c.defined_rows()
    assert rows[0] == (0, (0,))
    assert rows[1] == (1, (0, 1))
    assert rows[5] == (5, (0, 1, 2, 3, 4, 5))
    # row n settles on the string (0, 1, ..., n) at stage n+1, never moves
    for n, v in rows:
        assert v == tuple(range(n + 1))
        assert c.rows[n].events[-1] == (n + 1, v)


def test_constant_rows_shift_with_base_value():
    for e in (1, 2):
        c = _constant(e)
        c.run_to(10)
        for n, v in c.defined_rows():
            assert v == tuple(range(e, e + n + 1))


def test_row_zero_transition_from_empty():
    c = _constant()
    c.run_stage()
    # stage 1: () still qualifies but condition 1 needs 0 in the content
    assert c.rows[0].value == (0,)
    assert c.rows[0].events[0] == (0, ())


def test_parity_rows_churn_at_the_horizon():
    ws = Workspace()
    c = ws.construction("length_parity", 0)
    c.run_to(30)
    assert c.rows[0].value == (0, 0)
    # row 1 only ever holds a maximal-length string, so it moves every stage
    assert len(c.rows[1].value) == 30
    assert c.rows[2].value is None
    assert len(c.rows) == 3
    c.run_to(31)
    assert len(c.rows[1].value) == 31


def test_parity_row_one_value_shape():
    ws = Workspace()
    c = ws.construction("length_parity", 0)
    c.run_to(8)
    # least length-8 extension of (0, 0) covering {0, 1}: all zeros then a one
    assert c.rows[1].value == (0, 0, 0, 0, 0, 0, 0, 1)


def test_fresh_learner_kills_row_zero_at_stage_one():
    ws = Workspace()
    c = ws.construction("fresh_each_step", 0)
    c.run_to(25)
    assert c.rows[0].value is None
    assert c.rows[0].events == [(0, ()), (1, None)]
    assert len(c.rows) == 1
    assert c.defined_rows() == []


def test_value_at_replays_history():
    c = _constant()
    c.run_to(9)
    assert c.value_at(0, 0) == ()
    assert c.value_at(0, 1) == (0,)
    assert c.value_at(3, 3) is None
    assert c.value_at(3, 4) == (0, 1, 2, 3)
    with pytest.raises(ValueError, match="beyond current horizon"):
        c.value_at(0, 10)
    for read in (
        lambda: c.value_at(5, -1),
        lambda: c.observed_a(0, -1),
        lambda: c.observed_b(0, -1),
        lambda: c.a_values(-1),
        lambda: c.b_values(-1),
        lambda: c.value_at(-2, 9),
        lambda: c.observed_a(-1),
        lambda: c.observed_b(-1),
    ):
        with pytest.raises(ValueError, match="negative"):
            read()


def test_chain_property_holds_for_samples():
    ws = Workspace()
    for kind in ("constant_zero", "length_parity"):
        c = ws.construction(kind, 0)
        c.run_to(40)
        assert c.chain_ok()


def test_reverify_final_confirms_live_rows():
    ws = Workspace()
    c = ws.construction("constant_zero", 1)
    c.run_to(30)
    results = c.reverify_final()
    assert results
    assert all(w is None for _, w in results)
    # the brute re-check must agree on small stages
    c2 = Construction(ConstantLearner(), 1, Registry(), method="brute")
    c2.run_to(6)
    assert all(w is None for _, w in c2.reverify_final(method="brute"))


def test_rows_snapshot_shape():
    c = _constant()
    c.run_to(6)
    snap = c.rows_snapshot(3)
    assert len(snap) == 3
    assert snap[0] == {"row": 0, "value": [0], "since": 1, "changes": 1}
    assert snap[1]["value"] == [0, 1]


def test_counters_move():
    c = _constant()
    c.run_to(15)
    assert c.counters["stages"] == 15
    assert c.counters["searches"] > 0


def _paired_constructions(rng):
    """Same learner function over two registries, one per method."""
    reg_a, reg_b = Registry(), Registry()
    members = [rng.sample(range(4), rng.randint(0, 2)) for _ in range(2)]
    pool_a = [0] + [reg_a.register(FiniteSetEnumerator(m)) for m in members]
    pool_b = [0] + [reg_b.register(FiniteSetEnumerator(m)) for m in members]
    table = {m: rng.randrange(len(pool_a)) for m in range(8)}
    mk = lambda pool: ProfiledFunctionLearner(
        lambda m, t=table, p=pool: p[t.get(m, 0)], finite=frozenset(pool)
    )
    e = rng.randint(0, 1)
    return (
        Construction(mk(pool_a), e, reg_a, method="profile"),
        Construction(mk(pool_b), e, reg_b, method="brute"),
    )


def test_profile_run_matches_brute_run():
    rng = random.Random(23)
    for _ in range(12):
        cp, cb = _paired_constructions(rng)
        cp.run_to(5)
        cb.run_to(5)
        assert len(cp.rows) == len(cb.rows)
        for s in range(6):
            for n in range(len(cp.rows)):
                assert cp.value_at(n, s) == cb.value_at(n, s), (s, n)


def test_sample_learners_profile_matches_brute():
    for kind, e in (("constant_zero", 0), ("length_parity", 0), ("fresh_each_step", 1)):
        ws = Workspace()
        cp = ws.construction(kind, e)
        cb = Construction(ws.sample_learner(kind), e, ws.registry, method="brute")
        cp.run_to(6)
        cb.run_to(6)
        assert [r.events for r in cp.rows] == [r.events for r in cb.rows]


def _never_stable_table(rng):
    """Codes that never declare stability, so rows keep codes pending."""
    reg = Registry()
    pool = [0]
    for _ in range(3):
        late = rng.randint(0, 6)
        extra = frozenset(rng.sample(range(2, 8), rng.randint(0, 2)))
        pool.append(
            reg.register(
                StepFunctionEnumerator(lambda s, l=late, x=extra: x if s >= l else ())
            )
        )
    table = {m: rng.choice(pool) for m in range(10)}
    learner = ProfiledFunctionLearner(
        lambda m, t=table: t.get(m, pool[1]), finite=frozenset(pool)
    )
    return Construction(learner, rng.randint(0, 1), reg)


def _profiled_tables():
    for kind in ("constant_zero", "length_parity", "fresh_each_step"):
        for e in (0, 1, 2):
            yield Workspace().construction(kind, e)
    rng = random.Random(31)
    for _ in range(12):
        yield _paired_constructions(rng)[0]
    for _ in range(6):
        yield _never_stable_table(rng)


def test_resumed_rows_match_from_scratch_checks():
    for c in _profiled_tables():
        for s in range(1, 81):
            c.run_stage()
            for n, v in c.defined_rows():
                where = (c.learner.name, c.e, s, n)
                assert check_stabilizing(
                    c.e, n, v, s, c.learner, c.registry, method="profile"
                ) is None, where
                fresh = Survival(len(v), n)
                assert fresh.fold(c.learner, c.registry, len(v), s) is None, where
                qs = c.rows[n].qstate
                assert (qs.checked, qs.pending, qs.settled) == (
                    fresh.checked,
                    fresh.pending,
                    fresh.settled,
                ), where
