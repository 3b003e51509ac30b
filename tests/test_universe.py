"""Stage-indexed enumerators, the hypothesis registry, and monotonicity checks."""

import re
from itertools import combinations_with_replacement

import pytest

from limitlearn import (
    SAMPLE_LEARNERS,
    DiscoveryCursor,
    Enumerator,
    FiniteSetEnumerator,
    Registry,
    StepFunctionEnumerator,
    UnionEnumerator,
    Workspace,
    check_monotone,
)


def test_empty_enumerator():
    e = FiniteSetEnumerator(())
    assert e.at_stage(0) == frozenset()
    assert e.at_stage(50) == frozenset()
    assert e.stable_below(10, 0)


def test_finite_set_enumerator_appears_at_stage_one():
    e = FiniteSetEnumerator({3, 1})
    assert e.at_stage(0) == frozenset()
    assert e.at_stage(1) == frozenset({1, 3})
    assert e.at_stage(9) == frozenset({1, 3})
    assert not e.stable_below(5, 0)
    assert e.stable_below(5, 1)


def test_union_enumerator():
    u = UnionEnumerator((FiniteSetEnumerator({1}), FiniteSetEnumerator({2, 5})))
    assert u.at_stage(0) == frozenset()
    assert u.at_stage(2) == frozenset({1, 2, 5})


def test_step_function_enumerator_is_a_bare_wrapper():
    # no monotonicity enforcement on purpose: it exists to inject faults
    e = StepFunctionEnumerator(lambda s: {0, 1} if s == 3 else {0})
    assert e.at_stage(2) == frozenset({0})
    assert e.at_stage(3) == frozenset({0, 1})
    assert e.at_stage(4) == frozenset({0})


def test_registry_code_zero_is_empty():
    reg = Registry()
    assert reg.enumerate_to(0, 100) == frozenset()


def test_registry_sequential_codes():
    reg = Registry()
    c1 = reg.register(FiniteSetEnumerator({7}))
    c2 = reg.register(FiniteSetEnumerator(()))
    assert (c1, c2) == (1, 2)
    assert reg.enumerate_to(c1, 1) == frozenset({7})


def test_registry_unknown_code():
    reg = Registry()
    with pytest.raises(KeyError, match="unregistered hypothesis code 9"):
        reg.get(9)
    # codes are ints: a bool is no code, though True == 1 and False == 0
    reg.register(FiniteSetEnumerator({2}))
    for code in (True, False):
        assert code not in reg
        for read in (
            reg.get,
            lambda c: reg.enumerate_to(c, 3),
            lambda c: reg.arrivals(c, 0, 3),
            lambda c: reg.stable_below(c, 5, 3),
            lambda c: reg.below(c, 5, 3),
            lambda c: reg.sym_diff_below(0, c, 5, 3),
        ):
            with pytest.raises(KeyError, match=f"unregistered hypothesis code {code}"):
                read(code)


def test_registry_counts_queries():
    reg = Registry()
    c = reg.register(FiniteSetEnumerator({1}))
    before = reg.query_count
    reg.enumerate_to(c, 3)
    reg.enumerate_to(0, 3)
    assert reg.query_count == before + 2


def test_sym_diff_below():
    reg = Registry()
    a = reg.register(FiniteSetEnumerator({0, 2, 9}))
    b = reg.register(FiniteSetEnumerator({2, 3}))
    assert reg.sym_diff_below(a, b, 5, 1) == frozenset({0, 3})
    assert reg.sym_diff_below(a, b, 5, 0) == frozenset()
    assert reg.sym_diff_below(a, a, 50, 4) == frozenset()


def test_check_monotone_clean():
    reg = Registry()
    codes = [reg.register(FiniteSetEnumerator({i})) for i in range(4)]
    assert check_monotone(reg, [0] + codes, 30) == []


def test_check_monotone_catches_injected_fault():
    reg = Registry()
    # element 4 vanishes at stage 6: a deliberate violation
    bad = reg.register(StepFunctionEnumerator(lambda s: {4} if 2 <= s < 6 else set()))
    violations = check_monotone(reg, [bad], 10)
    # reported at the last stage the element was still present
    assert violations == [(bad, 5, 4)]


def test_check_monotone_refuses_a_bad_stage_bound():
    reg = Registry()
    for bad in (-1, 2.5, True, "3"):
        message = f"stage bound s_max must be a natural number, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_monotone(reg, [0], bad)


def test_discovery_cursor():
    cur = DiscoveryCursor()
    assert cur.advance({3, 1}) == [1, 3]
    assert cur.advance({3, 1}) == []
    assert cur.advance({5, 1, 0}) == [0, 5]
    assert cur.order == [1, 3, 0, 5]


# ---------------- arrivals: each new element with its first stage ----------------


def _contract_cases():
    """Enumerators whose arrivals are computed, not defaulted, plus defaults."""
    late = StepFunctionEnumerator(lambda s: {7} if s >= 3 else set())
    flicker = StepFunctionEnumerator(
        lambda s: {0, 4} | ({1} if s % 3 == 1 else set()) | ({2} if 4 <= s < 7 else set())
    )
    return {
        "empty": FiniteSetEnumerator(()),
        "finite": FiniteSetEnumerator({3, 1, 8}),
        "finite-empty": FiniteSetEnumerator(()),
        "union": UnionEnumerator((FiniteSetEnumerator({1, 5}), late, FiniteSetEnumerator({5}))),
        "union-empty": UnionEnumerator(()),
        "step-non-monotone": flicker,
        "union-non-monotone": UnionEnumerator((flicker, FiniteSetEnumerator({2, 9}))),
        # the part listed last shows 2 later than the first one does
        "union-late-part": UnionEnumerator((FiniteSetEnumerator({2, 9}), flicker)),
    }


def _first_stages(enum, s0, s1):
    """The oracle: each x outside at_stage(s0) that a snapshot of stages
    s0+1..s1 shows, mapped to the first of those snapshots."""
    before = frozenset(enum.at_stage(s0))
    out = {}
    for t in range(s0 + 1, s1 + 1):
        for x in enum.at_stage(t):
            if x not in before:
                out.setdefault(x, t)
    return out


@pytest.mark.parametrize("name", sorted(_contract_cases()))
def test_arrivals_tag_each_new_element_with_its_first_stage(name):
    enum = _contract_cases()[name]
    for s0, s1 in combinations_with_replacement(range(13), 2):
        got = enum.arrivals(s0, s1)
        before = frozenset(enum.at_stage(s0))
        assert {x: t for x, t in got.items() if x not in before} == _first_stages(
            enum, s0, s1
        ), (s0, s1)


def test_arrivals_of_finite_sets_and_unions_are_exact():
    fin = FiniteSetEnumerator({3, 1})
    assert fin.arrivals(0, 1) == {1: 1, 3: 1}
    assert fin.arrivals(0, 9) == {1: 1, 3: 1}
    assert fin.arrivals(1, 9) == {}
    assert fin.arrivals(0, 0) == {}
    late = StepFunctionEnumerator(lambda s: {7, 3} if s >= 3 else set())
    assert UnionEnumerator((fin, late)).arrivals(2, 3) == {3: 3, 7: 3}
    # the least stage over the parts, whichever part comes first
    assert UnionEnumerator((fin, late)).arrivals(0, 3) == {1: 1, 3: 1, 7: 3}
    assert UnionEnumerator((late, fin)).arrivals(0, 3) == {1: 1, 3: 1, 7: 3}
    assert UnionEnumerator((fin, late)).arrivals(3, 5) == {}


def test_default_arrivals_walks_the_snapshots():
    class Counting(Enumerator):
        def __init__(self):
            self.asked = []

        def at_stage(self, s):
            self.asked.append(s)
            return frozenset(range(s))

    enum = Counting()
    assert enum.arrivals(3, 6) == {3: 4, 4: 5, 5: 6}
    assert sorted(enum.asked) == [3, 4, 5, 6]


@pytest.mark.parametrize("name", sorted(_contract_cases()))
def test_new_between_refuses_bad_stages(name):
    # arrivals is the read of what is new between two stages
    enum = _contract_cases()[name]
    with pytest.raises(ValueError, match="stage must be a natural number, got -1"):
        enum.arrivals(-1, 3)
    with pytest.raises(ValueError, match="stage must be a natural number, got -2"):
        enum.arrivals(0, -2)
    with pytest.raises(ValueError, match="stage 2 comes before stage 5"):
        enum.arrivals(5, 2)
    with pytest.raises(ValueError, match="stage must be a natural number, got -1"):
        enum.below(5, -1)


def _below_cases():
    """Every contract case (e = 0) and every sample diagonal view, registered."""
    reg = Registry()
    cases = {name: (reg, reg.register(enum), 0) for name, enum in _contract_cases().items()}
    ws = Workspace()
    for kind in SAMPLE_LEARNERS:
        for e in (0, 1, 2):
            for variant in ("plain", "hat"):
                code = ws.diagonal_code(kind, e, variant)
                cases[f"{kind}-e{e}-{variant}"] = (ws.registry, code, e)
    return cases


@pytest.mark.parametrize("name", sorted(_below_cases()))
def test_below_is_the_snapshot_under_the_bound(name):
    reg, code, e = _below_cases()[name]
    enum = reg.get(code)
    for s in range(41):
        snapshot = enum.at_stage(s)
        for bound in (0, 1, e, e + 1, s, s + 1, s + 2, 10**6):
            want = frozenset(x for x in snapshot if x < bound)
            assert enum.below(bound, s) == want, (s, bound)
            before = reg.query_count
            assert reg.below(code, bound, s) == want, (s, bound)
            assert reg.query_count == before + 1


def test_registry_arrivals_counts_one_query_and_checks_its_input():
    reg = Registry()
    c = reg.register(FiniteSetEnumerator({4}))
    before = reg.query_count
    assert reg.arrivals(c, 0, 2) == {4: 1}
    assert reg.arrivals(0, 0, 2) == {}
    assert reg.query_count == before + 2
    with pytest.raises(KeyError, match="unregistered hypothesis code 9"):
        reg.arrivals(9, 0, 1)
    with pytest.raises(ValueError, match="got -1"):
        reg.arrivals(c, -1, 1)
    with pytest.raises(ValueError, match="stage 1 comes before stage 4"):
        reg.arrivals(c, 4, 1)
