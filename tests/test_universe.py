"""Stage-indexed enumerators, the hypothesis registry, and monotonicity checks."""

from itertools import combinations_with_replacement

import pytest

from limitlearn import (
    DiscoveryCursor,
    EmptyEnumerator,
    Enumerator,
    FiniteSetEnumerator,
    Registry,
    StepFunctionEnumerator,
    UnionEnumerator,
    check_monotone,
)


def test_empty_enumerator():
    e = EmptyEnumerator()
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
    c2 = reg.register(EmptyEnumerator())
    assert (c1, c2) == (1, 2)
    assert reg.enumerate_to(c1, 1) == frozenset({7})


def test_registry_unknown_code():
    reg = Registry()
    with pytest.raises(KeyError, match="unregistered hypothesis code 9"):
        reg.get(9)


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


def test_discovery_cursor():
    cur = DiscoveryCursor()
    assert cur.advance({3, 1}) == [1, 3]
    assert cur.advance({3, 1}) == []
    assert cur.advance({5, 1, 0}) == [0, 5]
    assert cur.order == [1, 3, 0, 5]


def test_discovery_cursor_keeps_its_least_element():
    cur = DiscoveryCursor()
    assert cur.least is None
    for elements in ({7, 9}, {8}, set(), {3, 12}, {5}, {3}):
        cur.advance(elements)
        assert cur.least == min(cur.order)
    assert cur.least == 3


# ---------------- new_between: the delta contract ----------------


def _contract_cases():
    """Enumerators whose deltas are computed, not defaulted, plus defaults."""
    late = StepFunctionEnumerator(lambda s: {7} if s >= 3 else set())
    flicker = StepFunctionEnumerator(
        lambda s: {0, 4} | ({1} if s % 3 == 1 else set()) | ({2} if 4 <= s < 7 else set())
    )
    return {
        "empty": EmptyEnumerator(),
        "finite": FiniteSetEnumerator({3, 1, 8}),
        "finite-empty": FiniteSetEnumerator(()),
        "union": UnionEnumerator((FiniteSetEnumerator({1, 5}), late, FiniteSetEnumerator({5}))),
        "union-empty": UnionEnumerator(()),
        "step-non-monotone": flicker,
        "union-non-monotone": UnionEnumerator((flicker, FiniteSetEnumerator({2, 9}))),
    }


@pytest.mark.parametrize("name", sorted(_contract_cases()))
def test_new_between_lies_between_the_delta_and_the_later_stage(name):
    enum = _contract_cases()[name]
    for s0, s1 in combinations_with_replacement(range(13), 2):
        got = enum.new_between(s0, s1)
        later = frozenset(enum.at_stage(s1))
        assert later - frozenset(enum.at_stage(s0)) <= got <= later, (s0, s1)


def test_new_between_of_finite_sets_and_unions_is_exact():
    fin = FiniteSetEnumerator({3, 1})
    assert fin.new_between(0, 1) == frozenset({1, 3})
    assert fin.new_between(0, 9) == frozenset({1, 3})
    assert fin.new_between(1, 9) == frozenset()
    assert fin.new_between(0, 0) == frozenset()
    u = UnionEnumerator((fin, StepFunctionEnumerator(lambda s: {7} if s >= 3 else set())))
    assert u.new_between(2, 3) == frozenset({7})
    assert u.new_between(0, 3) == frozenset({1, 3, 7})
    assert u.new_between(3, 5) == frozenset()


def test_default_new_between_subtracts_two_snapshots():
    class Counting(Enumerator):
        def __init__(self):
            self.asked = []

        def at_stage(self, s):
            self.asked.append(s)
            return frozenset(range(s))

    enum = Counting()
    assert enum.new_between(3, 6) == frozenset({3, 4, 5})
    assert sorted(enum.asked) == [3, 6]


@pytest.mark.parametrize("name", sorted(_contract_cases()))
def test_new_between_refuses_bad_stages(name):
    enum = _contract_cases()[name]
    with pytest.raises(ValueError, match="stage must be a natural number, got -1"):
        enum.new_between(-1, 3)
    with pytest.raises(ValueError, match="stage must be a natural number, got -2"):
        enum.new_between(0, -2)
    with pytest.raises(ValueError, match="stage 2 comes before stage 5"):
        enum.new_between(5, 2)


def test_registry_new_between_counts_one_query_and_checks_its_input():
    reg = Registry()
    c = reg.register(FiniteSetEnumerator({4}))
    before = reg.query_count
    assert reg.new_between(c, 0, 2) == frozenset({4})
    assert reg.new_between(0, 0, 2) == frozenset()
    assert reg.query_count == before + 2
    with pytest.raises(KeyError, match="unregistered hypothesis code 9"):
        reg.new_between(9, 0, 1)
    with pytest.raises(ValueError, match="got -1"):
        reg.new_between(c, -1, 1)
    with pytest.raises(ValueError, match="stage 1 comes before stage 4"):
        reg.new_between(c, 4, 1)
