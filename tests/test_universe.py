"""Stage-indexed enumerators, the hypothesis registry, and monotonicity checks."""

import random
import re
import sys
from itertools import combinations_with_replacement

import pytest

from limitlearn import (
    SAMPLE_LEARNERS,
    DiscoveryCursor,
    Enumerator,
    FiniteSetEnumerator,
    FreshLengthLearner,
    Registry,
    StepFunctionEnumerator,
    Text,
    UnionEnumerator,
    Workspace,
    check_monotone,
    check_txtfext,
    run_learner,
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


@pytest.mark.parametrize("bad", [-3, True, 1.5, "2"])
def test_step_function_enumerator_refuses_an_element_that_is_not_natural(bad):
    # monotonicity is left unchecked, the elements are not: every read names
    # the element and the stage, under any bound
    reg = Registry()
    code = reg.register(StepFunctionEnumerator(lambda s: {0, bad} if s >= 2 else {0}))
    assert reg.enumerate_to(code, 1) == frozenset({0})
    message = re.escape(f"element at stage 2 must be a natural number, got {bad!r}")
    for read in (
        lambda: reg.enumerate_to(code, 2),
        lambda: reg.below_each((code,), 1, 2),
        lambda: reg.arrivals(code, 0, 3),
        lambda: reg.get(code).at_stage(2),
    ):
        with pytest.raises(ValueError, match=message):
            read()


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
        for read in (
            reg.get,
            lambda c: reg.enumerate_to(c, 3),
            lambda c: reg.arrivals(c, 0, 3),
            lambda c: reg.stable_below(c, 5, 3),
            lambda c: reg.below_each((c,), 5, 3),
            lambda c: reg.below_each((0, c), 5, 3),
        ):
            with pytest.raises(KeyError, match=f"unregistered hypothesis code {code}"):
                read(code)


def test_registry_and_union_take_only_enumerators():
    reg = Registry()
    part = FiniteSetEnumerator({1})
    for bad in (42, "x", None, frozenset({1}), FiniteSetEnumerator):
        message = f"got {type(bad).__name__}$"
        with pytest.raises(ValueError, match=f"a registry codes enumerators, {message}"):
            reg.register(bad)
        with pytest.raises(ValueError, match=f"a union joins enumerators, {message}"):
            UnionEnumerator([part, bad])
    assert len(reg) == 1
    assert reg.register(UnionEnumerator([part, UnionEnumerator(())])) == 1


def test_registry_counts_queries():
    reg = Registry()
    c = reg.register(FiniteSetEnumerator({1}))
    before = reg.query_count
    reg.enumerate_to(c, 3)
    reg.enumerate_to(0, 3)
    assert reg.query_count == before + 2


def test_registry_reads_refuse_what_is_no_natural_number():
    reg = Registry()
    c = reg.register(FiniteSetEnumerator({0, 3}))
    cases = [
        (lambda: reg.below_each((c,), -1, 5), "bound", -1),
        (lambda: reg.below_each((c,), 2.5, 5), "bound", 2.5),
        (lambda: reg.below_each((c,), "x", 5), "bound", "x"),
        (lambda: reg.below_each((c,), 5, -1), "stage", -1),
        (lambda: reg.below_each((c, c), True, 5), "bound", True),
        (lambda: reg.below_each((c, c), 5, 1.0), "stage", 1.0),
        (lambda: reg.stable_below(0, -1, -1), "depth", -1),
        (lambda: reg.stable_below(c, 5, -1), "stage", -1),
    ]
    for read, name, bad in cases:
        message = f"{name} must be a natural number, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read()
    assert reg.query_count == 0

    # an int subclass other than bool is a natural number, as _check_natural has it
    class Nat(int):
        pass

    assert reg.below_each((c,), Nat(1), Nat(1)) == [frozenset({0})]
    assert reg.stable_below(c, Nat(1), Nat(1))
    assert reg.query_count == 1


def test_sym_diff_below():
    reg = Registry()
    a = reg.register(FiniteSetEnumerator({0, 2, 9}))
    b = reg.register(FiniteSetEnumerator({2, 3}))

    def sym_diff_below(h1, h2, bound, s):
        x, y = reg.below_each((h1, h2), bound, s)
        return x ^ y

    assert sym_diff_below(a, b, 5, 1) == frozenset({0, 3})
    assert sym_diff_below(a, b, 5, 0) == frozenset()
    assert sym_diff_below(a, a, 50, 4) == frozenset()


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
    reg = Registry()
    code = reg.register(enum)
    for s0, s1 in combinations_with_replacement(range(13), 2):
        got = reg.arrivals(code, s0, s1)
        before = frozenset(enum.at_stage(s0))
        assert {x: t for x, t in got.items() if x not in before} == _first_stages(
            enum, s0, s1
        ), (s0, s1)


def test_arrivals_of_finite_sets_and_unions_are_exact():
    fin = FiniteSetEnumerator({3, 1})
    assert fin._arrivals(0, 1) == {1: 1, 3: 1}
    assert fin._arrivals(0, 9) == {1: 1, 3: 1}
    assert fin._arrivals(1, 9) == {}
    assert fin._arrivals(0, 0) == {}
    late = StepFunctionEnumerator(lambda s: {7, 3} if s >= 3 else set())
    assert UnionEnumerator((fin, late))._arrivals(2, 3) == {3: 3, 7: 3}
    # the least stage over the parts, whichever part comes first
    assert UnionEnumerator((fin, late))._arrivals(0, 3) == {1: 1, 3: 1, 7: 3}
    assert UnionEnumerator((late, fin))._arrivals(0, 3) == {1: 1, 3: 1, 7: 3}
    assert UnionEnumerator((fin, late))._arrivals(3, 5) == {}


def test_default_arrivals_walks_the_snapshots():
    class Counting(Enumerator):
        def __init__(self):
            self.asked = []

        def _below(self, bound, s):
            self.asked.append(s)
            return frozenset(range(min(s, bound)))

    enum = Counting()
    assert enum._arrivals(3, 6) == {3: 4, 4: 5, 5: 6}
    assert sorted(enum.asked) == [3, 4, 5, 6]


@pytest.mark.parametrize("name", sorted(_contract_cases()))
def test_new_between_refuses_bad_stages(name):
    # Registry.arrivals is the read of what is new between two stages
    enum = _contract_cases()[name]
    reg = Registry()
    code = reg.register(enum)
    with pytest.raises(ValueError, match="stage must be a natural number, got -1"):
        reg.arrivals(code, -1, 3)
    with pytest.raises(ValueError, match="stage must be a natural number, got -2"):
        reg.arrivals(code, 0, -2)
    with pytest.raises(ValueError, match="stage 2 comes before stage 5"):
        reg.arrivals(code, 5, 2)
    # at_stage is checked once, in the base class, for every enumerator
    with pytest.raises(ValueError, match="stage must be a natural number, got -1"):
        enum.at_stage(-1)
    with pytest.raises(ValueError, match="stage must be a natural number, got -1"):
        reg.enumerate_to(code, -1)


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
            assert enum._below(bound, s) == want, (s, bound)
            before = reg.query_count
            assert reg.below_each((code,), bound, s) == [want], (s, bound)
            assert reg.query_count == before + 1


def test_finite_set_below_matches_the_snapshot_filter():
    rng = random.Random(26)
    sets = [set()]
    sets += [{rng.randrange(300)} for _ in range(10)]
    for _ in range(10):
        low = rng.randrange(100)
        sets.append(set(rng.sample(range(low, low + 200), rng.randint(2, 60))))
    reg = Registry()
    for elements in sets:
        enum = FiniteSetEnumerator(elements)
        code = reg.register(enum)
        for s in range(4):
            snapshot = enum.at_stage(s)
            for bound in range(max(elements, default=0) + 3):
                want = frozenset(x for x in snapshot if x < bound)
                assert enum._below(bound, s) == want, (sorted(elements), s, bound)
                before = reg.query_count
                got = reg.below_each((code,), bound, s)
                assert got == [want], (sorted(elements), s, bound)
                assert reg.query_count == before + 1


def _counting_check_natural(monkeypatch) -> list[int]:
    """Count the _check_natural calls of every limitlearn module that imports it."""
    calls = [0]
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "limitlearn" and hasattr(module, "_check_natural"):

            def counting(value, what="value", check=module._check_natural):
                calls[0] += 1
                return check(value, what)

            monkeypatch.setattr(module, "_check_natural", counting)
    return calls


def test_strict_checker_checks_arguments_once_however_long_its_tail(monkeypatch):
    # the checker checks its bound once, and its registry reads check bound
    # and stage once per batch, so the count does not grow with the tail
    calls = _counting_check_natural(monkeypatch)
    made = {}
    for horizon in (100, 400):
        reg = Registry()
        trace = run_learner(FreshLengthLearner(reg), Text(tuple(range(horizon))), horizon)
        before = reg.query_count
        calls[0] = 0
        verdict = check_txtfext(trace, reg, "*", "*")
        made[horizon] = calls[0]
        tail = len(verdict.details["tail_codes"])
        assert tail == horizon - horizon // 2 + 1
        assert reg.query_count - before == 2 * tail
    assert made[100] == made[400], made


@pytest.mark.parametrize("kind", ["constant_zero", "length_parity", "fresh_each_step"])
def test_table_checks_arguments_in_constant_work_per_stage(kind, monkeypatch):
    # the kernel's per-stage below_each and stable_below reads check
    # inline; fresh_each_step checks the one element of each new length's set
    calls = _counting_check_natural(monkeypatch)
    made = {}
    for horizon in (1000, 2000):
        c = Workspace().construction(kind, 0)
        calls[0] = 0
        c.run_to(horizon)
        made[horizon] = calls[0]
        assert made[horizon] <= horizon + 2, (horizon, made)
    assert made[2000] <= 2.2 * made[1000], made


def _batch_registry(seed):
    """A workspace registry of both diagonal views of two tables, plus seeded
    finite sets, unions and step functions; returns it and its codes."""
    rng = random.Random(seed)
    ws = Workspace()
    reg = ws.registry
    for kind in ("length_parity", "fresh_each_step"):
        for variant in ("plain", "hat"):
            ws.diagonal_code(kind, rng.randint(0, 2), variant)
    parts = []
    for _ in range(6):
        finite = FiniteSetEnumerator(rng.sample(range(40), rng.randint(0, 5)))
        start, step = rng.randint(0, 8), rng.randint(1, 4)
        grows = StepFunctionEnumerator(
            lambda s, a=start, d=step: range(a, a + d * s, d) if s >= a else ()
        )
        parts += [finite, grows]
        reg.register(finite)
        reg.register(grows)
        reg.register(UnionEnumerator(rng.sample(parts, rng.randint(0, 2))))
    return rng, reg, list(range(len(reg)))


def _refusal(read):
    """The type and message a read raises; None if it returns."""
    try:
        read()
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed", [51, 52, 53])
def test_below_each_equals_a_below_per_code(seed):
    rng, reg, codes = _batch_registry(seed)
    assert {type(reg.get(c)).__name__ for c in codes} >= {
        "FiniteSetEnumerator",
        "StepFunctionEnumerator",
        "UnionEnumerator",
        "DiagonalView",
    }
    # a diagonal read that advances its table makes queries of its own;
    # reading stage 40 first leaves only the reads under test to count
    reg.below_each(codes, 0, 40)
    batches = [[], [0], [0, 0], codes, codes[::-1] + codes]
    batches += [rng.choices(codes, k=rng.randint(1, 8)) for _ in range(60)]
    for batch in batches:
        bound, s = rng.choice([0, 1, 5, 30, 10**6]), rng.randint(0, 40)
        want = [frozenset(x for x in reg.get(c).at_stage(s) if x < bound) for c in batch]
        before = reg.query_count
        got = reg.below_each(batch, bound, s)
        assert got == want, (batch, bound, s)
        assert reg.query_count - before == len(batch)


@pytest.mark.parametrize("seed", [51, 52])
def test_below_each_refuses_what_below_refuses_and_counts_nothing(seed):
    rng, reg, codes = _batch_registry(seed)
    good = rng.choices(codes, k=5)
    cases = []
    for bad in (len(reg), 10**9, -1, True, 1.0, "0", None):
        # a KeyError's str is its message's repr
        want = (KeyError, repr(f"unregistered hypothesis code {bad!r}"))
        for place in (0, 2, 5):  # first, middle, last
            cases.append((good[:place] + [bad] + good[place:], 5, 3, want))
        # two bad codes: the first one is named, before a bad bound or stage
        cases.append((good[:2] + [bad] + good[2:] + [-7], -1, -1, want))
    for bad in (-1, 2.5, True, "5"):
        for name in ("bound", "stage"):
            want = (ValueError, f"{name} must be a natural number, got {bad!r}")
            for batch in (good, [0], []):
                bound, s = (bad, 3) if name == "bound" else (5, bad)
                cases.append((batch, bound, s, want))
    for batch, bound, s, want in cases:
        before = reg.query_count
        assert _refusal(lambda: reg.below_each(batch, bound, s)) == want, (batch, bound, s)
        assert reg.query_count == before


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
    # enumerate_to alike: one query for a read, a refused read counts none
    assert reg.enumerate_to(c, 2) == frozenset({4})
    assert reg.enumerate_to(0, 2) == frozenset()
    assert reg.query_count == before + 4
    for bad in (9, -1, True, "0"):
        message = re.escape(f"unregistered hypothesis code {bad!r}")
        with pytest.raises(KeyError, match=message):
            reg.enumerate_to(bad, 1)
        with pytest.raises(KeyError, match=message):
            reg.below_each((c, bad), 5, 1)
    for bad in (-1, 2.5, True):
        message = re.escape(f"stage must be a natural number, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            reg.enumerate_to(c, bad)
        with pytest.raises(ValueError, match=message):
            reg.arrivals(c, 0, bad)
    assert reg.query_count == before + 4


def test_an_enumerator_without_below_fails_alike_on_every_read():
    class NoBelow(Enumerator):
        """Overrides at_stage, the contract before _below was the one hook."""

        def at_stage(self, s):
            return frozenset({1})

    reg = Registry()
    code = reg.register(NoBelow())
    union = UnionEnumerator((FiniteSetEnumerator({2}), NoBelow()))
    union_code = reg.register(union)
    reads = [
        lambda: reg.enumerate_to(code, 3),
        lambda: reg.arrivals(code, 0, 3),
        lambda: reg.below_each((code,), 5, 3),
        lambda: reg.below_each((code, 0), 5, 3),
        lambda: union.at_stage(3),
        lambda: reg.arrivals(union_code, 0, 3),
    ]
    for read in reads:
        with pytest.raises(NotImplementedError):
            read()
