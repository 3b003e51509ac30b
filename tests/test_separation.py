"""Vacillation-depth estimates over extensions of the surviving base row."""

import random
from itertools import permutations

import pytest

from limitlearn import Construction, Registry, Workspace, construction
from limitlearn.construction import MAX_CODE_LENGTHS, _first_difference_top

from learner_helpers import ProfiledFunctionLearner


def test_constant_learner_has_no_vacillation():
    ws = Workspace()
    c = ws.construction("constant_zero", 0)
    c.run_to(60)
    # single hypothesis on every extension: depth 0
    assert c.separation_level(50) == 0


def test_parity_learner_separates_at_depth_two():
    ws = Workspace()
    c = ws.construction("length_parity", 0)
    c.run_to(60)
    for bound in (50, 100, 200):
        assert c.separation_level(bound) == 2
    ws1 = Workspace()
    c1 = ws1.construction("length_parity", 1)
    c1.run_to(60)
    assert c1.separation_level(50) == 2


def test_separation_needs_a_surviving_base_row():
    ws = Workspace()
    c = ws.construction("fresh_each_step", 0)
    c.run_to(30)
    # row 0 is undefined, so there is no base to measure: no level at all
    assert c.separation_level(50) is None


def _per_length_level(c, stage_bound):
    """separation_level as first written: one length_code per length."""
    row0 = c.rows_snapshot(limit=1)[0]["value"]
    if row0 is None:
        return None
    codes = sorted(
        {c.learner.length_code(m) for m in range(len(row0), stage_bound + 1)}
    )
    if len(codes) <= 1:
        return 0
    sets = [c.registry.below(x, stage_bound, stage_bound) for x in codes]
    return _all_pairs_top(sets) + 1


def _all_pairs_top(sets):
    """_first_difference_top as first written: every ordered pair of places."""
    firsts = (min(only) for a, b in permutations(sets, 2) if (only := a - b))
    return max(firsts, default=-1)


@pytest.mark.parametrize("kind", ["constant_zero", "length_parity", "fresh_each_step"])
def test_separation_level_matches_the_per_length_scan(kind):
    for e in (0, 1, 2):
        fast_ws, slow_ws = Workspace(), Workspace()
        fast = fast_ws.construction(kind, e)
        slow = slow_ws.construction(kind, e)
        fast.run_to(40)
        slow.run_to(40)
        for bound in range(301):
            want = _per_length_level(slow, bound)
            assert fast.separation_level(bound) == want, (e, bound)
        # the same code sets are read, so the registry sees the same queries
        assert fast_ws.registry.query_count == slow_ws.registry.query_count, e


def test_separation_budget_counts_lengths(monkeypatch):
    # fresh_each_step has no finite code set: each length registers a code
    monkeypatch.setattr(construction, "MAX_CODE_LENGTHS", 10)
    c = Workspace().construction("fresh_each_step", 0)
    assert c.rows_snapshot(limit=1)[0]["value"] == []
    assert c.separation_level(9) == _per_length_level(c, 9)
    with pytest.raises(ValueError, match="codes of 11 lengths, over the budget of 10$"):
        c.separation_level(10)
    # a learner with a finite code set reads one code set, whatever the bound
    lp = Workspace().construction("length_parity", 0)
    assert lp.separation_level(100) == 2


def test_separation_level_stops_reading_once_the_declared_codes_show():
    # a _code-only learner: its declared code set, not a shortcut, ends the scan
    learner = ProfiledFunctionLearner(lambda m: 0, finite=frozenset({0}))
    c = Construction(learner, 0, Registry())
    c.run_to(50)
    calls = []
    learner._code = lambda m: calls.append(m) or 0
    assert c.separation_level(1_000_000) == 0
    assert len(calls) <= 2, len(calls)


def test_pruned_scan_matches_all_pairs_on_random_families():
    rng = random.Random(41)
    for _ in range(3000):
        width = rng.randint(1, 12)
        pool = [frozenset(rng.sample(range(width), rng.randint(0, width)))
                for _ in range(rng.randint(1, 4))]
        # duplicates and empty sets come from drawing a small pool repeatedly
        sets = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        sets += [frozenset()] * rng.randint(0, 1)
        rng.shuffle(sets)
        assert _first_difference_top(sets) == _all_pairs_top(sets), sets


class _CountedSet(frozenset):
    """A code set that counts the differences taken with it on the left."""

    differences = 0

    def __sub__(self, other):
        _CountedSet.differences += 1
        return frozenset(self) - other


def test_separation_compares_at_most_one_pair_per_code(monkeypatch):
    c = Workspace().construction("fresh_each_step", 0)
    below, below_each = c.registry.below, c.registry.below_each
    # separation_level reads through below_each, the oracle through below
    monkeypatch.setattr(c.registry, "below", lambda *a: _CountedSet(below(*a)))
    monkeypatch.setattr(
        c.registry, "below_each", lambda *a: list(map(_CountedSet, below_each(*a)))
    )
    monkeypatch.setattr(_CountedSet, "differences", 0)
    # length m's set is {m}, read below the bound, so {bound} reads empty
    assert c.separation_level(40) == 40 == _per_length_level(c, 40)
    # the oracle takes a difference for every ordered pair of the 41 sets
    assert _CountedSet.differences == 1 + 41 * 40
    _CountedSet.differences = 0
    bound = MAX_CODE_LENGTHS - 1  # lengths 0..bound: the whole budget
    assert c.separation_level(bound) == bound
    assert _CountedSet.differences <= MAX_CODE_LENGTHS
