"""Vacillation-depth estimates over extensions of the surviving base row."""

import pytest

from limitlearn import Workspace, construction


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
    sets = {x: c.registry.below(x, stage_bound, stage_bound) for x in codes}
    firsts = [min(sets[a] - sets[b]) for a in codes for b in codes if sets[a] - sets[b]]
    return max(firsts) + 1 if firsts else 0


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
