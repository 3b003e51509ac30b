"""Vacillation-depth estimates over extensions of the surviving base row."""

from limitlearn import Workspace


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
