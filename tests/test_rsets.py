"""Marker observation and the two diagonal sets built from confirmation stages."""

import pytest

from limitlearn import DiagonalView, Workspace


def _table(kind, e, horizon):
    ws = Workspace()
    c = ws.construction(kind, e)
    c.run_to(horizon)
    return c


def test_constant_markers():
    c = _table("constant_zero", 0, 60)
    assert c.a_values()[:8] == [2, 4, 4, 6, 6, 8, 8, 10]
    assert c.b_values()[:8] == [3, 5, 5, 7, 7, 9, 9, 11]
    # markers at shifted base values
    assert _table("constant_zero", 1, 40).a_values()[:6] == [4, 4, 6, 6, 8, 8]
    assert _table("constant_zero", 2, 40).a_values()[:6] == [4, 6, 6, 8, 8, 10]


def test_markers_have_fixed_parity():
    for kind, e in (("constant_zero", 0), ("constant_zero", 2), ("length_parity", 1)):
        c = _table(kind, e, 40)
        for ell, a in enumerate(c.a_values()):
            assert a % 2 == 0
            assert a > e + ell + 1
        for a, b in zip(c.a_values(), c.b_values()):
            assert b == a + 1


def test_single_marker_queries():
    c = _table("constant_zero", 0, 20)
    assert c.a_values()[0] == 2
    assert c.b_values()[0] == 3
    assert c.a_values()[9] == 12
    # depth 18's window lands exactly on the horizon; depth 19 is past it
    assert c.a_values()[18] == 20
    assert len(c.a_values()) == 19


def test_marker_history():
    c = _table("constant_zero", 0, 20)
    assert c.a_values(s=4) == [2, 4, 4]
    assert c.a_values(s=10) == [2, 4, 4, 6, 6, 8, 8, 10, 10]


def test_parity_marker_rides_the_horizon():
    c = _table("length_parity", 0, 31)
    # the churn row only admits a window at the horizon itself, even stages only
    assert c.a_values() == [2]
    assert c.a_values(s=30) == [2, 30]
    c.run_to(32)
    assert c.a_values() == [2, 32]
    assert c.b_values() == [3]


def test_marker_reads_past_the_horizon_raise():
    c = _table("length_parity", 0, 31)
    for read in (
        lambda: c.a_values(s=32),
        lambda: c.b_values(s=32),
        lambda: c.a_values(s=10**9),
        lambda: c.r_prefix(20, "plain", s=32),
        lambda: c.r_prefix(20, "hat", s=32),
    ):
        with pytest.raises(ValueError, match="stage .* beyond current horizon 31"):
            read()
    # the horizon's answer was not the answer at stage 32
    c.run_to(32)
    assert c.a_values(s=32) == [2, 32]


def test_fresh_learner_has_no_markers():
    c = _table("fresh_each_step", 0, 30)
    assert c.a_values() == []
    assert c.b_values() == []


def test_constant_confirmation_stages():
    c = _table("constant_zero", 0, 30)
    plain = [c.confirmation_stage(x, "plain") for x in range(11)]
    hat = [c.confirmation_stage(x, "hat") for x in range(11)]
    assert plain == [0, 1, None, 3, None, 5, None, 7, None, 9, None]
    assert hat == [0, 1, 2, None, 4, None, 6, None, 8, None, 10]


def test_hat_confirmation_shifts_plain_by_one():
    c = _table("constant_zero", 0, 30)
    for x in range(1, 25):
        p = c.confirmation_stage(x - 1, "plain")
        h = c.confirmation_stage(x, "hat")
        if p is None:
            assert h is None
        else:
            assert h == max(p, x)
    assert c.confirmation_stage(0, "hat") == 0


def test_confirmation_needs_the_table_first():
    c = _table("constant_zero", 0, 10)
    with pytest.raises(ValueError, match="needs the table run to stage 25"):
        c.confirmation_stage(25, "plain")
    with pytest.raises(ValueError, match="unknown variant"):
        c.confirmation_stage(3, "checked")


def test_constant_r_prefixes():
    c = _table("constant_zero", 0, 60)
    assert c.r_prefix(20, "plain") == frozenset({0, 1}) | frozenset(range(3, 20, 2))
    assert c.r_prefix(20, "hat") == frozenset({0, 1, 2}) | frozenset(range(4, 20, 2))
    c1 = _table("constant_zero", 1, 40)
    assert c1.r_prefix(12, "plain") == frozenset({1, 2, 3, 5, 7, 9, 11})
    assert c1.r_prefix(12, "hat") == frozenset({1, 2, 3, 4, 6, 8, 10})


def test_parity_r_prefixes_drop_one_marker_each():
    c = _table("length_parity", 0, 60)
    universe = frozenset(range(12))
    assert c.r_prefix(12, "plain") == universe - {2}
    assert c.r_prefix(12, "hat") == universe - {3}
    c1 = _table("length_parity", 1, 60)
    assert c1.r_prefix(12, "plain") == frozenset(range(1, 12)) - {4}
    assert c1.r_prefix(12, "hat") == frozenset(range(1, 12)) - {5}


def test_fresh_diagonal_is_everything():
    c = _table("fresh_each_step", 0, 30)
    for variant in ("plain", "hat"):
        assert DiagonalView(c, variant).at_stage(12) == frozenset(range(13))


def test_diagonal_at_stage_matches_confirmations():
    c = _table("constant_zero", 0, 30)
    for s in (5, 12, 27):
        for variant in ("plain", "hat"):
            want = frozenset(
                x
                for x in range(s + 1)
                if (v := c.confirmation_stage(x, variant)) is not None and v <= s
            )
            assert DiagonalView(c, variant).at_stage(s) == want


def test_diagonal_stages_are_monotone():
    for kind in ("constant_zero", "length_parity"):
        c = _table(kind, 0, 50)
        for variant in ("plain", "hat"):
            prev = frozenset()
            for s in range(50):
                cur = DiagonalView(c, variant).at_stage(s)
                assert prev <= cur
                prev = cur


def test_diagonal_view_delegates_and_extends():
    ws = Workspace()
    code = ws.diagonal_code("constant_zero", 0, "plain")
    got = ws.registry.enumerate_to(code, 25)
    c = ws.construction("constant_zero", 0)
    assert got == DiagonalView(c, "plain").at_stage(25)
    # stage 25 forced the underlying table at least that far
    assert c.stage >= 25


def test_diagonal_enumerator_rejects_a_negative_stage():
    ws = Workspace()
    code = ws.diagonal_code("constant_zero", 0, "plain")
    c = ws.construction("constant_zero", 0)
    for read in (
        lambda: ws.registry.enumerate_to(code, -1),
        lambda: DiagonalView(c, "hat").at_stage(-3),
        lambda: ws.registry.enumerate_to(0, -1),
    ):
        with pytest.raises(ValueError, match="stage must be a natural number"):
            read()


def test_r_prefix_history():
    c = _table("constant_zero", 0, 30)
    assert c.r_prefix(8, "plain", s=6) == frozenset({0, 1, 3, 5, 7})
    # exclusion view: at stage 6 only markers up to depth 4 are visible, so
    # the set reads larger than it will once later markers appear
    assert c.r_prefix(30, "plain", s=6) >= c.r_prefix(30, "plain")
    assert c.r_prefix(30, "plain", s=6) - c.r_prefix(30, "plain") == frozenset(
        range(8, 30, 2)
    )


def test_diagonal_rejects_an_unknown_variant():
    # below e the set is empty whatever the variant, so only a check finds these
    for e, s, variant in ((1, 0, "bogus"), (3, 2, "hatt")):
        c = Workspace().construction("constant_zero", e)
        with pytest.raises(ValueError, match="unknown variant"):
            DiagonalView(c, variant).at_stage(s)


def test_confirmation_rejects_a_bool_or_a_float():
    c = _table("constant_zero", 0, 10)
    for x in (True, 2.5):
        with pytest.raises(ValueError, match="natural number"):
            c.confirmation_stage(x)
