"""Family members: diagonal sets padded with canonical finite deltas."""

import re
from math import inf

import pytest

from limitlearn import (
    DiagonalView,
    Workspace,
    canonical_text,
    check_txtfex,
    check_txtfext,
    finite_set_decode,
    run_learner,
    verify_witness,
)


def test_member_is_diagonal_plus_clipped_finite_part():
    ws = Workspace()
    # D_13 = {0, 2, 3}
    code = ws.family_member_code("constant_zero", 0, 13, "plain")
    got = ws.registry.enumerate_to(code, 30)
    diag = DiagonalView(ws.construction("constant_zero", 0), "plain").at_stage(30)
    assert diag <= got
    assert got - diag == frozenset({2})


def test_member_finite_part_respects_base_value():
    ws = Workspace()
    code = ws.family_member_code("constant_zero", 1, 13, "plain")
    got = ws.registry.enumerate_to(code, 30)
    diag = DiagonalView(ws.construction("constant_zero", 1), "plain").at_stage(30)
    # D_13 clipped to [1, inf) adds {2, 3}, both already diagonal members
    assert got == diag
    assert 0 not in got


def test_member_zero_is_the_bare_diagonal():
    ws = Workspace()
    member = ws.family_member_code("length_parity", 0, 0, "hat")
    diag = ws.diagonal_code("length_parity", 0, "hat")
    for s in (0, 7, 26):
        assert ws.registry.enumerate_to(member, s) == ws.registry.enumerate_to(diag, s)


def test_member_codes_are_memoized():
    ws = Workspace()
    a = ws.family_member_code("constant_zero", 0, 5, "plain")
    b = ws.family_member_code("constant_zero", 0, 5, "plain")
    c = ws.family_member_code("constant_zero", 0, 5, "hat")
    assert a == b
    assert a != c


def test_distinct_indices_can_share_content():
    ws = Workspace()
    # D_2 = {1} is already confirmed on the plain side, D_8 = {3} likewise
    m2 = ws.family_member_code("constant_zero", 0, 2, "plain")
    m8 = ws.family_member_code("constant_zero", 0, 8, "plain")
    assert m2 != m8
    assert ws.registry.enumerate_to(m2, 40) == ws.registry.enumerate_to(m8, 40)


def test_finite_delta_arrives_with_the_decode():
    ws = Workspace()
    n = 37  # D_37 = {0, 2, 5}
    assert finite_set_decode(n) == frozenset({0, 2, 5})
    code = ws.family_member_code("fresh_each_step", 3, n, "plain")
    # fresh diagonal is [3, s]; the only clipped finite element is 5
    assert ws.registry.enumerate_to(code, 10) == frozenset(range(3, 11)) | {5}


def test_workspace_counters_track_tables():
    ws = Workspace()
    ws.construction("constant_zero", 0).run_to(10)
    counts = ws.counters()
    assert "registry_queries" in counts
    assert counts["tables"]["constant_zero/e0"]["stages"] == 10


def test_bounded_reads_build_no_snapshot(monkeypatch):
    ws = Workspace()
    member = ws.family_member_code("length_parity", 1, 37, "hat")
    # the text reads snapshots of its first stages, so it comes first
    text = canonical_text(ws.registry, member, 200)
    trace = run_learner(ws.gap_parity_learner("length_parity"), text, 200)

    def verdicts():
        """Both checkers and verify_witness on gap_parity's trace of a hat
        member (i = 3, j = 2), and Registry.below_each on that member."""
        out = []
        for check in (check_txtfex, check_txtfext):
            v = check(trace, ws.registry, 3, 2)
            out.append((v.as_dict(), verify_witness(v, trace, ws.registry, 3, 2)))
        return out, ws.registry.below_each((member,), 64, 200)

    want = verdicts()
    # the strict checker fails on a pairwise witness that re-verifies
    [(fex, fex_ok), (fext, fext_ok)], _ = want
    assert fex["status"] == "PASS_AT_HORIZON" and not fex_ok
    assert fext["witness"]["kind"] == "pairwise" and fext_ok

    def refuse(*args):
        raise AssertionError("a bounded read built a diagonal snapshot")

    below = DiagonalView._below

    def refuse_snapshots(self, bound, s):
        # a registry snapshot read is _below with no bound
        if bound == inf:
            refuse()
        return below(self, bound, s)

    monkeypatch.setattr(DiagonalView, "at_stage", refuse)
    monkeypatch.setattr(DiagonalView, "_below", refuse_snapshots)
    assert verdicts() == want


class _CountingGets(dict):
    """A dict that counts its get calls."""

    def __init__(self, *args):
        super().__init__(*args)
        self.gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


@pytest.mark.parametrize("variant", ["plain", "hat"])
@pytest.mark.parametrize("e", [0, 1, 2])
def test_bounded_read_reads_only_the_values_under_the_bound(e, variant):
    ws = Workspace()
    code = ws.diagonal_code("length_parity", e, variant)
    c = ws.construction("length_parity", e)
    c.run_to(2000)
    c._conf_at = counting = _CountingGets(c._conf_at)
    (got,) = ws.registry.below_each((code,), 64, 2000)
    assert 0 < counting.gets <= 64 - e
    assert got == frozenset(x for x in DiagonalView(c, variant).at_stage(2000) if x < 64)


# (call, its message on a fresh workspace, the equal call to memoize first)
_EQUAL_BUT_REFUSED = [
    (
        lambda ws: ws.construction("constant_zero", 1.0),
        "base value e must be a natural number, got 1.0",
        lambda ws: ws.construction("constant_zero", 1),
    ),
    (
        lambda ws: ws.construction("length_parity", True),
        "base value e must be a natural number, got True",
        lambda ws: ws.construction("length_parity", 1),
    ),
    (
        lambda ws: ws.diagonal_code("constant_zero", 0.0, "plain"),
        "base value e must be a natural number, got 0.0",
        lambda ws: ws.diagonal_code("constant_zero", 0, "plain"),
    ),
    (
        lambda ws: ws.family_member_code("constant_zero", 0, True, "plain"),
        "index must be a natural number, got True",
        lambda ws: ws.family_member_code("constant_zero", 0, 1, "plain"),
    ),
    (
        lambda ws: ws.family_member_code("constant_zero", False, 3, "hat"),
        "base value e must be a natural number, got False",
        lambda ws: ws.family_member_code("constant_zero", 0, 3, "hat"),
    ),
    # refused at a later argument: a write made for an earlier one (the
    # learner's codes, the diagonal view, the table) would show
    (
        lambda ws: ws.construction("length_parity", -1),
        "base value e must be a natural number, got -1",
        lambda ws: ws.construction("length_parity", 0),
    ),
    (
        lambda ws: ws.family_member_code("constant_zero", 0, -1, "plain"),
        "index must be a natural number, got -1",
        lambda ws: ws.family_member_code("constant_zero", 0, 0, "plain"),
    ),
    (
        lambda ws: ws.diagonal_code("constant_zero", 3, "bogus"),
        "unknown variant 'bogus'",
        lambda ws: ws.diagonal_code("constant_zero", 0, "plain"),
    ),
]


@pytest.mark.parametrize("case", range(len(_EQUAL_BUT_REFUSED)))
def test_workspace_refuses_a_value_equal_to_a_memoized_one(case):
    # 1.0 == 1 and True == 1 as memo keys, so the check comes before the
    # lookup; every argument is checked before anything is written, so a
    # refusal leaves no trace
    call, message, equal = _EQUAL_BUT_REFUSED[case]
    fresh, warm = Workspace(), Workspace()
    equal(warm)
    for ws in (fresh, warm):
        before = len(ws.registry), ws.counters()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(ws)
        assert (len(ws.registry), ws.counters()) == before
