"""Stage table dynamics: survival, deaths, re-search, and the table oracles.

Frozen row values below were computed once by hand-simulating the search
order (least string, length first, then lexicographic) and then pinned.
"""

import random
import re
import tracemalloc
from bisect import bisect_left, bisect_right
from itertools import chain, pairwise
from math import inf

import pytest

from limitlearn import (
    ConstantLearner,
    Construction,
    DiagonalView,
    FiniteSetEnumerator,
    FreshLengthLearner,
    LengthParityLearner,
    Registry,
    StepFunctionEnumerator,
    Workspace,
    check_stabilizing,
    is_prefix,
)
from limitlearn.construction import _SETTLED
from limitlearn.stabilizing import Survival

from brute_oracle import candidate_strings, check_brute
from learner_helpers import ProfiledFunctionLearner


def _constant(e=0):
    return Construction(ConstantLearner(), e, Registry())


def _rows_at(c, s=None):
    """(row, string) for each row defined at stage s; None means the horizon."""
    s = c._checked_stage(s)
    return [(n, tuple(v)) for n, v in enumerate(c._strings(s))]


def _stages(row):
    """The stages at which a table row logged an event, oldest first."""
    return [t for t, _ in row.events]


def _positional_value(c, n, s):
    """Row n's string at stage s, set position by position, apart from _strings.

    Lengths grow row to row, so row n is e except at the last position of
    each row j >= 1, which holds e + j. None when row n is undefined at s.
    """
    if n >= c._defined[s]:
        return None
    out = [c.e] * c.rows[n].at(s)[1]
    for j, row in enumerate(c.rows[1 : n + 1], 1):
        out[row.at(s)[1] - 1] = c.e + j
    return tuple(out)


def test_constructor_validation():
    reg = Registry()
    for e in (-1, 1.5, True, "2"):
        with pytest.raises(ValueError, match="natural number"):
            Construction(ConstantLearner(), e, reg)
    unprofiled = type("L", (), {"length_profiled": False, "name": "x"})()
    with pytest.raises(ValueError, match="length-profiled"):
        Construction(unprofiled, 0, reg)


def test_stage_zero_seeds_row_zero_with_empty_string():
    c = _constant()
    assert c.stage == 0
    assert _rows_at(c, 0) == [(0, ())]
    assert c.rows[0].events == [(0, 0)]


def test_constant_rows_grow_one_per_stage():
    c = _constant()
    c.run_to(12)
    rows = _rows_at(c)
    assert rows[0] == (0, (0,))
    assert rows[1] == (1, (0, 1))
    assert rows[5] == (5, (0, 1, 2, 3, 4, 5))
    # row n settles on the string (0, 1, ..., n) at stage n+1, never moves
    for n, v in rows:
        assert v == tuple(range(n + 1))
        assert c.rows[n].events[-1] == (n + 1, len(v))


def test_constant_rows_shift_with_base_value():
    for e in (1, 2):
        c = _constant(e)
        c.run_to(10)
        for n, v in _rows_at(c):
            assert v == tuple(range(e, e + n + 1))


def test_row_zero_transition_from_empty():
    c = _constant()
    c.run_stage()
    # stage 1: () still qualifies but condition 1 needs 0 in the content
    assert _rows_at(c, 1)[0] == (0, (0,))
    assert c.rows[0].events[0] == (0, 0)


def test_parity_rows_churn_at_the_horizon():
    ws = Workspace()
    c = ws.construction("length_parity", 0)
    c.run_to(30)
    assert _rows_at(c)[0] == (0, (0, 0))
    # row 1 only ever holds a maximal-length string, so it moves every stage
    assert c.rows[1].events[-1][1] == 30
    assert c.rows[2].events[-1][1] is None
    assert len(c.rows) == 3
    c.run_to(31)
    assert c.rows[1].events[-1][1] == 31


def test_parity_row_one_value_shape():
    ws = Workspace()
    c = ws.construction("length_parity", 0)
    c.run_to(8)
    # least length-8 extension of (0, 0) covering {0, 1}: all zeros then a one
    assert _rows_at(c)[1] == (1, (0, 0, 0, 0, 0, 0, 0, 1))


def test_fresh_learner_kills_row_zero_at_stage_one():
    ws = Workspace()
    c = ws.construction("fresh_each_step", 0)
    c.run_to(25)
    assert c.rows[0].events[-1][1] is None
    assert c.rows[0].events == [(0, 0), (1, None)]
    assert len(c.rows) == 1
    assert _rows_at(c) == []


def test_rows_replay_history():
    c = _constant()
    c.run_to(9)
    assert _rows_at(c, 0) == [(0, ())]
    assert _rows_at(c, 1) == [(0, (0,))]
    assert len(_rows_at(c, 3)) == 3
    assert _rows_at(c, 4)[3] == (3, (0, 1, 2, 3))
    for stage in (-1, 2.5, True, "3"):
        for name, read in (
            ("stage", c.a_values),
            ("stage", c.b_values),
            ("stage", lambda s: c.r_prefix(20, "plain", s)),
            ("stage", c.chain_ok),
            ("value", c.confirmation_stage),
        ):
            message = f"{name} must be a natural number, got {stage!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                read(stage)


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
    c2 = _BruteTable(ConstantLearner(), 1, Registry())
    c2.run_to(6)
    assert all(
        check_brute(1, n, v, 6, c2.learner, c2.registry) is None
        for n, v in c2.defined_rows()
    )


def test_sizes_must_not_be_negative():
    c = Workspace().construction("constant_zero", 0)
    c.run_to(10)
    for size in (-1, 2.5, True, "3"):
        for name, call in (
            ("stage", c.run_to),
            ("bound", c.r_prefix),
            ("row limit", c.rows_snapshot),
            ("text length", c.adversarial_text),
            ("stage bound", c.separation_level),
        ):
            message = f"{name} must be a natural number, got {size!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                call(size)
    assert c.stage == 10


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
    """Same learner function over two registries: profiled and brute tables."""
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
        Construction(mk(pool_a), e, reg_a),
        _BruteTable(mk(pool_b), e, reg_b),
    )


def test_profile_run_matches_brute_run():
    rng = random.Random(23)
    for _ in range(12):
        cp, cb = _paired_constructions(rng)
        cp.run_to(5)
        cb.run_to(5)
        assert len(cp.rows) == len(cb.rows)
        for s in range(6):
            assert _rows_at(cp, s) == cb.defined_rows(s), s


def test_sample_learners_profile_matches_brute():
    for kind, e in (("constant_zero", 0), ("length_parity", 0), ("fresh_each_step", 1)):
        ws = Workspace()
        cp = ws.construction(kind, e)
        cb = _BruteTable(ws.sample_learner(kind), e, ws.registry)
        cp.run_to(6)
        cb.run_to(6)
        assert [_stages(r) for r in cp.rows] == [r.stages for r in cb.rows]
        for s in range(7):
            assert _rows_at(cp, s) == cb.defined_rows(s), (kind, s)


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
            for n, v in _rows_at(c):
                where = (type(c.learner).__name__, c.e, s, n)
                assert check_stabilizing(
                    c.e, n, v, s, c.learner, c.registry
                ) is None, where
                fresh = Survival(len(v), n)
                assert fresh.fold(c.learner, c.registry, len(v), s) is None, where
                qs = c.rows[n].qstate
                if n < c._frontier:
                    # behind the frontier a row keeps only the settled marker
                    assert qs is _SETTLED and fresh.settled, where
                    continue
                assert (qs.checked, qs.pending, qs.settled) == (
                    fresh.checked,
                    fresh.pending,
                    fresh.settled,
                ), where


def test_rows_behind_the_frontier_hold_the_shared_settled_marker():
    # the frontier never visits these rows again, so none keeps the kernel
    # state (checked codes, pending offsets) that settled it
    for kind in ("constant_zero", "length_parity"):
        for e in (0, 1, 2):
            c = Workspace().construction(kind, e)
            c.run_to(200)
            behind = c.rows[: c._frontier]
            assert behind, (kind, e)  # constant_zero: 199 or 200 rows
            assert {id(row.qstate) for row in behind} == {id(_SETTLED)}, (kind, e)
            assert _SETTLED.settled and not (_SETTLED.checked or _SETTLED.pending)


class _StringRow:
    """A row that stores its strings: (stage, string) events, None undefined."""

    __slots__ = ("n", "events", "stages", "qstate")

    def __init__(self, n, seed):
        self.n = n
        self.events = [(0, seed)]
        self.stages = [0]
        self.qstate = None

    @property
    def value(self):
        return self.events[-1][1]

    def log(self, stage, value):
        self.events.append((stage, value))
        self.stages.append(stage)

    def value_at(self, s):
        return self.events[bisect_right(self.stages, s) - 1][1]

    def last_change_at_or_before(self, s):
        return self.stages[bisect_right(self.stages, s) - 1]


class _SweepOracle(Construction):
    """The from-scratch table: every row visited at every stage.

    Rows store whole strings, and a row changes when its string does.
    Kept rows are compared with themselves, the missing values are a set
    difference over the whole base, failed lengths are a set looked up once
    per length, the suffix is built one element at a time, each marker
    re-scans all rows below it, and the per-stage records (leading defined
    rows, lowest row that moved) are recounted from every row.

    A search re-checks the length a row's own kernel refuted at the same
    stage, which the fast table skips; refuted_rechecks counts those checks.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows = [_StringRow(0, ())]
        self._false_cache = set()
        self.refuted_rechecks = 0
        self._refuted = None  # (row, length) its kernel refuted this stage

    def run_stage(self):
        s = self.stage + 1
        self.counters["stages"] += 1
        lower_defined = True
        lower_changed = False
        n = 0
        while n < len(self.rows):
            row = self.rows[n]
            old = row.value
            if not lower_defined:
                new = None
                if old is not None:
                    row.log(s, None)
                row.qstate = None
            else:
                keep = old is not None and not lower_changed and self._survives(row, s)
                if keep:
                    new = old
                else:
                    resumed = old is not None and not lower_changed
                    self._refuted = (
                        (n, len(old)) if resumed and row.qstate is not None else None
                    )
                    base = () if n == 0 else self.rows[n - 1].value
                    found = self._search_least(n, base, s)
                    if found is None:
                        new = None
                        row.qstate = None
                        if old is not None:
                            row.log(s, None)
                    else:
                        new, row.qstate = found
                        if new != old:
                            row.log(s, new)
            if new is None:
                lower_defined = False
            elif new != old:
                lower_changed = True
            if new is not None and n == len(self.rows) - 1:
                self.rows.append(_StringRow(n + 1, None))
            n += 1
        self.stage = s
        self._defined.append(
            next(n for n, row in enumerate(self.rows) if row.value is None)
        )
        self._moved.append(
            min((row.n for row in self.rows if row.stages[-1] == s), default=inf)
        )

    def _search_least(self, k, base, s):
        self.counters["searches"] += 1
        if base is None or self.e + k > s:
            return None
        missing = sorted(set(range(self.e, self.e + k + 1)) - set(base))
        m_lo = len(base)
        for m in range(m_lo, s + 1):
            if m - m_lo < len(missing):
                continue
            if (k, m) in self._false_cache:
                continue
            self.counters["length_checks"] += 1
            self.refuted_rechecks += (k, m) == self._refuted
            qs = Survival(m, k)
            if qs.fold(self.learner, self.registry, m, s) is not None:
                self._false_cache.add((k, m))
                continue
            return self._least_suffix(base, m, missing), qs
        return None

    def _least_suffix(self, base, m, missing):
        out = list(base)
        left = list(missing)
        while m - len(out) > len(left):
            out.append(self.e)
            if left and left[0] == self.e:
                left.pop(0)
        out.extend(left)
        return tuple(out)

    def defined_rows(self, s=None):
        s = self._checked_stage(s)
        return [(row.n, v) for row in self.rows if (v := row.value_at(s)) is not None]

    def a_values(self, s=None):
        """Each depth's marker from rows 0..ell, rescanned for every depth."""
        s = self._checked_stage(s)
        defined = [row.value_at(s) is not None for row in self.rows]
        settled = [row.last_change_at_or_before(s) for row in self.rows]
        out = []
        for ell in range(min(len(self.rows), s + 1)):
            if not all(defined[: ell + 1]):
                break
            start = max(max(settled[: ell + 1]), self.e + ell + 2)
            a = start if start % 2 == 0 else start + 1
            if a > s:
                break
            out.append(a)
        return out


class _BruteTable(_SweepOracle):
    """The brute-force stage table, kept as an oracle for the profiled search.

    A search walks every admissible extension of the base in length-lex
    order and a kept row is re-checked in full each stage, both through
    the exponential brute oracle check_brute, so stages stay tiny.
    """

    def _survives(self, row, s):
        return check_brute(
            self.e, row.n, row.value, s, self.learner, self.registry
        ) is None

    def _search_least(self, k, base, s):
        self.counters["searches"] += 1
        if base is None or self.e + k > s:
            return None
        for tau in candidate_strings(base, s, self.e):
            if check_brute(self.e, k, tau, s, self.learner, self.registry) is None:
                return tau, None
        return None


def _sample_pair(kind, e):
    ws_a, ws_b = Workspace(), Workspace()
    return ws_a.construction(kind, e), _SweepOracle(
        ws_b.sample_learner(kind), e, ws_b.registry
    )


def _random_pair(make, seed):
    fast, slow = make(random.Random(seed)), make(random.Random(seed))
    return fast, _SweepOracle(slow.learner, slow.e, slow.registry)


_ORACLE_PAIRS = {
    **{
        f"{kind}-e{e}": lambda kind=kind, e=e: _sample_pair(kind, e)
        for kind in ("constant_zero", "length_parity", "fresh_each_step")
        for e in (0, 1, 2)
    },
    **{
        f"paired-{seed}": lambda seed=seed: _random_pair(
            lambda rng: _paired_constructions(rng)[0], seed
        )
        # seed 44: a row keeps its string while a lower row moves, so the
        # markers need the running maximum over lower rows' settling points;
        # seed 12: row 0 moves at stage 5 and then holds, so 6 is its marker
        # although row 0 logs nothing at stage 6
        for seed in (12, 41, 44)
    },
    **{
        f"never_stable-{seed}": lambda seed=seed: _random_pair(
            _never_stable_table, seed
        )
        for seed in (43, 44)
    },
}


def _qstate_fields(qs, behind_frontier=False):
    """The kernel state compared with the oracle's; a row behind the fast
    table's frontier holds the shared settled marker, so only settled."""
    if qs is None:
        return None
    if behind_frontier:
        return qs.settled
    return (qs.sigma_len, qs.k, qs.c0, qs.checked, qs.pending, qs.settled)


@pytest.mark.parametrize("case", sorted(_ORACLE_PAIRS))
def test_fast_table_matches_the_full_sweep_at_every_stage(case):
    fast, slow = _ORACLE_PAIRS[case]()
    for s in range(1, 301):
        fast.run_stage()
        slow.run_stage()
        # one event per change of a row's string: the oracle compares strings
        assert [_stages(r) for r in fast.rows] == [r.stages for r in slow.rows], s
        # the public reader builds each row from the one below; the oracle
        # stores every string whole
        assert [r["value"] for r in fast.rows_snapshot()] == [
            None if r.value is None else list(r.value) for r in slow.rows
        ], s
        assert [
            _qstate_fields(r.qstate, n < fast._frontier) for n, r in enumerate(fast.rows)
        ] == [
            _qstate_fields(r.qstate, n < fast._frontier) for n, r in enumerate(slow.rows)
        ], s
        assert fast._defined == slow._defined, s
        assert fast._moved == slow._moved, s
        # the fast search skips the length a row's kernel just refuted, which
        # the oracle checks again; the oracle leaves rows_visited at 0, and
        # every other counter must agree
        assert fast.counters["length_checks"] == (
            slow.counters["length_checks"] - slow.refuted_rechecks
        ), s
        assert dict(fast.counters, rows_visited=0, length_checks=0) == dict(
            slow.counters, length_checks=0
        ), s
        # one oracle marker scan per stage; b_values and r_prefix follow from it
        a_values = slow.a_values()
        b_values = [a + 1 for a in a_values if a < s]
        tail = frozenset(range(fast.e, 60))
        assert fast.a_values() == a_values, s
        assert fast.b_values() == b_values, s
        assert fast.r_prefix(60, "plain") == tail - set(a_values), s
        assert fast.r_prefix(60, "hat") == tail - set(b_values), s


@pytest.mark.parametrize("e", [0, 1, 2])
def test_a_churning_row_checks_one_length_per_stage(e):
    # length_parity's row 1 is refuted by its resumed kernel at every stage;
    # the search then starts one past that length, so it checks only the
    # length it keeps, not the refuted one again with a fresh kernel
    c = Workspace().construction("length_parity", e)
    c.run_to(2000)
    assert c.counters["length_checks"] == c.counters["stages"] == 2000
    assert c.registry.query_count <= 2 * c.counters["stages"]


@pytest.mark.parametrize("case", sorted(_ORACLE_PAIRS))
def test_row_lengths_never_decrease(case):
    # A search keeps one untried length per depth because no row's length
    # ever falls: then no base falls, and the lengths refuted above a base
    # stay one unbroken run. The oracle remembers every failed length, so it
    # checks the premise apart from the search that relies on it.
    fast, slow = _ORACLE_PAIRS[case]()
    fast.run_to(300)
    slow.run_to(300)
    for rows, length in ((fast.rows, int), (slow.rows, len)):
        for n, row in enumerate(rows):
            lengths = [length(v) for _, v in row.events if v is not None]
            assert lengths == sorted(lengths), (n, row.events)


@pytest.mark.parametrize("case", sorted(_ORACLE_PAIRS))
def test_row_reader_matches_a_scan_of_the_events(case):
    # the 9 sample tables and the random ones; the scan reads the log in order
    c = _ORACLE_PAIRS[case]()[0]
    c.run_to(300)
    logged_at_s = set()
    for row in c.rows:
        for s in range(301):
            want = [ev for ev in row.events if ev[0] <= s][-1]
            assert row.at(s) == want, (s, row.events)
            logged_at_s.add(want[0] == s)
    # events read at their own stage and at later ones both occur
    assert logged_at_s == {True, False}


@pytest.mark.parametrize("kind", ["constant_zero", "length_parity", "fresh_each_step"])
def test_each_row_is_the_row_below_then_e_padding_then_e_plus_k(kind):
    for e in (0, 1, 2):
        c = Workspace().construction(kind, e)
        c.run_to(2000)
        for k, row in enumerate(c.rows):
            # a row is longer than the row below at every stage either one logs
            stages = set(_stages(row))
            if k:
                stages |= set(_stages(c.rows[k - 1]))
            for t in sorted(stages):
                m = row.at(t)[1]
                if k and m is not None:
                    assert m > c.rows[k - 1].at(t)[1], (e, k, t)
            # a string is logged only where it stabilizes at depth k, and it
            # is the row below, then e padding, then e + k
            for t, m in row.events[1:]:
                v = _positional_value(c, k, t)
                if m is None:
                    assert v is None, (e, k, t)
                    continue
                assert len(v) == m, (e, k, t)
                assert check_stabilizing(e, k, v, t, c.learner, c.registry) is None, (
                    e,
                    k,
                    t,
                )
                below = () if k == 0 else _positional_value(c, k - 1, t)
                pad = m - len(below) - 1
                assert v == below + (e,) * pad + (e + k,), (e, k, t)


@pytest.mark.parametrize("kind", ["constant_zero", "length_parity", "fresh_each_step"])
def test_rows_store_lengths_not_strings(kind):
    c = Workspace().construction(kind, 1)
    c.run_to(500)
    for n, row in enumerate(c.rows):
        assert all(m is None or type(m) is int for _, m in row.events), n


def _table_bytes(horizon):
    tracemalloc.start()
    try:
        c = Workspace().construction("constant_zero", 0)
        c.run_to(horizon)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_table_memory_is_linear_in_the_horizon():
    # a string per row would grow 4 times from 4000 to 8000
    assert _table_bytes(8000) <= 2.2 * _table_bytes(4000)


def test_chain_ok_sees_corrupted_lengths():
    c = _constant()
    c.run_to(20)
    assert c.chain_ok()
    # row 3 no longer than row 2: its string cannot extend row 2's
    row = c.rows[3]
    for m in (c.rows[2].events[-1][1], c.rows[2].events[-1][1] - 1):
        row.events[-1] = (row.events[-1][0], m)
        assert not c.chain_ok(), m
        assert c.chain_ok(row.events[-1][0] - 1)


def _chain_by_strings(c, s):
    """chain_ok as first written: build every row's string, compare by prefix."""
    rows = map(tuple, c._strings(s))
    return all(is_prefix(below, v) for below, v in pairwise(rows))


def _chain_tables():
    for kind in ("constant_zero", "length_parity", "fresh_each_step"):
        for e in (0, 1, 2):
            yield Workspace().construction(kind, e)
    for seed in (23, 31):
        yield _paired_constructions(random.Random(seed))[0]


def test_chain_ok_matches_the_string_chain_at_every_stage():
    for c in _chain_tables():
        c.run_to(300)
        for s in range(301):
            assert c.chain_ok(s) == _chain_by_strings(c, s), s


def test_chain_ok_matches_the_string_chain_on_corrupted_lengths():
    c = _constant()
    c.run_to(20)
    row, s = c.rows[3], c.stage
    for m in range(1, c.rows[4].events[-1][1] + 2):
        row.events[-1] = (row.events[-1][0], m)
        assert c.chain_ok(s) == _chain_by_strings(c, s), m


def test_chain_ok_builds_no_string(monkeypatch):
    c = Workspace().construction("length_parity", 1)
    c.run_to(200)

    def no_strings(*args):
        raise AssertionError("chain_ok must read lengths only")

    monkeypatch.setattr(Construction, "_strings", no_strings)
    assert c.chain_ok()
    assert all(c.chain_ok(s) for s in range(201))


@pytest.mark.parametrize("kind", ["constant_zero", "length_parity", "fresh_each_step"])
def test_table_work_is_linear_in_the_horizon(kind):
    for e in (0, 1, 2):
        c = Workspace().construction(kind, e)
        c.run_to(2000)
        work = c.counters
        assert work["stages"] == 2000
        assert work["rows_visited"] <= 4 * work["stages"], (e, work)
        assert work["length_checks"] <= work["searches"], (e, work)


def _reverify_per_row(c):
    """reverify_final as first written: each row's whole string checked afresh."""
    s = c.stage
    return [
        (n, check_stabilizing(c.e, n, tuple(v), s, c.learner, c.registry))
        for n, v in enumerate(c._strings(s))
    ]


def _cut_tables():
    """Tables at stage 40 with one row's stored length edited, row by row and
    length by length: a row no longer than the one below comes out cut short,
    and a longer one cuts the row above it."""
    tables = [_constant(), Workspace().construction("length_parity", 1)]
    tables += [_paired_constructions(random.Random(seed))[0] for seed in (23, 31)]
    for c in tables:
        c.run_to(40)
        for n in range(min(c._defined[40] - 1, 6)):
            row, above = c.rows[n], c.rows[n + 1].events[-1][1]
            kept = row.events[-1]
            for m in range(1, above + 2):
                row.events[-1] = (kept[0], m)
                yield c
            row.events[-1] = kept


def test_reverify_final_matches_the_per_row_check():
    # conditions 2 and 3 cost cubic time in the horizon on the random tables'
    # learners, so those stop at stage 80, as the resumed-row test does
    conditions = set()
    for c in _profiled_tables():
        horizon = 80 if isinstance(c.learner, ProfiledFunctionLearner) else 300
        for s in range(horizon + 1):
            if s:
                c.run_stage()
            got = c.reverify_final()
            assert got == _reverify_per_row(c), (type(c.learner).__name__, c.e, s)
            conditions.update(w and w.violated_condition for _, w in got)
    for c in _cut_tables():
        got = c.reverify_final()
        assert got == _reverify_per_row(c), (type(c.learner).__name__, c.e)
        conditions.update(w and w.violated_condition for _, w in got)
    assert conditions == {None, 1, 2, 3}


class _CountedString:
    """A row string that counts the values a reader takes from it."""

    def __init__(self, v, tally):
        self.v, self.tally = v, tally

    def __len__(self):
        return len(self.v)

    def __getitem__(self, i):
        got = self.v[i]
        self.tally["values"] += len(got) if isinstance(i, slice) else 1
        return got

    def __iter__(self):
        self.tally["values"] += len(self.v)
        return iter(self.v)


@pytest.mark.parametrize("kind", ["constant_zero", "length_parity", "fresh_each_step"])
def test_reverify_final_reads_each_value_once(kind, monkeypatch):
    # one verdict per defined row, and on a chained table each row is read
    # only past the row below: the values read total the deepest row's
    # length, where reading every row whole totals all their lengths
    tally = {"values": 0}
    strings = Construction._strings
    monkeypatch.setattr(
        Construction,
        "_strings",
        lambda c, s: (_CountedString(v, tally) for v in strings(c, s)),
    )
    for e in (0, 1, 2):
        c = Workspace().construction(kind, e)
        for horizon in (300, 600):
            c.run_to(horizon)
            defined = c._defined[horizon]
            assert c.chain_ok()
            tally["values"] = 0
            got = c.reverify_final()
            assert [n for n, _ in got] == list(range(defined)), (e, horizon)
            assert all(w is None for _, w in got), (e, horizon)
            deepest = c.rows[defined - 1].events[-1][1] if defined else 0
            assert tally["values"] == deepest, (e, horizon)


@pytest.mark.parametrize("kind", ["constant_zero", "length_parity"])
@pytest.mark.parametrize("horizon", [500, 1000])
def test_reverify_final_asks_few_codes_of_a_finite_code_learner(kind, horizon):
    # the code-range scan stops once every declared code has shown; a scan
    # to the horizon would ask about H^2/2 of them for constant_zero
    c = Workspace().construction(kind, 0)
    c.run_to(horizon)
    learner = c.learner
    calls = []
    code = learner._code
    learner._code = lambda m: calls.append(m) or code(m)
    rows = len(c.reverify_final())
    assert rows > 0
    assert len(calls) <= 2 * rows + 1, (rows, len(calls))


@pytest.mark.parametrize("horizon", [1000, 2000])
def test_reverify_final_reads_few_codes_of_a_code_only_learner(horizon):
    # no learner-specific shortcut: a declared finite code set alone ends
    # each row's scan, so the reads stay linear in the horizon
    learner = ProfiledFunctionLearner(lambda m: 0, finite=frozenset({0}))
    c = Construction(learner, 0, Registry())
    c.run_to(horizon)
    calls = []
    learner._code = lambda m: calls.append(m) or 0
    rows = len(c.reverify_final())
    assert rows > 0
    assert len(calls) <= horizon + rows + 2, (rows, len(calls))


# The confirmation scan the closed form replaced: per depth, the earliest
# proof that x is no marker, from the rows' event lists alone.


def _first_event_after(c, ell, y):
    """Least event stage > y of row ell, if any (rows off-table have none)."""
    if ell >= len(c.rows):
        return None
    events = c.rows[ell].events
    i = bisect_left(events, (y + 1,))  # the first event past stage y
    return events[i][0] if i < len(events) else None


def _first_undefined_from(c, ell, x):
    """Least stage u >= x (within horizon) where row ell has no value."""
    if x > c.stage:
        return None
    if ell >= len(c.rows):
        return x
    row = c.rows[ell]
    i = bisect_left(row.events, (x + 1,)) - 1
    for j in range(i, len(row.events)):
        t, m = row.events[j]
        if t > c.stage:
            break
        if m is None:
            return max(x, t)
    return None


def _conf_cell(c, x, ell, ev_after_x, ev_after_w):
    """Earliest proof for depth ell: churn ahead, churn behind, frozen window."""
    best = _first_undefined_from(c, ell, x)
    if ev_after_x is not None and (best is None or ev_after_x < best):
        best = ev_after_x
    if (
        x >= c.e + ell + 4
        and ell < len(c.rows)
        and c.rows[ell].at(x - 2)[1] is not None
        and (ev_after_w is None or ev_after_w > x)
    ):
        best = x
    return best


def _conf_scan(c, x):
    """Plain confirmation stage of x from scratch: the latest per-depth proof."""
    e = c.e
    if x % 2 == 1 or x <= e + 1:
        return x
    best = x
    run_after_x = None
    run_after_w = None
    for ell in range(0, max(0, x - e - 1)):
        u = _first_event_after(c, ell, x)
        if u is not None and (run_after_x is None or u < run_after_x):
            run_after_x = u
        u = _first_event_after(c, ell, x - 2)
        if u is not None and (run_after_w is None or u < run_after_w):
            run_after_w = u
        cell = _conf_cell(c, x, ell, run_after_x, run_after_w)
        if cell is None:
            return None
        best = max(best, cell)
    return best


def _scan_confirmation(c, x, variant):
    if variant == "plain":
        return _conf_scan(c, x)
    if x == 0:
        return 0
    p = _conf_scan(c, x - 1)
    return None if p is None else max(p, x)


def _outcome(c, x, variant, stage):
    y = x if variant == "plain" else x - 1
    if y < 0 or y % 2 == 1 or y <= c.e + 1:
        return "trivial"
    if stage is None:
        return "none"
    return "at x" if stage == x else "later"


# what the answers of each table family come to over stages 1..120: the
# trivial parity/floor case, confirmed at x itself, confirmed later, or None
_CONFIRMATION_OUTCOMES = {
    "constant_zero": {"trivial", "none"},
    "fresh_each_step": {"trivial", "at x"},
    "length_parity": {"trivial", "at x", "later", "none"},
    "never_stable-43": {"trivial", "at x", "none"},
    "never_stable-44": {"trivial", "at x", "later", "none"},
    "paired-12": {"trivial", "at x", "later", "none"},
    "paired-41": {"trivial", "later", "none"},
    "paired-44": {"trivial", "later", "none"},
}


@pytest.mark.parametrize("case", sorted(_ORACLE_PAIRS))
def test_confirmation_matches_the_seed_scan_at_every_stage(case):
    c = _ORACLE_PAIRS[case]()[0]
    outcomes = set()
    for s in range(1, 121):
        c.run_stage()
        # alternate the query order so fresh, memoized and resumed x all occur
        xs = range(s + 1) if s % 2 else range(s, -1, -1)
        for variant in ("plain", "hat") if s % 2 else ("hat", "plain"):
            for x in xs:
                got = c.confirmation_stage(x, variant)
                assert got == _scan_confirmation(c, x, variant), (s, x, variant)
                outcomes.add(_outcome(c, x, variant, got))
    assert outcomes == _CONFIRMATION_OUTCOMES[case.split("-e")[0]], outcomes


def _scanned(case, horizon):
    """Each variant's seed-scan entry stage of every x <= horizon."""
    ref = _ORACLE_PAIRS[case]()[0]
    ref.run_to(horizon)
    return {
        variant: [_scan_confirmation(ref, x, variant) for x in range(horizon + 1)]
        for variant in ("plain", "hat")
    }


@pytest.mark.parametrize("case", sorted(_ORACLE_PAIRS))
def test_diagonal_views_match_the_seed_scan_at_every_stage(case):
    horizon = 120 if case.startswith(("paired", "never_stable")) else 500
    scan = _scanned(case, horizon)
    stages = list(range(horizon + 1))
    shuffled = random.Random(case).sample(stages, len(stages))
    for order in (stages, stages[::-1], shuffled):
        c = _ORACLE_PAIRS[case]()[0]
        for s in order:
            for variant in ("plain", "hat"):
                want = frozenset(
                    x
                    for x in range(c.e, s + 1)
                    if (t := scan[variant][x]) is not None and t <= s
                )
                assert DiagonalView(c, variant).at_stage(s) == want, (s, variant)


@pytest.mark.parametrize("case", sorted(_ORACLE_PAIRS))
def test_bounded_reads_match_the_seed_scan_at_every_stage(case):
    """_below(bound, s) of both views: exactly the x of e..min(bound, s + 1) - 1
    whose scanned entry stage is at most s, at bounds on and around e and s."""
    horizon = 120
    scan = _scanned(case, horizon)
    stages = list(range(horizon + 1))
    # ascending extends the store a stage at a time, descending all at once
    for order in (stages, stages[::-1]):
        c = _ORACLE_PAIRS[case]()[0]
        e = c.e
        for s in order:
            for variant in ("plain", "hat"):
                view = DiagonalView(c, variant)
                for bound in sorted({0, e, e + 1, s, s + 1, s + 2, 64}):
                    want = frozenset(
                        x
                        for x in range(e, min(bound, s + 1))
                        if (t := scan[variant][x]) is not None and t <= s
                    )
                    assert view._below(bound, s) == want, (s, variant, bound)


# The closed form the confirmation log replaced: frozen depth F, then a scan
# of the later stages for a move at or below F.


def _conf_closed_form(c, x):
    e, defined, moved = c.e, c._defined, c._moved
    if x % 2 == 1 or x <= e + 1:
        return x
    frozen = max(0, min(x - e - 3, defined[x - 2], moved[x - 1], moved[x]))
    if frozen >= min(defined[x], x - e - 1):
        return x
    return next((t for t in range(x + 1, c.stage + 1) if moved[t] <= frozen), None)


@pytest.mark.parametrize("kind", ["constant_zero", "length_parity", "fresh_each_step"])
def test_confirmation_work_is_linear_in_the_horizon(kind):
    horizon = 2000
    for e in (0, 1):
        c = Workspace().construction(kind, e)
        for s in [*range(horizon + 1), *range(horizon, -1, -1)]:
            variant = ("plain", "hat")[s % 2]
            DiagonalView(c, variant).at_stage(s)
            c.confirmation_stage(s, variant)
            # one cell per x logged plus one per x that waited
            assert c.counters["conf_cells"] <= 2 * (c.stage + 1), (e, s)
        for x in range(horizon + 1):
            assert c.confirmation_stage(x) == _conf_closed_form(c, x), (e, x)


# ---------------- arrivals of the diagonal views ----------------


def _entries_by_stage(c, variant, horizon):
    """The x <= horizon that enter the view at each stage, from the seed scan."""
    out = [[] for _ in range(horizon + 1)]
    for x in range(c.e, horizon + 1):
        t = _scan_confirmation(c, x, variant)
        if t is not None and t <= horizon:
            out[t].append(x)
    return out


def _check_view_deltas(make, horizon, seed):
    """arrivals(s0, s1) of both views of the tables make() builds: exactly
    the x whose scanned confirmation stage t lies in s0+1..s1, each tagged
    with that t."""
    ref = make()
    ref.run_to(horizon)
    entries = {v: _entries_by_stage(ref, v, horizon) for v in ("plain", "hat")}

    def want(variant, s0, s1):
        return {x: t for t in range(s0 + 1, s1 + 1) for x in entries[variant][t]}

    rng = random.Random(seed)
    steps = [(s, s + 1) for s in range(horizon)]
    spans = [tuple(sorted(rng.sample(range(horizon + 1), 2))) for _ in range(200)]
    spans += [(s, s) for s in rng.sample(range(horizon + 1), 5)]
    for order in (steps, steps[::-1], rng.sample(steps, len(steps)), spans):
        # a fresh table per order: the log extends lazily, to the highest stage asked
        views = {v: DiagonalView(make(), v) for v in ("plain", "hat")}
        for s0, s1 in order:
            for variant, view in views.items():
                got = view._arrivals(s0, s1)
                assert got == want(variant, s0, s1), (variant, s0, s1)
                if order is spans:
                    assert got.keys() == view.at_stage(s1) - view.at_stage(s0), (variant, s0, s1)


@pytest.mark.parametrize("kind", ["constant_zero", "length_parity", "fresh_each_step"])
@pytest.mark.parametrize("e", [0, 1, 2])
def test_view_deltas_match_the_seed_scan(kind, e):
    _check_view_deltas(lambda: Workspace().construction(kind, e), 501, f"{kind}-{e}")


@pytest.mark.parametrize(
    "case", [c for c in sorted(_ORACLE_PAIRS) if c.startswith(("paired", "never_stable"))]
)
def test_view_deltas_match_the_seed_scan_on_random_tables(case):
    # the paired and never-stable tables; their seed scan is dearer, so 121 stages
    _check_view_deltas(lambda: _ORACLE_PAIRS[case]()[0], 121, case)


def test_view_deltas_refuse_bad_stages():
    c = _constant()
    reg = c.registry
    code = reg.register(DiagonalView(c, "hat"))
    with pytest.raises(ValueError, match="got -1"):
        reg.arrivals(code, -1, 4)
    with pytest.raises(ValueError, match="stage 3 comes before stage 4"):
        reg.arrivals(code, 4, 3)
