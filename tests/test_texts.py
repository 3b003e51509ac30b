"""Text objects, canonical texts from enumerators, and learner traces."""

import random
import re
import sys
from collections import Counter
from math import inf

import pytest

from limitlearn import (
    ConstantLearner,
    DiscoveryCursor,
    Enumerator,
    FiniteSetEnumerator,
    Registry,
    StepFunctionEnumerator,
    Text,
    UnionEnumerator,
    Workspace,
    canonical_text,
    run_learner,
)


class _Late(Enumerator):
    """Elements appear at staggered stages: 7 at 3, 2 at 5, 11 at 9."""

    def _below(self, bound, s):
        out = set()
        if s >= 3:
            out.add(7)
        if s >= 5:
            out.add(2)
        if s >= 9:
            out.add(11)
        return frozenset(x for x in out if x < bound)


def test_text_basics():
    t = Text((4, 0, 4), label="x")
    assert len(t) == 3
    assert t.content_at(0) == frozenset()
    assert t.content_at(3) == frozenset({0, 4})
    assert t.content_at(2) == frozenset({0, 4})
    with pytest.raises(ValueError, match="only 3 items"):
        t.content_at(4)


def test_canonical_text_of_finite_set():
    reg = Registry()
    code = reg.register(FiniteSetEnumerator({4, 9}))
    t = canonical_text(reg, code, 6)
    # new discoveries in order, then padding with the least known element
    assert t.items == (4, 9, 4, 4, 4, 4)
    assert t.label == f"canonical:{code}"


def test_canonical_text_tracks_late_discoveries():
    reg = Registry()
    code = reg.register(_Late())
    t = canonical_text(reg, code, 12)
    assert t.items == (7, 7, 2, 2, 2, 2, 11, 2, 2, 2, 2, 2)


def test_canonical_text_content_converges():
    reg = Registry()
    code = reg.register(_Late())
    t = canonical_text(reg, code, 12)
    assert t.content_at(12) == frozenset({2, 7, 11})


def test_canonical_text_rejects_empty_enumerators():
    reg = Registry()
    with pytest.raises(ValueError, match="enumerated nothing by stage 10"):
        canonical_text(reg, 0, 10)


def test_run_learner_trace_shape():
    t = Text((0, 0, 0, 0), label="zeros")
    tr = run_learner(ConstantLearner(), t, 4)
    assert tr.outputs == (0, 0, 0, 0, 0)
    assert tr.horizon == 4
    assert tr.text is t


def test_negative_lengths_are_refused():
    t = Text((1, 2, 3))
    reg = Registry()
    code = reg.register(FiniteSetEnumerator({4, 9}))
    for length in (-1, 2.5, True, "3"):
        for name, call in (
            ("prefix length", t.content_at),
            ("horizon", lambda n: run_learner(ConstantLearner(), t, n)),
            ("text length", lambda n: canonical_text(reg, code, n)),
        ):
            message = f"{name} must be a natural number, got {length!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                call(length)


def test_run_learner_refuses_horizon_past_text():
    t = Text((0, 0), label="short")
    with pytest.raises(ValueError, match="exceeds text length"):
        run_learner(ConstantLearner(), t, 3)


def test_run_learner_checks_its_horizon_once_per_trace(monkeypatch):
    # Learner.outputs checks the horizon; neither run_learner nor the Trace
    # it builds checks a well-formed one again
    calls = []
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "limitlearn" and hasattr(module, "_check_horizon"):

            def counting(horizon, length, check=module._check_horizon):
                calls.append(horizon)
                return check(horizon, length)

            monkeypatch.setattr(module, "_check_horizon", counting)
    text = Text(tuple(range(30)))
    ws = Workspace()
    learners = [ws.sample_learner(kind) for kind in ("constant_zero", "length_parity")]
    learners.append(ws.gap_parity_learner("constant_zero"))
    for learner in learners:
        for horizon in (0, 7, 30):
            calls.clear()
            assert len(run_learner(learner, text, horizon).outputs) == horizon + 1
            assert calls == [horizon], (type(learner).__name__, horizon)


# ---------------- canonical_text against the per-stage snapshot loop ----------------


def _canonical_text_by_snapshots(registry, code, length):
    """The snapshot loop canonical_text replaced: every position reads the
    whole set at its stage, and padding scans for the least element.
    Returns the items and s0, the first stage with an element."""
    cursor = DiscoveryCursor()
    s0 = 0
    while not cursor.advance(registry.enumerate_to(code, s0)):
        if s0 == length:
            raise ValueError(f"code {code} enumerated nothing by stage {length}")
        s0 += 1
    items = []
    p = 0
    for n in range(length):
        if n > 0:
            cursor.advance(registry.enumerate_to(code, s0 + n))
        if p < len(cursor.order):
            items.append(cursor.order[p])
            p += 1
        else:
            items.append(min(cursor.order))
    return tuple(items), s0


def _assert_same_text(make, length):
    """Same items as the oracle, each on a fresh (registry, code) pair from
    make(). The text reads s0 + 1 opening snapshots and, from length 2 on, one
    range read; so it makes the oracle's registry queries less its length - 1
    later snapshots, plus that read (building a table queries the registry
    too, the same on both sides)."""
    reg, code = make()
    counting = _Counting(reg.get(code))
    code = reg.register(counting)
    before = reg.query_count
    got = canonical_text(reg, code, length)
    fast_queries = reg.query_count - before
    reg, code = make()
    before = reg.query_count
    want, s0 = _canonical_text_by_snapshots(reg, code, length)
    assert got.items == want
    reads = [("at_stage", s) for s in range(s0 + 1)]
    if length >= 2:
        reads.append(("arrivals", s0, s0 + length - 1))
    assert counting.reads == reads
    assert fast_queries == reg.query_count - before - max(length - 1, 0) + (length >= 2)


def _registered(enum):
    reg = Registry()
    return reg, reg.register(enum)


@pytest.mark.parametrize("length", [3, 5, 12, 40])
def test_canonical_text_matches_snapshots_on_late_discoveries(length):
    _assert_same_text(lambda: _registered(_Late()), length)


@pytest.mark.parametrize("length", [1, 7, 30, 80])
def test_canonical_text_matches_snapshots_on_a_non_monotone_step(length):
    # 5 vanishes and returns, 1 shows only at stages 2 mod 3, 0 comes late
    step = StepFunctionEnumerator(
        lambda s: ({5} if s % 4 != 3 else set())
        | ({1} if s % 3 == 2 else set())
        | ({0} if s >= 9 else set())
        | ({s // 5 + 10} if s >= 4 else set())
    )
    _assert_same_text(lambda: _registered(step), length)


@pytest.mark.parametrize("kind", ["constant_zero", "length_parity", "fresh_each_step"])
@pytest.mark.parametrize("e", [0, 1])
def test_canonical_text_matches_snapshots_on_family_members(kind, e):
    for n, variant, length in ((0, "plain", 400), (13, "hat", 400), (4000, "plain", 150)):

        def make():
            ws = Workspace()
            return ws.registry, ws.family_member_code(kind, e, n, variant)

        _assert_same_text(make, length)


def test_canonical_text_matches_snapshots_when_the_least_element_drops():
    # the least element goes from 5 to 2 at the seventh item, and the
    # positions where delivery has caught up repeat the new least
    def make():
        ws = Workspace()
        return ws.registry, ws.family_member_code("length_parity", 2, 4000, "plain")

    reg, code = make()
    assert canonical_text(reg, code, 300).items[:10] == (5, 7, 8, 9, 10, 11, 2, 3, 6, 2)
    _assert_same_text(make, 300)


# ---------------- randomized: unions of finite, step and flickering parts ----------------


def _random_parts(rng):
    """One to three parts over the values 0..11, so parts share values: finite
    sets (all at stage 1), step functions that keep a value from its first
    stage on, and flickering ones that show a value at three random stages."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("finite", "step", "step", "flicker"))
        values = rng.sample(range(12), rng.randint(0, 5))
        if kind == "finite":
            parts.append(FiniteSetEnumerator(values))
        elif kind == "step":
            first = {x: rng.randint(0, 12) for x in values}
            parts.append(
                StepFunctionEnumerator(lambda s, f=first: {x for x, t in f.items() if t <= s})
            )
        else:
            shown = {x: set(rng.sample(range(14), 3)) for x in values}
            parts.append(
                StepFunctionEnumerator(lambda s, w=shown: {x for x, t in w.items() if s in t})
            )
    return parts


def _features(parts, enum, length, items):
    """The cases of canonical_text's layout that one text reaches."""
    s0 = next(s for s in range(length + 1) if enum.at_stage(s))
    last = s0 + length - 1
    first = {}  # value -> first stage showing it, by the text's last stage
    for s in range(s0, last + 1):
        for x in enum.at_stage(s):
            first.setdefault(x, s)
    feats = {f"length {length}"} if length <= 2 else set()
    if length >= 2 and set(enum._arrivals(s0, last)) & enum.at_stage(s0):
        feats.add("an arrivals key in the opening snapshot")
    source = {x: {i for i, p in enumerate(parts) if x in p.at_stage(t)} for x, t in first.items()}
    for x, t in first.items():
        if t == s0:
            continue
        if any(u == t and not source[x] & source[y] for y, u in first.items()):
            feats.add("one stage, values from different parts")
        if x < min(y for y, u in first.items() if u < t) and items.count(x) > 1:
            feats.add("a late value below the least, then repeated")
    return feats


def test_canonical_text_matches_snapshots_on_random_unions():
    rng = random.Random(21)
    reached = Counter()
    for _ in range(300):
        parts = _random_parts(rng)
        enum = parts[0] if len(parts) == 1 else UnionEnumerator(parts)
        length = rng.randint(0, 2) if rng.random() < 0.3 else rng.randint(3, 20)

        def make(enum=enum):
            return _registered(enum)

        if not any(enum.at_stage(s) for s in range(length + 1)):
            for build in (canonical_text, _canonical_text_by_snapshots):
                with pytest.raises(ValueError, match=f"enumerated nothing by stage {length}"):
                    build(*make(), length)
            reached["empty by its length"] += 1
            continue
        _assert_same_text(make, length)
        reached.update(_features(parts, enum, length, canonical_text(*make(), length).items))
    cases = [
        "length 0",
        "length 1",
        "length 2",
        "an arrivals key in the opening snapshot",
        "one stage, values from different parts",
        "a late value below the least, then repeated",
        "empty by its length",
    ]
    assert all(reached[case] >= 5 for case in cases), reached


# ---------------- cost gate: a text reads each element about once ----------------


class _Counting(Enumerator):
    """Passes queries through, logs them, and adds up the sizes of the sets
    it hands out. A read with no bound is a snapshot, logged as at_stage."""

    def __init__(self, inner):
        self.inner = inner
        self.handed = 0
        self.reads = []

    def _below(self, bound, s):
        self.reads.append(("at_stage", s) if bound == inf else ("below", bound, s))
        out = self.inner._below(bound, s)
        self.handed += len(out)
        return out

    def _arrivals(self, s0, s1):
        self.reads.append(("arrivals", s0, s1))
        out = self.inner._arrivals(s0, s1)
        self.handed += len(out)
        return out


def _counted_member_text(variant, length):
    """A constant_zero member's text (finite part {0, 2, 3}) through _Counting;
    returns the wrapper and the text's registry queries."""
    ws = Workspace()
    member = ws.registry.get(ws.family_member_code("constant_zero", 0, 13, variant))
    counting = _Counting(member)
    code = ws.registry.register(counting)
    before = ws.registry.query_count
    canonical_text(ws.registry, code, length)
    return counting, ws.registry.query_count - before


@pytest.mark.parametrize("variant", ["plain", "hat"])
def test_text_reads_linear_in_its_length(variant):
    handed = {}
    for length in (500, 1000):
        counting, _ = _counted_member_text(variant, length)
        handed[length] = counting.handed
        # the diagonal part adds at most one element per stage, the finite
        # part shows up once
        assert counting.handed <= length + 3 + 2, (length, counting.handed)
    assert handed[1000] <= 2.2 * handed[500], handed


@pytest.mark.parametrize("variant", ["plain", "hat"])
def test_text_queries_do_not_grow_with_its_length(variant):
    # a text is s0 + 1 snapshots and one range read, however long it is
    queries = {length: _counted_member_text(variant, length)[1] for length in (500, 1000)}
    assert queries[500] == queries[1000] == 2, queries


def test_text_feeds_the_cursor_only_its_opening_snapshots(monkeypatch):
    # the stages after s0 are laid out from one sorted list, not fed to the
    # cursor stage by stage
    calls = []
    advance = DiscoveryCursor.advance

    def counted(self, elements):
        calls.append(elements)
        return advance(self, elements)

    monkeypatch.setattr(DiscoveryCursor, "advance", counted)
    late = Registry()
    late_code = late.register(_Late())  # s0 = 3
    for length in (500, 1000):
        for variant in ("plain", "hat"):
            calls.clear()
            counting, _ = _counted_member_text(variant, length)
            s0 = len(counting.reads) - 2  # s0 + 1 snapshots and one range read
            assert len(calls) <= s0 + 1, (variant, length, len(calls))
        calls.clear()
        canonical_text(late, late_code, length)
        assert len(calls) <= 3 + 1, (length, len(calls))


# ---------------- edge lengths: no range read below length 2 ----------------


def _member():
    ws = Workspace()
    return ws.registry, ws.family_member_code("constant_zero", 0, 13, "plain")


# each case: make, and the texts it has at lengths 0..2 (a missing length raises)
_SHORT = {
    "finite": (lambda: _registered(FiniteSetEnumerator({4, 9})), {1: (4,), 2: (4, 9)}),
    "late": (lambda: _registered(_Late()), {}),
    "member": (_member, {0: (), 1: (0,), 2: (0, 1)}),
}


@pytest.mark.parametrize("name", sorted(_SHORT))
@pytest.mark.parametrize("length", [0, 1, 2])
def test_short_texts_pin_items_and_reads(name, length):
    make, texts = _SHORT[name]
    if length in texts:
        reg, code = make()
        assert canonical_text(reg, code, length).items == texts[length]
        _assert_same_text(make, length)
        return
    # empty at stage 0: it raises after reading stages 0..length
    reg, code = make()
    counting = _Counting(reg.get(code))
    code = reg.register(counting)
    before = reg.query_count
    with pytest.raises(ValueError, match=f"enumerated nothing by stage {length};"):
        canonical_text(reg, code, length)
    assert counting.reads == [("at_stage", s) for s in range(length + 1)]
    assert reg.query_count - before == length + 1
