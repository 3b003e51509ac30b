"""Sample learner behaviour, length profiles, and guess feature extraction."""

import random
import re

import pytest

import limitlearn
from limitlearn import (
    ConstantLearner,
    Construction,
    Enumerator,
    FiniteSetEnumerator,
    FreshLengthLearner,
    GapParityLearner,
    Learner,
    LengthParityLearner,
    ProfiledLearner,
    Registry,
)

from learner_helpers import (
    FunctionLearner,
    GuessFeatures,
    ProfiledFunctionLearner,
    guess_features,
)


def test_constant_learner():
    m = ConstantLearner()
    assert isinstance(m, ProfiledLearner)
    assert m.decide(()) == 0
    assert m.decide((4, 4, 4)) == 0
    assert m.length_code(17) == 0
    assert m._codes(0, 30) == frozenset({0})
    assert m.finite_codes == frozenset({0})


def test_length_parity_learner():
    reg = Registry()
    m = LengthParityLearner(reg)
    even, odd = m.length_code(0), m.length_code(1)
    assert even != odd
    assert m.decide(()) == even
    assert m.decide((9,)) == odd
    assert m.decide((9, 9)) == even
    assert m.length_code(6) == even
    assert m.finite_codes == frozenset({even, odd})
    # the two hypotheses name different finite sets
    assert reg.enumerate_to(even, 1) != reg.enumerate_to(odd, 1)


def _assert_scan_is_a_code_per_length(m):
    # the scan stops early only once every declared code has shown; empty
    # ranges included: lo > hi lists no length, so no code
    for lo in range(13):
        for hi in range(13):
            want = set(map(m._code, range(lo, hi + 1)))
            assert m._codes(lo, hi) == want, (type(m).__name__, lo, hi)


def test_length_parity_o1_overrides_match_scan_defaults():
    # length_parity keeps no _codes override: the base scan answers any
    # range in at most two _code reads, once both declared codes have shown
    reg = Registry()
    m = LengthParityLearner(reg)
    for lo in range(5):
        for hi in range(lo, 8):
            scan_all = frozenset(m.length_code(n) for n in range(lo, hi + 1))
            assert m._codes(lo, hi) == scan_all
    reads = []
    code = m._code
    m._code = lambda n: reads.append(n) or code(n)
    assert m._codes(3, 10**6) == {m.code_even, m.code_odd}
    assert reads == [3, 4]


def test_length_codes_overrides_equal_the_base_definition():
    # the sample learners share the one base scan; it equals a _code per length
    reg = Registry()
    for m in (ConstantLearner(), LengthParityLearner(reg), FreshLengthLearner(reg)):
        _assert_scan_is_a_code_per_length(m)


def test_codes_scan_equals_a_code_per_length():
    # seeded _code-only learners whose declared codes show late, only in
    # part, or stop recurring
    rng = random.Random(33)
    for _ in range(60):
        codes = rng.sample(range(8), rng.randint(1, 4))
        # the first code may show at any length, each other one only on a
        # seeded window of lengths, which may start late, end early or lie
        # past length 12 altogether
        windows = [(0, 12)] + [sorted(rng.choices(range(16), k=2)) for _ in codes[1:]]
        table = [
            rng.choice([c for c, (a, b) in zip(codes, windows) if a <= m <= b])
            for m in range(13)
        ]
        m = ProfiledFunctionLearner(table.__getitem__, finite=frozenset(codes))
        _assert_scan_is_a_code_per_length(m)


@pytest.mark.parametrize("bad", [-1, -4, 2.5, True, "3"])
def test_length_reads_refuse_a_non_natural_length(bad):
    reg = Registry()
    registered = FreshLengthLearner(reg)
    for m in range(4):
        registered.length_code(m)
    learners = (
        ConstantLearner(),
        LengthParityLearner(reg),
        registered,
        FreshLengthLearner(Registry()),
    )
    message = re.escape(f"length must be a natural number, got {bad!r}")
    for m in learners:
        with pytest.raises(ValueError, match=message):
            m.length_code(bad)
        assert m._codes(5, 2) == frozenset()


def test_fresh_learner_codes_exceed_length():
    reg = Registry()
    m = FreshLengthLearner(reg)
    codes = [m.length_code(n) for n in range(12)]
    assert len(set(codes)) == 12
    for n, c in enumerate(codes):
        assert c > n
    assert m.finite_codes is None


def test_fresh_learner_codes_are_increasing():
    reg = Registry()
    m = FreshLengthLearner(reg)
    # query out of order; codes must still be consistent per length
    c5 = m.length_code(5)
    c2 = m.length_code(2)
    assert m.length_code(5) == c5
    assert m.length_code(2) == c2
    assert max(m._codes(2, 5)) == m.length_code(5)


def test_fresh_learner_hypothesis_content():
    reg = Registry()
    m = FreshLengthLearner(reg)
    c = m.length_code(4)
    assert reg.enumerate_to(c, 1) == frozenset({4})


class _FiniteSetFreshLearner(FreshLengthLearner):
    """The fresh learner as first written: FiniteSetEnumerator({m}) per length."""

    def _code(self, m):
        codes = self._by_length
        while len(codes) <= m:
            codes.append(self._registry.register(FiniteSetEnumerator({len(codes)})))
        return codes[m]


def test_fresh_codes_read_exactly_as_finite_singletons():
    regs = Registry(), Registry()
    learners = FreshLengthLearner(regs[0]), _FiniteSetFreshLearner(regs[1])
    for m in (0, 1, 2, 5, 300):
        code = learners[0].length_code(m)
        assert learners[1].length_code(m) == code

        def reads(reg):
            enum = reg.get(code)
            out = []
            for s in (0, 1, 2):
                out += [reg.enumerate_to(code, s), enum.at_stage(s)]
                out += [reg.below_each((code,), bound, s) for bound in (0, m, m + 1)]
                out += [reg.stable_below(code, k, s) for k in (0, m, m + 1)]
            out += [reg.arrivals(code, s0, s1) for s0, s1 in ((0, 0), (0, 1), (1, 5))]
            return out

        assert reads(regs[0]) == reads(regs[1]), m
    assert type(regs[0].get(learners[0].length_code(3))) is not FiniteSetEnumerator
    assert regs[0].query_count == regs[1].query_count
    assert len(regs[0]) == len(regs[1])


def test_a_fresh_table_registers_the_same_codes_in_the_same_order():
    tables = []
    for make in (FreshLengthLearner, _FiniteSetFreshLearner):
        reg = Registry()
        c = Construction(make(reg), 1, reg)
        # at horizon 0 row 0 is defined, so separation_level reads the codes
        results = [c.separation_level(60), c.adversarial_text(40)]
        c.run_to(300)
        results += [c.rows_snapshot(), c.a_values(), c.r_prefix(40, "hat")]
        tables.append((c, results))
    (a, got), (b, want) = tables
    assert got == want
    assert a.learner._by_length == b.learner._by_length
    assert a.learner._by_length == list(range(1, len(a.registry)))
    assert len(a.registry) == len(b.registry)
    assert a.counters == b.counters
    assert a.registry.query_count == b.registry.query_count


def test_profiled_function_learner():
    table = {0: 3, 1: 3, 2: 5}
    m = ProfiledFunctionLearner(lambda n: table.get(n, 0), finite=frozenset({0, 3, 5}))
    assert isinstance(m, ProfiledLearner)
    assert m.decide((8, 8)) == 5
    assert m.length_code(1) == 3
    assert m._codes(0, 3) == frozenset({0, 3, 5})
    assert m.finite_codes == frozenset({0, 3, 5})


def test_function_learner_is_not_profiled():
    m = FunctionLearner(lambda seq: sum(seq) % 3)
    assert not isinstance(m, ProfiledLearner)
    assert m.decide((2, 2)) == 1
    # only a ProfiledLearner has length profile hooks, not even stubs elsewhere
    for learner in (m, GapParityLearner(lambda e, variant: 0)):
        for hook in ("length_code", "_code", "_codes", "finite_codes"):
            assert not hasattr(learner, hook), (type(learner).__name__, hook)


def test_guess_features():
    assert guess_features(()) is None
    assert guess_features((4,)) == GuessFeatures(min_value=4, gap=5)
    assert guess_features((4, 5)) == GuessFeatures(min_value=4, gap=6)
    assert guess_features((7, 4, 5, 9)) == GuessFeatures(min_value=4, gap=6)
    assert guess_features((0, 1, 2, 3)) == GuessFeatures(min_value=0, gap=4)


def test_guess_features_gap_parity_drives_code_choice():
    calls = []

    def resolver(e, variant):
        calls.append((e, variant))
        return {"plain": 100, "hat": 200}[variant]

    m = GapParityLearner(resolver)
    assert m.decide(()) == 0
    # min 4, gap 5 (odd) -> hat side
    assert m.decide((4,)) == 200
    # min 4, gap 6 (even) -> plain side
    assert m.decide((4, 5)) == 100
    # decide is the one-pass trace's last answer: the same resolver calls
    decided = calls[:]
    calls.clear()
    assert m.outputs((), 0) == (0,)
    assert m.outputs((4,), 1)[-1] == 200
    assert m.outputs((4, 5), 2)[-1] == 100
    assert calls == decided


def test_gap_parity_randomized_agreement_with_features():
    rng = random.Random(3)
    m = GapParityLearner(lambda e, variant: 1 if variant == "plain" else 2)
    for _ in range(300):
        seq = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 6)))
        feats = guess_features(seq)
        got = m.decide(seq)
        if feats.gap % 2 == 0:
            assert got == 1
        else:
            assert got == 2
    # outputs on every prefix against the from-scratch rule, least element too
    streaming = GapParityLearner(lambda e, variant: 2 * e + (variant == "hat") + 1)
    for _ in range(500):
        items = _random_text(rng)
        want = [0]
        for n in range(1, len(items) + 1):
            feats = guess_features(items[:n])
            want.append(2 * feats.min_value + feats.gap % 2 + 1)
        assert streaming.outputs(items, len(items)) == tuple(want), items


def test_registry_backed_learners_share_a_registry():
    reg = Registry()
    a = LengthParityLearner(reg)
    b = FreshLengthLearner(reg)
    assert a.length_code(0) != b.length_code(0)
    assert reg.enumerate_to(b.length_code(0), 1) == frozenset({0})
    assert FiniteSetEnumerator({0}).at_stage(1) == frozenset({0})


def _random_text(rng):
    """A text whose least element drops now and then, with repeats and
    occasional large values."""
    length = rng.randint(0, 60)
    shape = rng.choice(("dense", "descending", "sparse"))
    items = []
    for k in range(length):
        if shape == "dense":
            x = rng.randint(0, 12)
        elif shape == "descending":
            # a falling floor with refills just above it
            x = max(0, 40 - 2 * k + rng.randint(-1, 3))
        else:
            x = rng.choice((rng.randint(0, 8), rng.randint(0, 10**6), 10**18 + k))
        items.append(x)
        if items and rng.random() < 0.2:
            items.append(rng.choice(items))
    return tuple(items)


def _resolver_asks(items, horizon):
    """(least element, variant) of each nonempty prefix up to the horizon,
    from guess_features: what the gap-parity rule selects, stated afresh."""
    asks = []
    for n in range(1, horizon + 1):
        feats = guess_features(items[:n])
        asks.append((feats.min_value, ("plain", "hat")[feats.gap % 2]))
    return asks


def test_gap_parity_outputs_equal_per_prefix_decide():
    # the oracle is guess_features on each nonempty prefix, stated from scratch
    rng = random.Random(7)
    drops = 0
    for _ in range(2500):
        items = _random_text(rng)
        horizon = rng.randint(0, len(items))
        calls = []

        def resolve(e, variant):
            calls.append((e, variant))
            return 2 * e + (variant == "hat") + 1

        asked = _resolver_asks(items, horizon)
        want = (0,) + tuple(2 * e + (variant == "hat") + 1 for e, variant in asked)
        streaming = GapParityLearner(resolve)
        assert streaming.outputs(items, horizon) == want, (items, horizon)
        # the resolver registers codes lazily: same first calls, same order
        assert calls == list(dict.fromkeys(asked))
        mins = [min(items[:n]) for n in range(1, horizon + 1)]
        drops += sum(b < a - 1 for a, b in zip(mins, mins[1:]))
    assert drops > 500  # the least element fell by 2 or more that often


def test_gap_parity_trace_resolves_each_least_and_variant_once():
    calls = []

    def resolver(e, variant):
        calls.append((e, variant))
        return 2 * e + (variant == "hat") + 1

    learner = GapParityLearner(resolver)
    # the gap's parity flips at every item, under one least element
    assert learner.outputs(tuple(range(1000)), 1000)[-2:] == (2, 1)
    assert calls == [(0, "hat"), (0, "plain")]
    rng = random.Random(22)
    for _ in range(300):
        items = _random_text(rng)
        first = list(dict.fromkeys(_resolver_asks(items, len(items))))
        calls.clear()
        decided = learner.decide(items)
        by_decide = calls[:]
        calls.clear()
        assert learner.outputs(items, len(items))[-1] == decided
        assert calls == first, items
        assert calls == by_decide, items  # decide makes the same calls


@pytest.mark.parametrize(
    "learner", [FunctionLearner(len), GapParityLearner(lambda e, variant: 1)]
)
def test_learner_outputs_refuse_bad_horizons(learner):
    assert len(learner.outputs((5, 6, 7), 2)) == 3
    for horizon in (-1, 2.5, True, "3"):
        message = f"horizon must be a natural number, got {horizon!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            learner.outputs((5, 6, 7), horizon)
    with pytest.raises(ValueError, match="horizon 4 exceeds text length 3"):
        learner.outputs((5, 6, 7), 4)



_PROFILED = {
    "constant_zero": lambda reg: ConstantLearner(),
    "length_parity": LengthParityLearner,
    "fresh_each_step": FreshLengthLearner,
    "profiled_function": lambda reg: ProfiledFunctionLearner(lambda m: (m * m) % 7),
}


@pytest.mark.parametrize("kind", sorted(_PROFILED))
def test_profiled_outputs_equal_per_prefix_decide(kind):
    rng = random.Random(kind)
    per_prefix, streaming = Registry(), Registry()
    slow, fast = _PROFILED[kind](per_prefix), _PROFILED[kind](streaming)
    for _ in range(300):
        items = _random_text(rng)
        horizon = rng.randint(0, len(items))
        want = tuple(slow.decide(items[:n]) for n in range(horizon + 1))
        assert fast.outputs(items, horizon) == want, (items, horizon)
        # codes registered lazily come in the order decide would ask for them,
        # each naming the same set: stage 1 shows a finite set whole
        assert len(streaming) == len(per_prefix)
        assert [streaming.get(c).at_stage(1) for c in range(len(streaming))] == [
            per_prefix.get(c).at_stage(1) for c in range(len(per_prefix))
        ]
        assert streaming.query_count == per_prefix.query_count


class _CodeOnly(ProfiledLearner):
    """A profiled learner that supplies nothing but the _code hook."""

    def _code(self, m):
        return m % 3


_SINGLE_FACE = {
    "constant_zero": lambda: ConstantLearner(),
    "length_parity": lambda: LengthParityLearner(Registry()),
    "fresh_each_step": lambda: FreshLengthLearner(Registry()),
    "gap_parity": lambda: GapParityLearner(lambda e, variant: 1),
    "code_only": _CodeOnly,
}


@pytest.mark.parametrize("kind", sorted(_SINGLE_FACE))
def test_every_learner_checks_its_reads_in_the_base_class(kind):
    learner = _SINGLE_FACE[kind]()
    items = (5, 6, 7)
    assert len(learner.outputs(items, 3)) == 4
    for bad in (-1, 2.5, True, "3", None):
        message = re.escape(f"horizon must be a natural number, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            learner.outputs(items, bad)
    with pytest.raises(ValueError, match="horizon 4 exceeds text length 3"):
        learner.outputs(items, 4)
    if not isinstance(learner, ProfiledLearner):
        return
    assert learner.outputs(items, 3) == tuple(map(learner.length_code, range(4)))
    assert learner._codes(1, 3) == frozenset(map(learner.length_code, (1, 2, 3)))
    for bad in (-1, 2.5, True, "3", None):
        message = re.escape(f"length must be a natural number, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            learner.length_code(bad)


def test_public_reads_are_written_once_in_the_base_classes():
    # subclasses supply hooks (_code, _outputs, _below, _arrivals);
    # the checked public reads live in the base classes only
    faces = {
        Learner: {"outputs"},
        ProfiledLearner: {"length_code"},
        Enumerator: {"at_stage"},
    }
    classes = {
        cls
        for module in vars(limitlearn).values()
        if getattr(module, "__name__", "").startswith("limitlearn.")
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, (Learner, Enumerator))
    }
    assert len(classes) >= 10
    for cls in classes:
        for base, names in faces.items():
            if cls is not base:
                assert not names & set(vars(cls)), (cls.__name__, names & set(vars(cls)))
