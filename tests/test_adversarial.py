"""Adversarial text generation against each sample learner."""

import random

import pytest

from limitlearn import (
    Construction,
    FiniteSetEnumerator,
    Registry,
    Text,
    Workspace,
    run_learner,
)
from limitlearn.construction import ADVERSARY_WINDOW

from learner_helpers import FunctionLearner, ProfiledFunctionLearner


def test_constant_learner_gets_plain_enumeration():
    ws = Workspace()
    c = ws.construction("constant_zero", 0)
    c.run_to(30)
    # nothing to exploit: the text just walks the tail set upward
    assert c.adversarial_text(8) == (0, 1, 2, 3, 4, 5, 6, 7)
    ws2 = Workspace()
    c2 = ws2.construction("constant_zero", 2)
    c2.run_to(30)
    assert c2.adversarial_text(6) == (2, 3, 4, 5, 6, 7)


def test_parity_learner_is_held_at_one_value():
    ws = Workspace()
    c = ws.construction("length_parity", 0)
    c.run_to(40)
    t = c.adversarial_text(16)
    assert t == (0,) * 16
    # padding flips the output code on every step, forever
    m = ws.sample_learner("length_parity")
    codes = [m.decide(t[:n]) for n in range(len(t) + 1)]
    assert len(set(codes)) == 2
    for x, y in zip(codes, codes[1:]):
        assert x != y


def test_fresh_learner_never_repeats_on_its_adversary():
    ws = Workspace()
    c = ws.construction("fresh_each_step", 0)
    c.run_to(60)
    t = c.adversarial_text(12)
    m = ws.sample_learner("fresh_each_step")
    codes = [m.decide(t[:n]) for n in range(len(t) + 1)]
    assert len(set(codes)) == len(codes)


def test_adversarial_text_is_reproducible():
    ws = Workspace()
    c = ws.construction("fresh_each_step", 0)
    c.run_to(80)
    assert c.adversarial_text(20) == c.adversarial_text(20)


def test_adversarial_requires_profiled_learner():
    # the table itself refuses a learner without a length profile
    m = FunctionLearner(lambda seq: 0)
    with pytest.raises(ValueError, match="length-profiled"):
        Construction(m, 0, Registry())


def test_adversarial_text_feeds_the_trace_machinery():
    ws = Workspace()
    c = ws.construction("length_parity", 0)
    c.run_to(40)
    items = c.adversarial_text(16)
    trace = run_learner(ws.sample_learner("length_parity"), Text(items), 16)
    assert len(trace.outputs) == 17


def _adversarial_text_per_step(c, length):
    """adversarial_text as first written: decide on the whole text so far,
    and a fresh set of it for the least value not yet shown, at every step."""
    t = []
    while len(t) < length:
        m0 = len(t)
        prev = c.learner.decide(tuple(t))
        bound = m0 + ADVERSARY_WINDOW
        adopt = None
        for m in range(m0 + 1, bound + 1):
            code = c.learner.length_code(m)
            if code != prev and c.registry.sym_diff_below(prev, code, bound, bound):
                adopt = m
                break
        if adopt is not None:
            t.extend([c.e] * (adopt - m0))
        else:
            x = c.e
            seen = set(t)
            while x in seen:
                x += 1
            t.append(x)
    return tuple(t[:length])


@pytest.mark.parametrize("kind", ["constant_zero", "length_parity", "fresh_each_step"])
def test_adversarial_text_matches_the_per_step_oracle(kind):
    for e in (0, 1, 2):
        for length in (0, 1, 7, 100, 500):
            ws_a, ws_b = Workspace(), Workspace()
            fast, slow = ws_a.construction(kind, e), ws_b.construction(kind, e)
            fast.run_to(10)
            slow.run_to(10)
            got = fast.adversarial_text(length)
            assert got == _adversarial_text_per_step(slow, length), (e, length)
            # the same queries, and for fresh_each_step the same registrations
            assert ws_a.registry.query_count == ws_b.registry.query_count
            assert len(ws_a.registry) == len(ws_b.registry)


def _random_profiled_table(seed):
    """A table over a random length profile of a few finite-set codes."""
    rng = random.Random(seed)
    reg = Registry()
    pool = [0] + [
        reg.register(FiniteSetEnumerator(rng.sample(range(4), rng.randint(0, 2))))
        for _ in range(3)
    ]
    table = {m: rng.choice(pool) for m in range(12)}
    learner = ProfiledFunctionLearner(lambda m: table.get(m, pool[1]))
    return Construction(learner, rng.randint(0, 2), reg)


def test_adversarial_text_matches_the_oracle_on_random_profiles():
    # among these, texts that pad first and feed fresh values after
    for seed in range(30):
        fast, slow = _random_profiled_table(seed), _random_profiled_table(seed)
        for length in (0, 1, 7, 40):
            got = fast.adversarial_text(length)
            assert got == _adversarial_text_per_step(slow, length), (seed, length)
            assert fast.registry.query_count == slow.registry.query_count


class _LengthOnlyLearner(ProfiledFunctionLearner):
    """Counts its _code calls; deciding on a whole sequence is an error."""

    def __init__(self, length_fn):
        super().__init__(length_fn)
        self.calls = 0

    def _code(self, m):
        self.calls += 1
        return super()._code(m)

    def decide(self, seq):
        raise AssertionError("adversarial_text must read the learner by length")


def _length_only_learners():
    reg = Registry()
    even = reg.register(FiniteSetEnumerator({0}))
    odd = reg.register(FiniteSetEnumerator({1}))
    # never switches, so every step reads the whole window; and switches at
    # every length, so every step pads
    yield _LengthOnlyLearner(lambda m: 0), reg
    yield _LengthOnlyLearner(lambda m: odd if m % 2 else even), reg


@pytest.mark.parametrize("length", [0, 1, 100, 2000, 4000])
def test_adversarial_text_reads_the_learner_by_length_only(length):
    for learner, reg in _length_only_learners():
        c = Construction(learner, 1, reg)
        assert len(c.adversarial_text(length)) == length
        assert learner.calls <= (ADVERSARY_WINDOW + 1) * (length + 1)
