"""Adversarial text generation against each sample learner."""

import pytest

from limitlearn import (
    Construction,
    FunctionLearner,
    Registry,
    Text,
    Workspace,
    run_learner,
)


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
