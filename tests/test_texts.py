"""Text objects, canonical texts from enumerators, and learner traces."""

import pytest

from limitlearn import (
    ConstantLearner,
    Enumerator,
    FiniteSetEnumerator,
    Registry,
    Text,
    canonical_text,
    run_learner,
)


class _Late(Enumerator):
    """Elements appear at staggered stages: 7 at 3, 2 at 5, 11 at 9."""

    def at_stage(self, s):
        out = set()
        if s >= 3:
            out.add(7)
        if s >= 5:
            out.add(2)
        if s >= 9:
            out.add(11)
        return out


def test_text_basics():
    t = Text((4, 0, 4), label="x")
    assert len(t) == 3
    assert t.prefix(0) == ()
    assert t.prefix(2) == (4, 0)
    assert t.content_at(2) == frozenset({0, 4})
    with pytest.raises(ValueError, match="only 3 items"):
        t.prefix(4)


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
    with pytest.raises(ValueError, match="negative"):
        t.prefix(-1)
    with pytest.raises(ValueError, match="negative"):
        run_learner(ConstantLearner(), t, -1)
    reg = Registry()
    code = reg.register(FiniteSetEnumerator({4, 9}))
    with pytest.raises(ValueError, match="negative"):
        canonical_text(reg, code, -1)


def test_run_learner_refuses_horizon_past_text():
    t = Text((0, 0), label="short")
    with pytest.raises(ValueError, match="exceeds text length"):
        run_learner(ConstantLearner(), t, 3)
