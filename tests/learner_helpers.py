"""Learners and features that only the tests use.

FunctionLearner wraps an arbitrary decide function and answers a trace one
prefix at a time, which costs the square of the horizon; the package's own
learners all answer in one pass. guess_features states the gap-parity rule
from scratch on one input, so it is the oracle for GapParityLearner.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from limitlearn.encodings import Sequence
from limitlearn.learners import Learner, ProfiledLearner


class ProfiledFunctionLearner(ProfiledLearner):
    """Length-profiled learner driven by a plain function."""

    def __init__(
        self, length_fn: Callable[[int], int], finite: frozenset[int] | None = None
    ):
        self._fn = length_fn
        self.finite_codes = finite

    def _code(self, m: int) -> int:
        return self._fn(m)


class FunctionLearner(Learner):
    """Arbitrary decide function, no profile."""

    def __init__(self, fn: Callable[[Sequence], int]):
        self._fn = fn

    def decide(self, seq: Sequence) -> int:
        return self._fn(seq)

    def _outputs(self, items: Sequence, horizon: int) -> tuple[int, ...]:
        """decide(items[:n]) for n = 0..horizon, each prefix afresh."""
        return tuple(self.decide(items[:n]) for n in range(horizon + 1))


@dataclass(frozen=True)
class GuessFeatures:
    """What the gap-parity learner extracts from a nonempty input."""

    min_value: int
    gap: int  # least value above min_value missing from the content


def guess_features(seq: Sequence) -> GuessFeatures | None:
    if not seq:
        return None
    seen = set(seq)
    m = min(seen)
    n = m + 1
    while n in seen:
        n += 1
    return GuessFeatures(min_value=m, gap=n)
