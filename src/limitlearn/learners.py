"""Learners: total maps from finite sequences to hypothesis codes.

Two families live here. The sample learners (constant, length-parity, fresh-
length) exist to drive the diagonal construction; each of their outputs
depends only on the input's length, so each is a ProfiledLearner, whose
decide and outputs read one hook: length_code for one length. Two more give
cheaper answers: length_codes for the distinct codes over a range of lengths,
whose max is condition 2's top code, and finite_codes for every code the
learner can emit. With them the stabilization check reasons about all
extensions of a string at once instead of enumerating them. The gap-parity
learner is the other kind, with no length profile: it reads the content of
its input and answers with a diagonal hypothesis, and is the one expected to
actually succeed on the constructed families.

A trace asks for the outputs on every prefix of one text, through
``outputs(items, horizon)``. A ProfiledLearner reads one length_code per
prefix length; the gap-parity learner carries its least element and first
gap from one prefix to the next. Only a learner with neither decides each
prefix afresh, which costs the square of the horizon.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .encodings import Sequence, next_free
from .universe import FiniteSetEnumerator, Registry


def _check_horizon(horizon: int, length: int) -> None:
    if horizon < 0:
        raise ValueError(f"horizon {horizon} is negative")
    if horizon > length:
        raise ValueError(f"horizon {horizon} exceeds text length {length}")


class Learner:
    """Base interface; decide() must be total and deterministic."""

    name = "learner"

    def decide(self, seq: Sequence) -> int:
        raise NotImplementedError

    def outputs(self, items: Sequence, horizon: int) -> tuple[int, ...]:
        """decide(items[:n]) for n = 0..horizon; horizon + 1 outputs."""
        _check_horizon(horizon, len(items))
        return tuple(self.decide(items[:n]) for n in range(horizon + 1))


class ProfiledLearner(Learner):
    """Output depends on the input's length only: subclasses supply
    length_code, and decide and outputs read it, never the content."""

    def decide(self, seq: Sequence) -> int:
        return self.length_code(len(seq))

    def outputs(self, items: Sequence, horizon: int) -> tuple[int, ...]:
        """length_code(n) for n = 0..horizon: no prefix to slice."""
        _check_horizon(horizon, len(items))
        return tuple(map(self.length_code, range(horizon + 1)))

    def length_code(self, m: int) -> int:
        """Code output on every sequence of length m."""
        raise NotImplementedError

    def length_codes(self, lo: int, hi: int) -> frozenset[int]:
        """Distinct codes emitted across lengths lo..hi inclusive."""
        return frozenset(self.length_code(m) for m in range(lo, hi + 1))

    def finite_codes(self) -> frozenset[int] | None:
        """Every code this learner can ever emit, if finite and known."""
        return None


class ConstantLearner(ProfiledLearner):
    """Always answers the reserved empty-set code 0."""

    name = "constant_zero"

    def length_code(self, m: int) -> int:
        return 0

    def length_codes(self, lo: int, hi: int) -> frozenset[int]:
        return frozenset({0})

    def finite_codes(self) -> frozenset[int] | None:
        return frozenset({0})


class LengthParityLearner(ProfiledLearner):
    """Two hypotheses forever, switched by input length parity.

    Even lengths answer a code for {0}, odd lengths a code for {1}. The two
    sets differ below 1, which is what makes rows past the first one keep
    churning in the construction.
    """

    name = "length_parity"

    def __init__(self, registry: Registry):
        self.code_even = registry.register(FiniteSetEnumerator({0}))
        self.code_odd = registry.register(FiniteSetEnumerator({1}))

    def length_code(self, m: int) -> int:
        return self.code_even if m % 2 == 0 else self.code_odd

    def length_codes(self, lo: int, hi: int) -> frozenset[int]:
        if lo == hi:
            return frozenset({self.length_code(lo)})
        return frozenset({self.code_even, self.code_odd})

    def finite_codes(self) -> frozenset[int] | None:
        return frozenset({self.code_even, self.code_odd})


class FreshLengthLearner(ProfiledLearner):
    """A brand-new hypothesis for every input length.

    Length m maps to a singleton set {m}, registered lazily in ascending
    length order. Ascending order matters: it guarantees code(m) > m, so no
    candidate string can ever bound the learner's future guesses and the
    construction correctly leaves the whole table undefined.
    """

    name = "fresh_each_step"

    def __init__(self, registry: Registry):
        self._registry = registry
        self._codes: list[int] = []

    def length_code(self, m: int) -> int:
        while len(self._codes) <= m:
            n = len(self._codes)
            self._codes.append(self._registry.register(FiniteSetEnumerator({n})))
        return self._codes[m]


class ProfiledFunctionLearner(ProfiledLearner):
    """Length-profiled learner driven by a plain function; for tests."""

    name = "profiled_function"

    def __init__(
        self,
        length_fn: Callable[[int], int],
        finite: frozenset[int] | None = None,
        name: str | None = None,
    ):
        self._fn = length_fn
        self._finite = finite
        if name is not None:
            self.name = name

    def length_code(self, m: int) -> int:
        return self._fn(m)

    def finite_codes(self) -> frozenset[int] | None:
        return self._finite


class FunctionLearner(Learner):
    """Arbitrary decide function, no profile; for tests and experiments."""

    name = "function"

    def __init__(self, fn: Callable[[Sequence], int], name: str | None = None):
        self._fn = fn
        if name is not None:
            self.name = name

    def decide(self, seq: Sequence) -> int:
        return self._fn(seq)


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


class GapParityLearner(Learner):
    """Reads the least element and the first gap above it, then commits.

    The resolver maps (least element, "plain" | "hat") to a registered
    diagonal hypothesis code. An even first gap selects the plain diagonal,
    an odd one the hat diagonal; the empty input gets code 0. Content-driven,
    so no length profile.
    """

    name = "gap_parity"

    def __init__(self, resolver: Callable[[int, str], int]):
        self._resolver = resolver

    def decide(self, seq: Sequence) -> int:
        f = guess_features(seq)
        if f is None:
            return 0
        return self._resolve(f.min_value, f.gap)

    def _resolve(self, min_value: int, gap: int) -> int:
        return self._resolver(min_value, "plain" if gap % 2 == 0 else "hat")

    def outputs(self, items: Sequence, horizon: int) -> tuple[int, ...]:
        """decide on every prefix in one pass, calling the resolver as decide
        would. Seen values are keys of a path-compressed skip map, so a gap
        that falls back below earlier content never rescans it."""
        _check_horizon(horizon, len(items))
        out = [0]
        seen: dict[int, int] = {}
        low = None
        for x in items[:horizon]:
            seen.setdefault(x, x + 1)
            if low is None or x < low:
                low = x
            out.append(self._resolve(low, next_free(seen, low + 1)))
        return tuple(out)
