"""Learners: total maps from finite sequences to hypothesis codes.

Every learner supplies two methods: decide(seq) for one input, and
outputs(items, horizon), the answers on every prefix of one text. A trace
reads outputs, so each learner answers all prefixes in one pass.

Two families live here. The sample learners (constant, length-parity, fresh-
length) exist to drive the diagonal construction; each of their outputs
depends only on the input's length, so each is a ProfiledLearner, which
derives decide and outputs from one hook: length_code for one length. Two more
give cheaper answers: length_codes for the distinct codes over a range of
lengths, whose max is condition 2's top code, and finite_codes for every code
the learner can emit. With them the stabilization check reasons about all
extensions of a string at once instead of enumerating them. The gap-parity
learner is the other kind, with no length profile: it reads the content of
its input and answers with a diagonal hypothesis, and is the one expected to
actually succeed on the constructed families. One scan carries its least
element and first gap from one prefix to the next; decide and outputs both
read it."""

from __future__ import annotations

from collections.abc import Callable

from .encodings import Sequence, _check_natural, next_free
from .universe import FiniteSetEnumerator, Registry


def _check_horizon(horizon: int, length: int) -> None:
    _check_natural(horizon, "horizon")
    if horizon > length:
        raise ValueError(f"horizon {horizon} exceeds text length {length}")


class Learner:
    """Base interface: decide and outputs, both total and deterministic."""

    name = "learner"

    def decide(self, seq: Sequence) -> int:
        raise NotImplementedError

    def outputs(self, items: Sequence, horizon: int) -> tuple[int, ...]:
        """decide(items[:n]) for n = 0..horizon; horizon + 1 outputs."""
        raise NotImplementedError


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
        """The last answer of one scan over seq, resolved alone."""
        last = self._scan(seq, len(seq), lambda *found: found)[-1]
        return self._resolve(*last) if seq else 0

    def _resolve(self, min_value: int, gap: int) -> int:
        return self._resolver(min_value, "plain" if gap % 2 == 0 else "hat")

    def outputs(self, items: Sequence, horizon: int) -> tuple[int, ...]:
        """decide on every prefix in one pass, calling the resolver as decide
        would."""
        _check_horizon(horizon, len(items))
        return tuple(self._scan(items, horizon, self._resolve))

    @staticmethod
    def _scan(items: Sequence, horizon: int, answer: Callable) -> list:
        """[0], then answer(least element, first gap above it) for each
        nonempty prefix of items[:horizon]. Seen values are keys of a
        path-compressed skip map, so a gap that falls back below earlier
        content never rescans it."""
        out = [0]
        seen: dict[int, int] = {}
        low = None
        for x in items[:horizon]:
            seen.setdefault(x, x + 1)
            if low is None or x < low:
                low = x
            out.append(answer(low, next_free(seen, low + 1)))
        return out
