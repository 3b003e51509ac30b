"""Learners: total maps from finite sequences to hypothesis codes.

Every learner answers decide(seq) for one input and outputs(items, horizon),
the answers on every prefix of one text. A trace reads outputs, so each
learner answers all prefixes in one pass. A learner states its rule once, in
one unchecked hook: _outputs, or _code for a ProfiledLearner. The base class
derives the public reads from it and checks their arguments there, once:
outputs checks the horizon, length_code the length, and decide is the last
answer of _outputs on the whole input. The package's own callers, which hold
checked values, read the hooks.

Two families live here. The sample learners (constant, length-parity, fresh-
length) exist to drive the diagonal construction; each of their outputs
depends only on the input's length, so each is a ProfiledLearner, which
derives decide and outputs from one hook: _code for one length. A learner
may declare finite_codes, every code it can emit, as data; then _codes, the
distinct codes over a range of lengths (whose max is condition 2's top code),
ends its scan once all have shown, and the stabilization check reasons about
all extensions of a string at once in a few _code reads. The gap-parity
learner is the other kind, with no length profile: it reads the content of
its input and answers with a diagonal hypothesis, and is the one expected to
actually succeed on the constructed families. Its _outputs is one pass that
calls the resolver once per distinct (least element, variant); decide is that
pass over its whole input, so it makes the same calls, not one for its
input's last prefix alone."""

from __future__ import annotations

from collections.abc import Callable

from .encodings import Sequence, _check_natural, next_free
from .universe import FiniteSetEnumerator, Registry, _Singleton


def _check_horizon(horizon: int, length: int) -> None:
    _check_natural(horizon, "horizon")
    if horizon > length:
        raise ValueError(f"horizon {horizon} exceeds text length {length}")


class Learner:
    """Base interface: decide and outputs, both total and deterministic.

    A subclass supplies _outputs; outputs checks its horizon here, and
    decide reads _outputs on the whole input. A subclass that overrides
    decide may not build its _outputs from the inherited one: that recurses.
    """

    def decide(self, seq: Sequence) -> int:
        """The answer on seq: the last of its outputs."""
        return self._outputs(seq, len(seq))[-1]

    def outputs(self, items: Sequence, horizon: int) -> tuple[int, ...]:
        """decide(items[:n]) for n = 0..horizon; horizon + 1 outputs."""
        _check_horizon(horizon, len(items))
        return self._outputs(items, horizon)

    def _outputs(self, items: Sequence, horizon: int) -> tuple[int, ...]:
        """outputs for a horizon already checked against the text."""
        raise NotImplementedError


class ProfiledLearner(Learner):
    """Output depends on the input's length only: subclasses supply _code,
    and decide and outputs read it, never the content. finite_codes holds
    every code the learner can ever emit, if finite and known, else None."""

    finite_codes: frozenset[int] | None = None

    def decide(self, seq: Sequence) -> int:
        return self._code(len(seq))

    def _outputs(self, items: Sequence, horizon: int) -> tuple[int, ...]:
        """_code(n) for n = 0..horizon: no prefix to slice."""
        return tuple(map(self._code, range(horizon + 1)))

    def length_code(self, m: int) -> int:
        """Code output on every sequence of length m."""
        _check_natural(m, "length")
        return self._code(m)

    def _code(self, m: int) -> int:
        """length_code for a checked length."""
        raise NotImplementedError

    def _codes(self, lo: int, hi: int) -> set[int]:
        """Distinct codes emitted across checked lengths lo..hi inclusive;
        empty when lo > hi. The scan stops once every code of finite_codes
        has shown: no later length can add one."""
        finite, seen = self.finite_codes, set()
        for m in range(lo, hi + 1):
            seen.add(self._code(m))
            if seen == finite:
                break
        return seen


class ConstantLearner(ProfiledLearner):
    """Always answers the reserved empty-set code 0."""

    finite_codes = frozenset({0})

    def _code(self, m: int) -> int:
        return 0


class LengthParityLearner(ProfiledLearner):
    """Two hypotheses forever, switched by input length parity.

    Even lengths answer a code for {0}, odd lengths a code for {1}. The two
    sets differ below 1, which is what makes rows past the first one keep
    churning in the construction.
    """

    def __init__(self, registry: Registry):
        self.code_even = registry.register(FiniteSetEnumerator({0}))
        self.code_odd = registry.register(FiniteSetEnumerator({1}))
        self.finite_codes = frozenset({self.code_even, self.code_odd})

    def _code(self, m: int) -> int:
        return self.code_even if m % 2 == 0 else self.code_odd

    def _outputs(self, items: Sequence, horizon: int) -> tuple[int, ...]:
        return ((self.code_even, self.code_odd) * (horizon // 2 + 1))[: horizon + 1]


class FreshLengthLearner(ProfiledLearner):
    """A brand-new hypothesis for every input length.

    Length m maps to a singleton set {m}, registered lazily in ascending
    length order. Ascending order matters: it guarantees code(m) > m, so no
    candidate string can ever bound the learner's future guesses and the
    construction correctly leaves the whole table undefined. Each set is a
    one-slot enumerator that reads exactly as FiniteSetEnumerator({m}).
    """

    def __init__(self, registry: Registry):
        self._registry = registry
        self._by_length: list[int] = []

    def _code(self, m: int) -> int:
        codes = self._by_length
        while len(codes) <= m:
            codes.append(self._registry.register(_Singleton(len(codes))))
        return codes[m]

    def _outputs(self, items: Sequence, horizon: int) -> tuple[int, ...]:
        self._code(horizon)  # registers every length up to the horizon
        return tuple(self._by_length[: horizon + 1])


class GapParityLearner(Learner):
    """Reads the least element and the first gap above it, then commits.

    The resolver maps (least element, "plain" | "hat") to a registered
    diagonal hypothesis code. An even first gap selects the plain diagonal,
    an odd one the hat diagonal; the empty input gets code 0. Content-driven,
    so no length profile.
    """

    def __init__(self, resolver: Callable[[int, str], int]):
        self._resolver = resolver

    def _outputs(self, items: Sequence, horizon: int) -> tuple[int, ...]:
        """The answer on every prefix in one pass, O(1) amortized per item:
        only a new item below the least element, or at the gap, moves a
        feature; the gap restarts above it in a path-compressed skip map of
        seen values. The least only falls, so codes holds the plain and hat
        answers under the current one: each is resolved once, at the first
        prefix whose features select it."""
        out = [0]
        seen: dict[int, int] = {}
        low, gap, code = float("inf"), None, 0
        for x in items[:horizon]:
            if x not in seen:
                seen[x] = x + 1
                if x < low or x == gap:
                    if x < low:
                        low, codes = x, [None, None]
                    gap = x + 1
                    if gap in seen:
                        gap = next_free(seen, gap)
                    code = codes[gap % 2]
                    if code is None:
                        code = codes[gap % 2] = self._resolver(low, ("plain", "hat")[gap % 2])
            out.append(code)
        return tuple(out)
