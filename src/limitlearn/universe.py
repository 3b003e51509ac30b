"""Stage-indexed enumerators and the hypothesis registry.

An enumerator models a set being listed over discrete stages: ``at_stage(s)``
is the finite portion visible by stage s, and it must never lose elements as
s grows. Each enumerator states its set once, as ``_below(bound, s)``: the
elements of at_stage(s) under bound. A finite set answers from its least and
greatest element, a union joins its parts' reads, and a diagonal view reads
only the values under the bound; ``at_stage(s)`` is ``_below`` with no bound,
written once in the base class. ``_arrivals(s0, s1)`` reads in one call what
stages s0+1..s1 added, each element tagged with its stage: an x outside
at_stage(s0) that some at_stage(t), s0 < t <= s1, holds maps to the least
such t, and any other key is in at_stage(s0), so a caller that has seen
stage s0 drops it. The default walks the snapshots of those stages;
enumerators that know their stages (finite sets, unions, the diagonal views)
override it and build none. The registry assigns natural-number codes to
enumerators so learners can output hypotheses as plain ints; code 0 is
reserved for the empty set, a ``FiniteSetEnumerator`` with no elements.

Public reads check their arguments once, in the base class, and no read
calls another public read. ``Enumerator.at_stage`` checks the stage; the
``Registry`` reads ``enumerate_to``, ``arrivals``, ``below_each`` and
``stable_below`` check their codes, then the bound, depth or stages and
their order, in ``Registry._checked``, and go straight to the unchecked
``_below``, ``_arrivals`` or ``stable_below``. ``below_each`` is the one
read of coded sets below a bound at a stage: it reads a list of codes, so a
single set is a one-code list and a comparison of two sets a two-code list.
A subclass supplies only those hooks; they take checked values and are
called only by the registry and by enumerators. The registry and a union
take only enumerators.

Determinism: all methods return frozensets (_arrivals a fresh dict) and take
no hidden state; callers that need ordered output must sort. A finite set's
empty read, and a diagonal view's read below its e, is one shared frozenset,
so a caller that keys reads hashes it once, not once per read. The registry
counts a read only after every check has passed, which gives reproducible
work measurements independent of wall clock: ``enumerate_to`` and
``arrivals`` count one query each, ``below_each`` one per code it is given,
and ``stable_below``, ``get`` and a refused read none.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from math import inf

from .encodings import _check_natural

# The one empty read: CPython 3.11 builds a new empty frozenset per call, and
# a shared one is hashed once wherever reads are keyed (check_txtfext).
_EMPTY: frozenset[int] = frozenset()


class Enumerator:
    """One set unfolding over stages; subclasses fill in _below.

    at_stage checks its stage and is _below with no bound; a subclass
    overrides _arrivals to answer without snapshots.
    """

    __slots__ = ()

    def at_stage(self, s: int) -> frozenset[int]:
        """Elements enumerated by stage s. Must be monotone in s."""
        _check_natural(s, "stage")
        return self._below(inf, s)

    def _below(self, bound: float, s: int) -> frozenset[int]:
        """Elements of at_stage(s) under bound, for a checked stage."""
        raise NotImplementedError

    def _arrivals(self, s0: int, s1: int) -> dict[int, int]:
        """Element -> least stage in s0+1..s1 showing it, for x outside
        at_stage(s0); any other key is in at_stage(s0). Stages come checked
        and in order; exact even if not monotone."""
        out = dict.fromkeys(self._below(inf, s0), s0)
        for t in range(s0 + 1, s1 + 1):
            for x in self._below(inf, t):
                out.setdefault(x, t)
        return {x: t for x, t in out.items() if t > s0}

    def stable_below(self, k: int, s: int) -> bool:
        """True only if the part below k provably never changes after stage s.

        False means "unknown", not "will change"; the default is always safe.
        """
        return False


class FiniteSetEnumerator(Enumerator):
    """Dumps a fixed finite set at stage 1 and never changes again."""

    __slots__ = ("_elements", "_least", "_greatest")

    def __init__(self, elements: Iterable[int]):
        self._elements = frozenset(elements)
        for x in self._elements:
            _check_natural(x, "element")
        # an empty set's greatest, -1, is under every bound: _below reads it whole
        self._least = min(self._elements, default=0)
        self._greatest = max(self._elements, default=-1)

    def _below(self, bound: float, s: int) -> frozenset[int]:
        """The set's ends settle most reads: all of it, or nothing."""
        if s < 1 or self._least >= bound:
            return _EMPTY
        if self._greatest < bound:
            return self._elements
        return frozenset(x for x in self._elements if x < bound)

    def _arrivals(self, s0: int, s1: int) -> dict[int, int]:
        return dict.fromkeys(self._elements, 1) if s0 < 1 <= s1 else {}

    def stable_below(self, k: int, s: int) -> bool:
        return s >= 1 or not self._elements


class _Singleton(Enumerator):
    """FiniteSetEnumerator({x}) for a checked natural x, in one slot.

    It answers every read as that enumerator does, but holds x alone and
    builds its one-element set only when a read returns it.
    """

    __slots__ = ("_x",)

    def __init__(self, x: int):
        self._x = x

    def _below(self, bound: float, s: int) -> frozenset[int]:
        return frozenset((self._x,)) if s >= 1 and self._x < bound else _EMPTY

    def _arrivals(self, s0: int, s1: int) -> dict[int, int]:
        return {self._x: 1} if s0 < 1 <= s1 else {}

    def stable_below(self, k: int, s: int) -> bool:
        return s >= 1


class StepFunctionEnumerator(Enumerator):
    """Wraps a raw stage -> set function with no safety net for monotonicity.

    The callback may violate monotonicity, so the tests inject faults with it
    and the checkers are expected to catch them; suite criterion 8 builds its
    random growing sets from it too. Each element it yields is checked to be
    a natural number when read.
    """

    def __init__(self, fn: Callable[[int], Iterable[int]]):
        self._fn = fn

    def _below(self, bound: float, s: int) -> frozenset[int]:
        elements = frozenset(self._fn(s))
        for x in elements:
            _check_natural(x, f"element at stage {s}")
        return frozenset(x for x in elements if x < bound)


class UnionEnumerator(Enumerator):
    """Pointwise union of finitely many enumerators."""

    def __init__(self, parts: Iterable[Enumerator]):
        self._parts = tuple(parts)
        for p in self._parts:
            if not isinstance(p, Enumerator):
                raise ValueError(f"a union joins enumerators, got {type(p).__name__}")

    def _arrivals(self, s0: int, s1: int) -> dict[int, int]:
        """Each element's least stage over the parts; a key that one part
        adds and another had already is in at_stage(s0), as allowed. Every
        part's read is a fresh dict, so the largest becomes the result and
        only the others are merged into it."""
        reads = [p._arrivals(s0, s1) for p in self._parts]
        if not reads:
            return {}
        out = max(reads, key=len)
        for read in reads:
            if read is not out:
                for x, t in read.items():
                    if out.setdefault(x, t) > t:
                        out[x] = t
        return out

    def _below(self, bound: float, s: int) -> frozenset[int]:
        return frozenset().union(*(p._below(bound, s) for p in self._parts))

    def stable_below(self, k: int, s: int) -> bool:
        return all(p.stable_below(k, s) for p in self._parts)


class Registry:
    """Code -> enumerator table; the shared hypothesis space of a run.

    Codes are assigned sequentially in registration order, which makes every
    experiment replayable: the same registrations in the same order produce
    the same codes. Code 0 is always the empty set.
    """

    def __init__(self) -> None:
        self._table: list[Enumerator] = [FiniteSetEnumerator(())]
        self.query_count = 0

    def register(self, enum: Enumerator) -> int:
        if not isinstance(enum, Enumerator):
            raise ValueError(f"a registry codes enumerators, got {type(enum).__name__}")
        self._table.append(enum)
        return len(self._table) - 1

    def __len__(self) -> int:
        return len(self._table)

    def get(self, code: int) -> Enumerator:
        """The coded enumerator; a lookup, not a query, so not counted."""
        return self._checked((code,), 0, count=0)[code]

    def _checked(
        self, codes: Sequence[int], s: int, n: int = 0, name: str = "stage", count: int = 1
    ) -> list[Enumerator]:
        """The code table, after checking each code, then n, then stage s; counts
        `count` queries per code once all pass. A stage n (arrivals' s0) must
        not come after s. A plain int passes the inline tests; anything else
        goes to _check_natural, for its message and its rule on int subclasses.
        A plain loop: on two codes a call or a comprehension costs more."""
        table = self._table
        size = len(table)
        for code in codes:
            if not (type(code) is int and 0 <= code < size):
                raise KeyError(f"unregistered hypothesis code {code!r}")
        if not (type(n) is int and n >= 0):
            _check_natural(n, name)
        if not (type(s) is int and s >= 0):
            _check_natural(s, "stage")
        if s < n and name == "stage":
            raise ValueError(f"stage {s} comes before stage {n}")
        self.query_count += count * len(codes)
        return table

    def enumerate_to(self, code: int, s: int) -> frozenset[int]:
        """at_stage(s) of the coded enumerator; counts as one query."""
        return self._checked((code,), s)[code]._below(inf, s)

    def arrivals(self, code: int, s0: int, s1: int) -> dict[int, int]:
        """_arrivals(s0, s1) of the coded enumerator; counts as one query."""
        return self._checked((code,), s1, s0)[code]._arrivals(s0, s1)

    def stable_below(self, code: int, k: int, s: int) -> bool:
        """stable_below(k, s) of the coded enumerator; not counted."""
        return self._checked((code,), s, k, "depth", 0)[code].stable_below(k, s)

    def below_each(self, codes: Sequence[int], bound: int, s: int) -> list[frozenset[int]]:
        """Each coded set's elements under bound at stage s, in the order of
        codes; one query per code, none for a refused list.

        Checks every code in order, naming the first bad one, then the bound
        and the stage, even for an empty list. Two codes have the same set
        below the bound exactly when their reads are equal.
        """
        table = self._checked(codes, s, bound, "bound")
        out = []
        for code in codes:
            out.append(table[code]._below(bound, s))
        return out


def check_monotone(
    registry: Registry, codes: Iterable[int], s_max: int
) -> list[tuple[int, int, int]]:
    """Scan coded enumerators for stage-monotonicity violations.

    Returns (code, stage, lost_element) triples: at ``stage`` the element was
    present, at ``stage + 1`` it was gone. Empty list means all clean up to
    s_max. Cost is one query per (code, stage) pair, so keep s_max modest.
    """
    _check_natural(s_max, "stage bound s_max")
    violations: list[tuple[int, int, int]] = []
    for code in codes:
        prev = registry.enumerate_to(code, 0)
        for s in range(1, s_max + 1):
            cur = registry.enumerate_to(code, s)
            lost = prev - cur
            for x in sorted(lost):
                violations.append((code, s - 1, x))
            prev = cur
    return violations


class DiscoveryCursor:
    """Tracks first-appearance order of elements across stages.

    Feeding stages in increasing order yields a canonical listing: within one
    stage, newly seen elements are appended in sorted order, and elements seen
    before are dropped. canonical_text feeds it the snapshots of the stages up
    to the first one that holds an element, and lays out the rest itself.
    """

    def __init__(self) -> None:
        self._seen: set[int] = set()
        self.order: list[int] = []

    def advance(self, elements: frozenset[int]) -> list[int]:
        """Record a stage snapshot; returns the elements new to this stage."""
        fresh = sorted(elements - self._seen)
        self._seen.update(fresh)
        self.order.extend(fresh)
        return fresh
