"""One shared experiment context: registry, learners, tables, families.

Codes are assigned in registration order, so any two workspaces that replay
the same calls in the same order agree on every code. All factory methods
memoize; asking twice never registers twice. Each checks all its arguments
before its memo lookup, so an argument equal to a memoized one (1.0 or True
beside 1) is refused whatever was asked before, and a refused call registers
and memoizes nothing.
"""

from __future__ import annotations

from functools import partial

from .construction import Construction, DiagonalView, _check_variant
from .encodings import _check_natural, finite_set_decode
from .learners import (
    ConstantLearner,
    FreshLengthLearner,
    GapParityLearner,
    LengthParityLearner,
    ProfiledLearner,
)
from .universe import FiniteSetEnumerator, Registry, UnionEnumerator

SAMPLE_LEARNERS = ("constant_zero", "length_parity", "fresh_each_step")


def _check_call(kind: str, e: int = 0, variant: str = "plain", n: int = 0) -> None:
    if kind not in SAMPLE_LEARNERS:
        raise ValueError(f"unknown sample learner {kind!r}")
    _check_natural(e, "base value e")
    _check_variant(variant)
    _check_natural(n, "index")


class Workspace:
    def __init__(self) -> None:
        self.registry = Registry()
        self._samples: dict[str, ProfiledLearner] = {}
        self._gap_learners: dict[str, GapParityLearner] = {}
        self._constructions: dict[tuple[str, int], Construction] = {}
        self._diagonal_codes: dict[tuple[str, int, str], int] = {}
        self._member_codes: dict[tuple[str, int, int, str], int] = {}

    def sample_learner(self, kind: str) -> ProfiledLearner:
        _check_call(kind)
        if kind not in self._samples:
            if kind == "constant_zero":
                self._samples[kind] = ConstantLearner()
            elif kind == "length_parity":
                self._samples[kind] = LengthParityLearner(self.registry)
            else:
                self._samples[kind] = FreshLengthLearner(self.registry)
        return self._samples[kind]

    def gap_parity_learner(self, adversary: str) -> GapParityLearner:
        """The content-reading learner aimed at one adversary's diagonals."""
        if adversary not in self._gap_learners:
            self.sample_learner(adversary)
            resolve = partial(self.diagonal_code, adversary)
            self._gap_learners[adversary] = GapParityLearner(resolve)
        return self._gap_learners[adversary]

    def construction(self, kind: str, e: int) -> Construction:
        _check_call(kind, e)
        key = (kind, e)
        if key not in self._constructions:
            learner = self.sample_learner(kind)
            self._constructions[key] = Construction(learner, e, self.registry)
        return self._constructions[key]

    def diagonal_code(self, kind: str, e: int, variant: str) -> int:
        _check_call(kind, e, variant)
        key = (kind, e, variant)
        if key not in self._diagonal_codes:
            view = DiagonalView(self.construction(kind, e), variant)
            self._diagonal_codes[key] = self.registry.register(view)
        return self._diagonal_codes[key]

    def family_member_code(self, kind: str, e: int, n: int, variant: str) -> int:
        """Diagonal set joined with the n-th canonical finite set above e."""
        _check_call(kind, e, variant, n)
        key = (kind, e, n, variant)
        if key not in self._member_codes:
            diag = self.registry.get(self.diagonal_code(kind, e, variant))
            extra = frozenset(x for x in finite_set_decode(n) if x >= e)
            member = UnionEnumerator([diag, FiniteSetEnumerator(extra)])
            self._member_codes[key] = self.registry.register(member)
        return self._member_codes[key]

    def counters(self) -> dict:
        out = {"registry_queries": self.registry.query_count, "tables": {}}
        for (kind, e), c in sorted(self._constructions.items()):
            out["tables"][f"{kind}/e{e}"] = dict(c.counters, stage=c.stage)
        return out
