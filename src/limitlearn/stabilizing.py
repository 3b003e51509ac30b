"""Stabilization test: does one string pin a learner down on a tail set?

Fix a base value e, a comparison depth k, a candidate string sigma, and a
stage budget s. The admissible extensions of sigma are the strings over
[e, s] that extend it and have length at most s. Sigma stabilizes the learner
when three things hold:

  1. sigma's content covers e..e+k and stays inside [e, infinity);
  2. no admissible extension makes the learner output a code above |sigma|;
  3. every admissible extension's output enumerates the same elements below k
     as sigma's own output, at every stage |sigma| + t with t <= s.

check_stabilizing returns None on success or a concrete witness against the
first failing condition. Condition 1 is a rule over sigma's least value,
greatest value and content (_covers_required), decided by count: with
nothing below e and nothing above e+k, the content lies inside [e, e+k] and
covers it iff it holds k+1 values. The public face reads sigma once into
those three, checking each distinct value is a natural number; the stage
table's re-check keeps them as running values up its chain of rows instead
(Construction.reverify_final), and both hand them to one check. The check
takes learners whose output depends only on input length, and the public
face refuses any other learner before it reads sigma (the stage table
refuses one when it is built): admissible extensions of a length-m string
realize exactly the lengths m..s, so both quantifiers collapse to a scan
over lengths. That scan is the resumable Survival kernel, which the stage
table also keeps per row and advances one stage at a time. Condition 3
reads two codes' sets below k at a stage in one two-code
``Registry.below_each`` read and compares them. The tests keep a
brute-force check that enumerates every admissible extension as the oracle;
the two agree on the verdict everywhere, and witnesses are always checkable
via stab_witness_valid.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass

from .encodings import Sequence, _check_natural, is_prefix
from .learners import Learner, ProfiledLearner
from .universe import Registry


@dataclass(frozen=True)
class StabWitness:
    """Counterexample: which condition broke, on which extension, at which t."""

    tau: Sequence
    t: int
    violated_condition: int

    def as_dict(self) -> dict:
        return {
            "tau": list(self.tau),
            "t": self.t,
            "violated_condition": self.violated_condition,
        }


def base_qualifies(base: Sequence, s: int, e: int) -> bool:
    """True iff base itself is an admissible string for budget s over [e, s]."""
    _check_natural(s, "stage budget s")
    _check_natural(e, "base value e")
    return len(base) <= s and (not base or e <= min(base) and max(base) <= s)


def _read(sigma: Sequence) -> tuple[int, int, frozenset[int]]:
    """Sigma's least value, greatest value and content; each distinct value checked.

    A value equal to a natural number already in sigma (True beside 1) is
    read as that number, as a set reads it.
    """
    c = frozenset(sigma)
    for x in c:
        _check_natural(x, "sigma value")
    return min(c, default=0), max(c, default=0), c


def _covers_required(e: int, k: int, lo: int, hi: int, c: Set[int]) -> bool:
    """Condition 1 on a string with least value lo, greatest hi and content c.

    With nothing below e, a string with hi <= e+k covers [e, e+k] iff it holds
    k+1 values; only a string reaching past e+k is read value by value.
    """
    if not c or lo < e:
        return False  # e must occur, and nothing may lie below it
    return len(c) == k + 1 if hi <= e + k else c.issuperset(range(e, e + k + 1))


class Survival:
    """Conditions 2 and 3 for a length-sigma_len string, collapsed over lengths.

    Valid for length-profiled learners, whose admissible extensions share one
    verdict per length. Tracks which codes have been proven to agree with the
    string's own code c0 below depth k at every stage from sigma_len on
    (checked), and which still need per-stage comparisons (pending, mapping
    code to the next offset t to examine). Settled means no future stage can
    break anything: every code the learner will ever emit is checked, and
    checked codes never exceed sigma_len. Failures are permanent: the max code
    over lengths only grows, and a disagreement below k at a fixed stage never
    un-happens.
    """

    __slots__ = ("sigma_len", "k", "c0", "checked", "pending", "settled")

    def __init__(self, sigma_len: int, k: int):
        self.sigma_len = sigma_len
        self.k = k
        self.c0: int | None = None
        self.checked: set[int] = set()
        self.pending: dict[int, int] = {}
        self.settled = False

    def fold(
        self, learner: ProfiledLearner, registry: Registry, lo: int, s: int
    ) -> tuple[int, int, int] | None:
        """Fold in lengths lo..s and stages up to sigma_len + s.

        The first fold starts at lo = sigma_len; a settled state is not
        folded again (its caller stops there). Returns None while both
        conditions hold, else the first failure as (condition, code, t); for
        condition 2 the code is the largest one emitted over lo..s. One
        length (lo == s) is read as one code, and no set is built for it.
        """
        if lo == s:
            top = learner._code(s)
            codes = (top,)
        else:
            codes = learner._codes(lo, s)
            top = max(codes)
        # condition 2 first: it needs no per-code state
        if top > self.sigma_len:
            return 2, top, 0
        checked, pending = self.checked, self.pending
        if self.c0 is None:
            self.c0 = learner._code(self.sigma_len)
            checked.add(self.c0)
        if self.k == 0:
            # condition 3 is vacuous below depth 0
            checked.update(codes)
        for c in codes:
            if c not in checked:
                pending.setdefault(c, 0)
        if pending:
            c0, k = self.c0, self.k
            for c in sorted(pending):
                for t in range(pending[c], s + 1):
                    stage = self.sigma_len + t
                    a, b = registry.below_each((c0, c), k, stage)
                    if a != b:
                        return 3, c, t
                    if registry.stable_below(c0, k, stage) and registry.stable_below(
                        c, k, stage
                    ):
                        checked.add(c)
                        del pending[c]
                        break
                else:
                    pending[c] = s + 1
        finite = learner.finite_codes
        self.settled = bool(finite) and not pending and finite <= checked
        return None


def _check_instance(e: int, k: int, s: int) -> None:
    _check_natural(e, "base value e")
    _check_natural(k, "depth k")
    _check_natural(s, "stage budget s")


def check_stabilizing(
    e: int,
    k: int,
    sigma: Sequence,
    s: int,
    learner: ProfiledLearner,
    registry: Registry,
) -> StabWitness | None:
    """None if sigma stabilizes the learner at budget s, else a witness."""
    _check_instance(e, k, s)
    if not isinstance(learner, ProfiledLearner):
        raise ValueError("the stabilization check requires a length-profiled learner")
    return _check_read(e, k, sigma, _read(sigma), s, learner, registry)


def _check_read(
    e: int,
    k: int,
    sigma: Sequence,
    read: tuple[int, int, Set[int]],
    s: int,
    learner: ProfiledLearner,
    registry: Registry,
) -> StabWitness | None:
    """check_stabilizing past its checks, on sigma's read (lo, hi, content).

    Sigma itself is not read again: only a witness copies it, into a tuple.
    """
    if not _covers_required(e, k, *read):
        return StabWitness(tau=tuple(sigma), t=0, violated_condition=1)
    m0 = len(sigma)
    # not admissible itself: condition 1 already put every value at or above e
    if m0 > s or read[1] > s:
        return None
    failure = Survival(m0, k).fold(learner, registry, m0, s)
    if failure is None:
        return None
    condition, code, t = failure
    # condition 1 guarantees e occurs in sigma, hence e <= s here, hence a
    # length-m extension exists for every m in m0..s (pad with e)
    realizes = (lambda c: c > m0) if condition == 2 else (lambda c: c == code)
    m = next(m for m in range(m0, s + 1) if realizes(learner._code(m)))
    tau = tuple(sigma) + (e,) * (m - m0)
    return StabWitness(tau=tau, t=t, violated_condition=condition)


def stab_witness_valid(
    witness: StabWitness,
    e: int,
    k: int,
    sigma: Sequence,
    s: int,
    learner: Learner,
    registry: Registry,
) -> bool:
    """Independently confirm a witness without trusting its producer."""
    _check_instance(e, k, s)
    read, sigma = _read(sigma), tuple(sigma)
    if witness.violated_condition == 1:
        return tuple(witness.tau) == sigma and not _covers_required(e, k, *read)
    tau = tuple(witness.tau)
    if not (is_prefix(sigma, tau) and base_qualifies(tau, s, e)):
        return False
    if witness.violated_condition == 2:
        return learner.decide(tau) > len(sigma)
    if witness.violated_condition == 3:
        if not 0 <= witness.t <= s:
            return False
        codes = learner.decide(sigma), learner.decide(tau)
        a, b = registry.below_each(codes, k, len(sigma) + witness.t)
        return a != b
    return False
