"""Brute-force stabilization check, kept as the oracle for check_stabilizing.

It enumerates every admissible extension of sigma outright and asks the
learner about each one, so it needs no length profile but costs time
exponential in the budget s. check_stabilizing collapses the same two
quantifiers over lengths and must agree with it on the verdict everywhere.
"""

from __future__ import annotations

from itertools import product

from limitlearn.encodings import Sequence
from limitlearn.learners import Learner
from limitlearn.stabilizing import StabWitness, base_qualifies
from limitlearn.universe import Registry

# Work budget of the brute oracle: the longest candidate list it may build.
MAX_CANDIDATES = 1_000_000


def candidate_strings(base: Sequence, s: int, e: int) -> list[Sequence]:
    """All admissible extensions of base, in length-lex order.

    Empty when base is not itself admissible. Size grows like (s-e+1)^s, so
    the size is computed first and a list past MAX_CANDIDATES raises
    ValueError.
    """
    if not base_qualifies(base, s, e):
        return []
    width = max(0, s - e + 1)
    size = sum(width ** (m - len(base)) for m in range(len(base), s + 1))
    if size > MAX_CANDIDATES:
        raise ValueError(
            f"brute force needs {size} candidate strings at stage {s}, "
            f"over the budget of {MAX_CANDIDATES}"
        )
    out: list[Sequence] = []
    for m in range(len(base), s + 1):
        for suffix in product(range(e, s + 1), repeat=m - len(base)):
            out.append(base + suffix)
    return out


def check_brute(
    e: int, k: int, sigma: Sequence, s: int, learner: Learner, registry: Registry
) -> StabWitness | None:
    """None if sigma stabilizes the learner at budget s, else a witness."""
    c = frozenset(sigma)
    if any(x < e for x in c) or not set(range(e, e + k + 1)) <= c:
        return StabWitness(tau=sigma, t=0, violated_condition=1)
    fam = candidate_strings(sigma, s, e)
    if not fam:
        # no admissible extension, nothing to violate conditions 2 and 3
        return None
    for tau in fam:
        if learner.decide(tau) > len(sigma):
            return StabWitness(tau=tau, t=0, violated_condition=2)
    c0 = learner.decide(sigma)
    for tau in fam:
        c1 = learner.decide(tau)
        if c1 == c0:
            continue
        for t in range(s + 1):
            a, b = registry.below_each((c0, c1), k, len(sigma) + t)
            if a != b:
                return StabWitness(tau=tau, t=t, violated_condition=3)
    return None
