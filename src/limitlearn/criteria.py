"""Texts, traces, and finite-horizon verdicts for vacillatory learning.

A text is a fixed listing of a set; a trace is a learner's outputs along its
prefixes. The two checkers ask whether the tail of a trace vacillates between
at most j hypotheses (check_txtfex) and additionally whether those hypotheses
enumerate the same set on the nose (check_txtfext). Everything is judged at a
finite horizon, so verdicts come in three flavors:

  PASS_AT_HORIZON  consistent with success given everything visible so far;
  FAIL_WITNESSED   a concrete violation that later stages cannot erase;
  INCONCLUSIVE     the window is degenerate or still moving.

FAIL witnesses are stage-stamped facts (extra codes seen after the settle
point, or a set element observed early and still absent from the partner at
the full stage), so rerunning with a larger horizon keeps them valid. The
finite-i content clause is the one deliberate exception: it compares against
prefix content, which can still grow, and is marked revocable in details.

Texts and traces are linear in what they read. canonical_text asks the
registry once for every element its later stages add, tagged with its stage
(``arrivals``), and sorts them once; run_learner hands the whole text to
the learner once (``Learner.outputs``) instead of one prefix per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .encodings import Sequence, _check_natural
from .learners import Learner, _check_horizon
from .universe import DiscoveryCursor, Registry


class Status(str, Enum):
    PASS_AT_HORIZON = "PASS_AT_HORIZON"
    FAIL_WITNESSED = "FAIL_WITNESSED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Text:
    """A concrete listing; item n is what the learner sees at step n."""

    items: Sequence
    label: str = ""

    def __len__(self) -> int:
        return len(self.items)

    def content_at(self, n: int) -> frozenset[int]:
        """The set of the first n items."""
        _check_natural(n, "prefix length")
        if n > len(self.items):
            raise ValueError(f"text has only {len(self.items)} items, wanted {n}")
        return frozenset(self.items[:n])


@dataclass(frozen=True)
class Trace:
    """Outputs along a text: outputs[n] is the guess after n items."""

    outputs: tuple[int, ...]
    text: Text
    horizon: int

    def __post_init__(self) -> None:
        """horizon + 1 outputs, at a horizon within the text; O(1)."""
        if not (type(self.horizon) is int and 0 <= self.horizon <= len(self.text)):
            _check_horizon(self.horizon, len(self.text))
        if len(self.outputs) != self.horizon + 1:
            raise ValueError(f"horizon {self.horizon} needs {self.horizon + 1} outputs")


def canonical_text(registry: Registry, code: int, length: int) -> Text:
    """Discovery-order listing of a coded set, padded deterministically.

    Stage 0 onward, new elements enter in sorted order. Position n may deliver
    what stages up to s0 + n show (s0 = first nonempty stage): the next
    undelivered element, or, once delivery has caught up, the least element
    known; late discoveries still surface later. Stages s0 + 1 on come from
    one ``Registry.arrivals`` read, sorted once by (stage, value) and laid out
    in one pass, so a text costs s0 + 2 queries and what its set enumerates.
    """
    _check_natural(length, "text length")
    cursor = DiscoveryCursor()
    s0 = 0
    while not cursor.advance(registry.enumerate_to(code, s0)):
        if s0 == length:
            raise ValueError(
                f"code {code} enumerated nothing by stage {length}; cannot build a text"
            )
        s0 += 1
    items, least = cursor.order[:length], cursor.order[0]
    if length >= 2:
        late = registry.arrivals(code, s0, s0 + length - 1)
        for x in cursor.order:
            late.pop(x, None)  # a key the opening snapshot already holds
        # by stage, each stage's elements in sorted order
        for x in sorted(sorted(late), key=late.__getitem__):
            n = late[x] - s0  # the first position that may deliver x
            if len(items) < n:  # delivery caught up: repeat the least so far
                items += [least] * (n - len(items))
            elif len(items) == length:
                break
            items.append(x)
            if x < least:
                least = x
    items += [least] * (length - len(items))
    return Text(items=tuple(items), label=f"canonical:{code}")


def run_learner(learner: Learner, text: Text, horizon: int) -> Trace:
    """Feed prefixes of lengths 0..horizon (``Learner.outputs``, which checks
    the horizon); horizon+1 outputs total."""
    return Trace(outputs=learner.outputs(text.items, horizon), text=text, horizon=horizon)


@dataclass(frozen=True)
class Verdict:
    status: Status
    witness: dict | None
    details: dict

    def as_dict(self) -> dict:
        return {
            "status": self.status.value,
            "witness": self.witness,
            "details": self.details,
        }


def _check_ij(value, name: str) -> None:
    if value == "*":
        return
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return
    raise ValueError(f"{name} must be a natural number or '*', got {value!r}")


def _settle_point(i, j, settle, bound, horizon: int) -> int:
    """Check the checkers' arguments; returns settle, horizon // 2 for None.

    A negative settle is returned as it is: it is a degenerate window.
    """
    _check_ij(i, "i")
    _check_ij(j, "j")
    _check_natural(bound, "bound")
    if settle is None:
        return horizon // 2
    if not isinstance(settle, int) or isinstance(settle, bool):
        raise ValueError(f"settle must be an integer or None, got {settle!r}")
    return settle


def _window_codes(trace: Trace, settle: int) -> list[int]:
    """Distinct codes in outputs[settle..horizon], in first-seen order."""
    return list(dict.fromkeys(trace.outputs[settle:]))


def check_txtfex(
    trace: Trace,
    registry: Registry,
    i,
    j,
    settle: int | None = None,
    bound: int = 64,
) -> Verdict:
    """Does the trace tail vacillate among at most j near-correct codes?

    j bounds the distinct codes after the settle point (default horizon/2);
    finite i additionally bounds, per tail code, the symmetric difference
    below `bound` between the coded set and the text's prefix content.
    """
    horizon = trace.horizon
    settle = _settle_point(i, j, settle, bound, horizon)
    if horizon < 1 or settle < 0 or settle >= horizon:
        return Verdict(
            Status.INCONCLUSIVE,
            None,
            {"reason": "degenerate window", "settle": settle, "horizon": horizon},
        )
    tail = _window_codes(trace, settle)
    base_details = {"settle": settle, "horizon": horizon, "tail_codes": sorted(tail)}
    if j != "*" and len(tail) > j:
        return Verdict(
            Status.FAIL_WITNESSED,
            {"kind": "cardinality", "codes": sorted(tail), "allowed": j},
            base_details,
        )
    if i != "*":
        target = frozenset(x for x in trace.text.content_at(horizon) if x < bound)
        for code in tail:
            diff = registry.below(code, bound, horizon) ^ target
            if len(diff) > i:
                return Verdict(
                    Status.FAIL_WITNESSED,
                    {
                        "kind": "content",
                        "code": code,
                        "difference": sorted(diff),
                        "allowed": i,
                        "revocable": True,
                    },
                    base_details,
                )
    mid = (settle + horizon) // 2
    if set(trace.outputs[mid:]) != set(tail):
        return Verdict(
            Status.INCONCLUSIVE,
            None,
            dict(base_details, reason="tail still shifting"),
        )
    return Verdict(Status.PASS_AT_HORIZON, None, base_details)


def check_txtfext(
    trace: Trace,
    registry: Registry,
    i,
    j,
    settle: int | None = None,
    bound: int = 64,
) -> Verdict:
    """Stricter checker: tail codes must enumerate identical sets.

    Builds on check_txtfex, then compares its tail codes pairwise. An element
    enumerated by one code at the early stage (horizon // 2) and still
    missing from the other at the full stage (the horizon) is a persistent
    one-sided difference: a FAIL for every i, because exact agreement of the
    enumerated sets is required. A difference only visible at the full stage
    might still close, so it downgrades to INCONCLUSIVE instead. Each tail
    code is read once at both stages, in one ``Registry.below_each`` batch
    per stage: two queries per code, none for a one-code tail, and the
    bound and stage are checked once per batch, not once per code. A tail
    holding an unregistered code raises KeyError before either batch
    counts. Monotone codes with equal readings never differ, so only the
    least code of each distinct reading is compared; the first failing pair
    in sorted order is always two such codes.
    """
    fex = check_txtfex(trace, registry, i, j, settle=settle, bound=bound)
    if fex.status is Status.FAIL_WITNESSED:
        return Verdict(fex.status, fex.witness, dict(fex.details, via="vacillation"))
    tail = fex.details.get("tail_codes", [])
    stage = trace.horizon
    early = max(1, stage // 2)
    least: dict[tuple[frozenset[int], frozenset[int]], int] = {}
    if len(tail) > 1:
        early_reads = registry.below_each(tail, bound, early)
        full_reads = registry.below_each(tail, bound, stage)
        for code, early_read, full_read in zip(tail, early_reads, full_reads):
            least.setdefault((early_read, full_read), code)
    late_only = None
    for ((a_early, a_full), a), ((b_early, b_full), b) in combinations(least.items(), 2):
        persistent = (a_early - b_full) | (b_early - a_full)
        if persistent:
            return Verdict(
                Status.FAIL_WITNESSED,
                {
                    "kind": "pairwise",
                    "codes": [a, b],
                    "elements": sorted(persistent),
                    "early_stage": early,
                    "stage": stage,
                },
                dict(fex.details, via="pairwise"),
            )
        if late_only is None and a_full != b_full:
            late_only = {"codes": [a, b], "elements": sorted(a_full ^ b_full)}
    if fex.status is Status.INCONCLUSIVE or late_only is None:
        return fex
    return Verdict(
        Status.INCONCLUSIVE,
        None,
        dict(fex.details, reason="late one-sided difference", pair=late_only),
    )


def verify_witness(
    verdict: Verdict,
    trace: Trace,
    registry: Registry,
    i,
    j,
    settle: int | None = None,
    bound: int = 64,
) -> bool:
    """Re-derive a FAIL witness from raw data, trusting nothing cached.

    The codes a witness names must be the trace's own, output after the
    settle point, and a pairwise witness must use the checker's early stage.
    A malformed witness (not a dict, or a field missing or of the wrong
    shape) does not verify, and neither does a verdict that is not a Verdict,
    such as the as_dict() form a saved report holds.
    """
    horizon = trace.horizon
    settle = _settle_point(i, j, settle, bound, horizon)
    if not isinstance(verdict, Verdict):
        return False
    w = verdict.witness
    if verdict.status is not Status.FAIL_WITNESSED or not isinstance(w, dict):
        return False
    if not 0 <= settle < horizon:
        return False  # check_txtfex finds nothing on a degenerate window
    tail = set(_window_codes(trace, settle))
    kind = w.get("kind")
    early = max(1, horizon // 2)
    try:  # the witness's own fields; a missing or misshapen one does not verify
        if kind == "cardinality" and j != "*":
            named = set(w["codes"])
        elif kind == "content" and i != "*":
            code, difference = w["code"], w["difference"]
            named = {code}
        elif kind == "pairwise" and w.get("early_stage", early) == early:
            (a, b), elements = w["codes"], set(w["elements"])
            named = {a, b}
        else:
            return False
    except (KeyError, TypeError, ValueError):
        return False
    # a code is an int: True or 1.0 equals a code of the tail but names none
    if not named <= tail or not set(map(type, named)) <= {int}:
        return False
    if kind == "cardinality":
        return len(tail) > j
    if kind == "content":
        target = frozenset(x for x in trace.text.content_at(horizon) if x < bound)
        diff = registry.below(code, bound, horizon) ^ target
        return len(diff) > i and sorted(diff) == difference
    persistent = (registry.below(a, bound, early) - registry.below(b, bound, horizon)) | (
        registry.below(b, bound, early) - registry.below(a, bound, horizon)
    )
    return a != b and bool(persistent) and elements == persistent
