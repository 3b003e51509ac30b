"""The diagonal stage table: nested stabilizing strings and their fallout.

For one length-profiled learner and one base value e, the construction
maintains an infinite table of rows, revised stage by stage. Row n tries to
hold the length-lex least admissible string that covers e..e+n, extends row
n-1's string, and stabilizes the learner at depth n in the sense of
``stabilizing.check_stabilizing``. Stage 0 is the seed: row 0 holds the empty
string, everything else is undefined. At each later stage a row keeps its
string only while its string still stabilizes and every lower row kept an
unchanged value; otherwise it is recomputed from scratch, or left undefined
when no admissible string qualifies yet.

Because each stabilization failure is witnessed by facts about fixed stages
that never mutate afterwards, failures are permanent: a length that failed
at a depth never passes there again. The lengths refuted above a row's base
(the length of the row below), by a search or by the row's own kernel,
always form one unbroken run, so each depth keeps one number, its untried
length: the least length past that run. A search leaves it at the length it
finds; when the row's resumed kernel fails that length, on a base that has
not moved, it goes one past it. A search starts there or just above the
base, whichever is larger. Why, by induction on depth: row 0's base is
always 0. A row's length is the least unrefuted length above its base, and
refutations are permanent, so while its base never decreases, neither does
its own length. So no base ever decreases, and the refuted run above a base
goes from base + 1 to just below the untried one. A surviving row only
needs an incremental check per stage: the row keeps the
``stabilizing.Survival`` kernel state that admitted its string, the same
kernel the standalone check runs, and resumes it one stage
at a time. Once that state is settled the row can only move if a lower row
does, so the leading run of defined, settled rows (the frontier) is never
visited again: a stage starts at the frontier, and above the first undefined
row it stops at the first row that was undefined already. A row the frontier
passes trades its kernel state for one shared settled marker, so rows behind
it hold no checked codes or pending offsets. A search needs no
scan of its base either, because of the row rule: row 0 is all e, and row k
is row k-1's string, then e repeated, then e+k. Row k-1's string holds
exactly the values e..e+k-1, so e+k is the one value row k must add, and its
least extension of length m pads with e and ends on e+k; a search only
chooses m. So the lengths of rows 0..k fix row k's string: a row logs one
(stage, length) event per change of its string, (stage, None) when it goes
undefined, and strings are built only where a caller reads one (_strings).
Row k's string changed iff its length changed, it went to or from undefined,
or k >= 2 and row k-1's string changed (row 1 is e padding then e+1 whatever
row 0's length). A stage thus costs the rows that can still change, so table
time and memory are linear in the horizon, while staying exactly faithful to
the brute-force semantics of stabilization (the tests keep a brute-force
check, and a brute-force table and a full sweep that store whole strings, as
oracles).

On top of the table live the observations. A row that has sat unchanged long
enough yields its even marker value, and the odd successor is one more; both
lists come from one scan over the rows with a running maximum of their
settling points (a_values, b_values), which stops at the first depth that is
not observable. Dropping the markers from the tail set [e, infinity) gives two
diagonal sets, "plain" and "hat"; they are read only through DiagonalView,
a stage-indexed enumerator whose stage-s slice admits x only when a positive
confirmation exists by stage s that x can never become a marker.
Confirmations are monotone facts, so the enumerators never retract an
element. Each x's confirmation stage is stored once, in one array filled in
stage order; an x that must wait sits in a heap keyed by the one depth F it
waits on, so each x costs O(log n) once (see confirmation_stage). Beside it,
each variant keeps an entry log: its values in the order they enter, their
stages, and the log's length after each stage. ``_arrivals(s0, s1)`` is the
slice of the log between stages s0 and s1, and ``_below(bound, s)`` reads
the stages of only the values of e..s under the bound, so a read costs what
it returns and none builds a snapshot.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from heapq import heappop, heappush
from itertools import pairwise, repeat
from math import inf
from typing import Iterator

from .encodings import Sequence, _check_natural
from .learners import ProfiledLearner
from .stabilizing import StabWitness, Survival, _check_read
from .universe import Enumerator, Registry

# Report-size budget of r_prefix: the widest [e, bound) it may list.
MAX_PREFIX = 1_000_000
# Work budget of separation_level for a learner with no finite code set: the
# most lengths whose codes it registers and reads. Their sets are compared
# pairwise, pruned by their largest elements (_first_difference_top). At the
# budget, construct --learner fresh_each_step --horizon 0 --stage-bound 4999
# takes about 0.2 s on a 2-core machine.
MAX_CODE_LENGTHS = 5_000
# adversarial_text looks this many lengths ahead for a switch to adopt.
ADVERSARY_WINDOW = 8


def _check_variant(variant: str) -> None:
    if variant not in ("plain", "hat"):
        raise ValueError(f"unknown variant {variant!r}")


# The kernel state of every row behind the frontier: settled, so never folded.
_SETTLED = Survival(0, 0)
_SETTLED.settled = True


class _Row:
    """A row's history: (stage, length) events, oldest first; None is undefined.

    Beside it, its kernel state (the shared _SETTLED once the frontier has
    passed it) and its untried length (see the module docstring).
    """

    __slots__ = ("events", "qstate", "untried")

    def __init__(self, seed: int | None):
        self.events: list[tuple[int, int | None]] = [(0, seed)]
        self.qstate: Survival | None = None
        self.untried = 0

    def at(self, s: int) -> tuple[int, int | None]:
        """The event in force at stage s: the last one logged at or before s.

        The probe (s + 1,) sorts before every event of stage s + 1 and after
        every earlier one, and a tie on the stage is settled by tuple length,
        so no length is ever compared (a None length never meets an int).
        """
        return self.events[bisect_left(self.events, (s + 1,)) - 1]


class Construction:
    """Stage table for one (learner, e) pair; see the module docstring."""

    def __init__(self, learner: ProfiledLearner, e: int, registry: Registry):
        if not isinstance(learner, ProfiledLearner):
            raise ValueError("the stage table requires a length-profiled learner")
        _check_natural(e, "base value e")
        self.learner = learner
        self.e = e
        self.registry = registry
        self.stage = 0
        self.rows: list[_Row] = [_Row(0)]
        # per stage: how many leading rows are defined, and the lowest row
        # that logged an event (inf if none did)
        self._defined: list[int] = [1]
        self._moved: list[float] = [0]
        # leading rows that are defined and settled: they never move again
        self._frontier = 0
        # x -> plain confirmation stage, -1 while x waits; per variant, the
        # entry log: values y >= e in entry order, their stages, and the
        # log's length after each stage
        self._conf = array("q")
        self._waiting: list[tuple[float, int]] = []  # (-F, x)
        self._logs = {v: (array("q"), array("q"), array("q")) for v in ("plain", "hat")}
        self.counters = {
            "stages": 0,
            "searches": 0,
            "length_checks": 0,
            "q_advances": 0,
            "conf_cells": 0,
            "rows_visited": 0,
        }

    # ---------------- table evolution ----------------

    def run_to(self, stage: int) -> None:
        _check_natural(stage, "stage")
        while self.stage < stage:
            self.run_stage()

    def run_stage(self) -> None:
        s = self.stage + 1
        counters, rows = self.counters, self.rows
        counters["stages"] += 1
        self._moved.append(inf)
        lower_defined = True
        lower_changed = False
        below_changed = False
        start = n = self._frontier
        while n < len(rows):
            row = rows[n]
            old = row.events[-1][1]
            if not lower_defined:
                if old is None:
                    n += 1  # the row that ends the stage was visited too
                    break  # every row above an undefined row is undefined
                self._log(n, s, None)
                row.qstate = None
                n += 1
                continue
            resumed = old is not None and not lower_changed
            if resumed and self._survives(row, s):
                new, changed = old, False
            else:
                if resumed and row.qstate is not None:
                    row.untried = old + 1  # its kernel just refuted old
                base = 0 if n == 0 else rows[n - 1].events[-1][1]
                found = self._search_least(n, base, s)
                new, row.qstate = (None, None) if found is None else found
                # the string changed iff the length did or, from row 2 on,
                # the string below did: row 1 is e padding then e + 1
                # whatever row 0's length
                changed = new != old or (new is not None and below_changed)
                if changed:
                    self._log(n, s, new)
            if new is None:
                lower_defined = False
                self._defined.append(n)
            elif changed:
                lower_changed = True
            below_changed = changed and n > 0
            if new is not None and n == len(rows) - 1:
                rows.append(_Row(None))
            n += 1
        counters["rows_visited"] += n - start
        self.stage = s
        # a row the frontier passes sheds its kernel state
        n = self._frontier
        while (qs := rows[n].qstate) is not None and qs.settled:
            rows[n].qstate = _SETTLED
            n += 1
        self._frontier = n

    def _log(self, n: int, stage: int, length: int | None) -> None:
        self.rows[n].events.append((stage, length))
        self._moved[stage] = min(self._moved[stage], n)

    def _survives(self, row: _Row, s: int) -> bool:
        qs = row.qstate
        if qs is None:
            return False
        if qs.settled:
            return True
        self.counters["q_advances"] += 1
        return qs.fold(self.learner, self.registry, s, s) is None

    def _search_least(
        self, k: int, base: int, s: int
    ) -> tuple[int, Survival] | None:
        """Least length of an extension of row k-1 that stabilizes at depth k.

        Base is row k-1's length (0 for row 0). Row k-1 holds only values in
        [e, e+k), so the least extension of length m is row k-1, then e up
        to length m - 1, then e+k; only m is searched for, and no string is
        built. Every length from base + 1 up to row k's untried length, that
        one excluded, has failed (see the module docstring), so the search
        starts at the larger of the two. It leaves untried at the length that
        survives, or at s + 1 when no length up to s does. Once the row's
        resumed kernel fails that length, run_stage moves untried one past
        it, since a fresh check of it would fail the same way.
        """
        counters = self.counters
        counters["searches"] += 1
        if self.e + k > s:
            return None
        row, learner, registry = self.rows[k], self.learner, self.registry
        for m in range(max(row.untried, base + 1), s + 1):
            counters["length_checks"] += 1
            qs = Survival(m, k)
            if qs.fold(learner, registry, m, s) is None:
                row.untried = m
                return m, qs
        row.untried = s + 1
        return None

    # ---------------- row access ----------------

    def _checked_stage(self, s: int | None) -> int:
        """Stage s, which must lie within 0..horizon; None means the horizon.

        Every row and marker read goes through here: a stage past the
        horizon raises instead of reading the horizon's answer.
        """
        if s is None:
            return self.stage
        _check_natural(s, "stage")
        if s > self.stage:
            raise ValueError(f"stage {s} beyond current horizon {self.stage}")
        return s

    def _strings(self, s: int) -> Iterator[list[int]]:
        """Strings of the rows defined at stage s, row 0 first, built lazily.

        The one place a row's string is built. Row n of length m is the
        first m - 1 values of row n-1 padded with e, then e + n; row 0 is e
        repeated m times. The strings are built in one list, extended in
        place and yielded after each row, so a caller that keeps a row
        copies it, and a caller that stops early builds no row past it. A
        row not longer than the one below comes out cut short, so it does
        not extend it.
        """
        e, out = self.e, []
        for n in range(self._defined[s]):
            m = self.rows[n].at(s)[1]
            if m:  # only row 0 at stage 0 is empty
                del out[m - 1 :]
                out.extend(repeat(e, m - 1 - len(out)))
                out.append(e + n)
            yield out

    def chain_ok(self, s: int | None = None) -> bool:
        """Each defined row's string must extend the one below it.

        Compares stored lengths only, and that is exact: as _strings builds
        them, a row longer than the one below is that row, then e padding,
        then its own last value, so it extends it; a row no longer than the
        one below is cut short and ends on a value the one below does not
        hold at that position, so it does not.
        """
        s = self._checked_stage(s)
        lengths = (row.at(s)[1] for row in self.rows[: self._defined[s]])
        return all(a < b for a, b in pairwise(lengths))

    def reverify_final(self) -> list[tuple[int, StabWitness | None]]:
        """Re-run the standalone stabilization check on every surviving row.

        One pass up the rows: condition 1 reads a running least value,
        greatest value and content, to which each row adds only its values
        past the row below's length. A row no longer than the one below is
        cut short (see _strings), so it is read afresh. Each row then goes
        through check_stabilizing's own check, whose conditions 2 and 3 run
        a fresh Survival kernel, so the table's kernel states are not
        trusted. On a chained table the values read total the deepest row's
        length, not the strings' total length (H^2 / 2 for constant_zero at
        horizon H).
        """
        s, out = self.stage, []
        for n, v in enumerate(self._strings(s)):
            if n == 0 or len(v) <= upto:  # row 0, or cut short: read v afresh
                lo, hi, c, upto = inf, -1, set(), 0
            if tail := v[upto:]:  # only row 0 at stage 0 is empty
                c.update(tail)
                lo, hi, upto = min(lo, min(tail)), max(hi, max(tail)), len(v)
            w = _check_read(self.e, n, v, (lo, hi, c), s, self.learner, self.registry)
            out.append((n, w))
        return out

    def rows_snapshot(self, limit: int | None = None) -> list[dict]:
        if limit is not None:
            _check_natural(limit, "row limit")
        strings = self._strings(self.stage)
        return [
            {
                "row": n,
                "value": None if row.events[-1][1] is None else list(next(strings)),
                "since": row.events[-1][0],
                "changes": len(row.events) - 1,
            }
            for n, row in enumerate(self.rows[:limit])
        ]

    # ---------------- marker observation ----------------

    def a_values(self, s: int | None = None) -> list[int]:
        """Even marker per depth at horizon s, up to the first unobservable one.

        Depth ell needs rows 0..ell all defined at s; its marker is the first
        even value after both the rows' settling point and the floor
        e + ell + 1, and must itself fall within the horizon. One pass with a
        running maximum of the settling points: once a depth is unobservable
        every deeper one is too, since it needs one more defined row and its
        marker is never smaller.
        """
        return self._markers(self._checked_stage(s), 0)

    def b_values(self, s: int | None = None) -> list[int]:
        """Odd marker a + 1 per depth, for each even marker a below the horizon.

        Markers never decrease with depth, so the cut is a prefix.
        """
        return self._markers(self._checked_stage(s), 1)

    def _markers(self, s: int, shift: int) -> list[int]:
        """a_values (shift 0) or b_values (shift 1) at a checked stage s."""
        out, feasible = [], 0
        for ell in range(self._defined[s]):
            feasible = max(feasible, self.rows[ell].at(s)[0])
            start = max(feasible, self.e + ell + 2)
            a = start + start % 2 + shift
            if a > s:
                break
            out.append(a)
        return out

    def r_prefix(
        self, bound: int, variant: str = "plain", s: int | None = None
    ) -> frozenset[int]:
        """Tail set [e, bound) minus the markers observable at horizon s."""
        _check_natural(bound, "bound")
        _check_variant(variant)
        if bound - self.e > MAX_PREFIX:
            raise ValueError(f"bound {bound} is over the budget of {MAX_PREFIX} values")
        excluded = set(self._markers(self._checked_stage(s), 1 if variant == "hat" else 0))
        return frozenset(x for x in range(self.e, bound) if x not in excluded)

    # ---------------- confirmed diagonal enumeration ----------------
    #
    # confirmation_stage(x) is the first stage with positive proof that x can
    # never be a marker. Odd x and x <= e + 1 are confirmed at x. Otherwise
    # each depth ell < x - e - 1 needs a proof anchored to fixed stages, and
    # x is confirmed at the latest of the earliest ones:
    #   undefined:     row ell is undefined at x (proved at x);
    #   frozen window: ell <= x - e - 4 and rows 0..ell are defined at x - 2
    #                  and log nothing at x - 1 or x, so any marker for ell
    #                  landed by x - 2 already (proved at x);
    #   churn behind:  some row at or below ell logs an event at t > x.
    # (A row undefined at some u > x is so at x already or moved in (x, u].)
    # Both proofs at x hold on prefixes of depths: frozen for ell < F with
    # F = max(0, min(x - e - 3, _defined[x - 2], _moved[x - 1], _moved[x])),
    # defined for ell < _defined[x]. The first event after x at or below ell
    # comes no later for a deeper ell, so the depths left all wait on depth
    # F: x is confirmed at x if none is left, else at the first t > x with
    # _moved[t] <= F. A marked x (and only a marked x, in the limit) never
    # gets that t, so it stays out forever.
    # Confirmations are final, so _conf keeps each x's stage once, filled in
    # stage order. Stage t confirms each waiting x with F >= _moved[t] (a heap
    # keyed by F), then x = t (F = inf if trivial) or pushes it to wait. Each
    # x is pushed and popped at most once, O(log n) once. The entry logs
    # follow: plain y enters at conf(y), hat y at max(conf(y - 1), y). So a
    # waiting x confirmed at t puts plain x and hat x + 1 in at t, an x
    # confirmed at once puts plain x in at x and hat x + 1 at x + 1, and
    # conf(-1) = 0 puts hat 0 in at stage 0.

    def _confirm_to(self, s: int) -> None:
        conf = self._conf
        if s < len(conf):
            return
        while self.stage < s:
            self.run_stage()
        e, defined, moved, waiting = self.e, self._defined, self._moved, self._waiting
        ys, ts, ends = self._logs["plain"]
        hys, hts, hends = self._logs["hat"]
        # whether x = t - 1 was confirmed at once; for t = 0, conf(-1) = 0 was
        at_once = not conf or conf[-1] == len(conf) - 1
        for t in range(len(conf), s + 1):
            while waiting and -waiting[0][0] >= moved[t]:
                x = heappop(waiting)[1]
                conf[x] = t
                ys.append(x)
                ts.append(t)
                hys.append(x + 1)
                hts.append(t)
                self.counters["conf_cells"] += 1
            if at_once and t >= e:
                hys.append(t)
                hts.append(t)
            if t % 2 == 1 or t <= e + 1:
                frozen = inf
            else:
                frozen = max(0, min(t - e - 3, defined[t - 2], moved[t - 1], moved[t]))
            at_once = frozen >= min(defined[t], t - e - 1)
            if at_once:
                conf.append(t)
                if t >= e:
                    ys.append(t)
                    ts.append(t)
            else:
                conf.append(-1)
                heappush(waiting, (-frozen, t))
            self.counters["conf_cells"] += 1
            ends.append(len(ys))
            hends.append(len(hys))

    def confirmation_stage(self, x: int, variant: str = "plain") -> int | None:
        _check_natural(x, "value")
        if x > self.stage:
            raise ValueError(
                f"confirmation for {x} needs the table run to stage {x} first"
            )
        _check_variant(variant)
        self._confirm_to(self.stage)
        # hat x enters at max(conf(x - 1), x), and hat 0 at stage 0
        shift = variant == "hat"
        t = self._conf[x - shift] if x >= shift else 0
        return None if t < 0 else max(t, x)

    # ---------------- derived experiments ----------------

    def adversarial_text(self, length: int) -> Sequence:
        """A text over [e, infinity) engineered to keep the learner moving.

        Greedy per step: if some nearby length would switch the learner to a
        code that visibly differs (symmetric difference below a small bound,
        at a matching stage), pad straight to that length; otherwise feed the
        least tail element not yet shown. Deterministic by construction. The
        values shown are always an interval [e, fresh), so one integer, the
        next unshown value, tracks them, and padding with e lifts it to at
        least e + 1. The learner is read by length only, so a step costs
        ADVERSARY_WINDOW + 1 learner reads and no pass over the text so far.
        """
        _check_natural(length, "text length")
        e, code = self.e, self.learner._code
        t: list[int] = []
        fresh = e
        while len(t) < length:
            m0 = len(t)
            prev = code(m0)
            bound = m0 + ADVERSARY_WINDOW
            for m in range(m0 + 1, bound + 1):
                c = code(m)
                if c == prev:
                    continue
                a, b = self.registry.below_each((prev, c), bound, bound)
                if a != b:
                    t.extend(repeat(e, m - m0))
                    fresh = max(fresh, e + 1)
                    break
            else:
                t.append(fresh)
                fresh += 1
        return tuple(t[:length])

    def separation_level(self, stage_bound: int) -> int | None:
        """How deep two-sided disagreement between emitted codes reaches.

        None when row 0 is undefined at the horizon, so there is no string
        to extend. 0 when at most one distinct code (or no one-sided
        difference) shows up; otherwise one past the largest first-difference
        element over ordered code pairs, elements and stages both capped at
        stage_bound. A learner with no finite code set registers a code per
        length, so past MAX_CODE_LENGTHS lengths this raises ValueError.
        """
        _check_natural(stage_bound, "stage bound")
        m0 = self.rows[0].events[-1][1]
        if m0 is None:
            return None
        if m0 > stage_bound:
            return 0  # no length to read a code at
        lengths = stage_bound - m0 + 1
        if self.learner.finite_codes is None and lengths > MAX_CODE_LENGTHS:
            raise ValueError(
                f"stage bound {stage_bound} reads the codes of {lengths} lengths,"
                f" over the budget of {MAX_CODE_LENGTHS}"
            )
        codes = sorted(self.learner._codes(m0, stage_bound))
        if len(codes) <= 1:
            return 0
        sets = self.registry.below_each(codes, stage_bound, stage_bound)
        return _first_difference_top(sets) + 1


def _first_difference_top(sets: list[frozenset[int]]) -> int:
    """Largest min(a - b) over sets a, b at distinct places; -1 if none differ.

    min(a - b) is at most max(a), so the sets are visited largest max first
    until the best found reaches the next max, and a's scan ends once the
    best reaches max(a). Exact; quadratic only when many sets share one max.
    """
    best = -1
    for top, i in sorted(((max(a), i) for i, a in enumerate(sets) if a), reverse=True):
        if best >= top:
            break
        for j, b in enumerate(sets):
            if j != i and (only := sets[i] - b):
                best = max(best, min(only))
                if best == top:
                    break
    return best


class DiagonalView(Enumerator):
    """Registry-facing face of one construction's plain or hat diagonal set.

    Querying a stage beyond the current horizon advances the underlying
    construction, which is deterministic, so results depend only on the
    query itself.
    """

    def __init__(self, construction: Construction, variant: str):
        _check_variant(variant)
        self.construction = construction
        self.variant = variant

    def _below(self, bound: float, s: int) -> frozenset[int]:
        """The y of e..min(bound, s + 1) - 1 in by stage s, in one pass over
        _conf: y <= s, so hat y is in exactly when conf(y - 1) <= s."""
        c = self.construction
        c._confirm_to(s)
        shift = self.variant == "hat"
        lo, hi = max(c.e, shift), min(bound, s + 1)
        out = frozenset(
            y for y, t in enumerate(c._conf[lo - shift : max(hi - shift, 0)], lo) if -1 < t <= s
        )
        return out | {0} if shift and c.e == 0 < hi else out  # hat 0: in from stage 0

    def _arrivals(self, s0: int, s1: int) -> dict[int, int]:
        """Exactly the elements entering at s0+1..s1: the slice of the entry
        log between its lengths after stages s0 and s1."""
        c = self.construction
        c._confirm_to(s1)
        ys, ts, ends = c._logs[self.variant]
        a, b = ends[s0], ends[s1]
        return dict(zip(ys[a:b], ts[a:b]))
