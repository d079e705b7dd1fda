"""State machine folding a diagram into the basis of noncrossing matchings.

A state assigns a Laurent-polynomial coefficient to each noncrossing matching
of the current frontier (the points where the scanned region meets the rest
of the diagram).  Three elementary events evolve it:

* ``Birth``   -- a new strand starts: insert an adjacent matched pair.
* ``Cap``     -- two adjacent frontier points join: either a reconnection of
                 their partners or, if they were partners already, a closed
                 loop worth one factor of the loop value.
* ``Cross``   -- a crossing is glued on, absorbing 0..4 consecutive frontier
                 points; it expands as A times one crossingless reconnection
                 plus A^-1 times the other.

In ``bracket`` mode a closed loop contributes -A^2 - A^-2; ``pkbp`` mode uses
A^2 + A^-2 instead (identical otherwise), which keeps every coefficient
positive because nothing can cancel.

All three events are one operation: a small piece is glued onto the
frontier, absorbing k consecutive points and emitting the rest of its ends,
and the result is expanded over the piece's smoothings.  A birth (k = 0) and
a cap (k = 2) glue an arc, whose two ends are joined with weight 1; a
crossing glues four ends, joined one way with weight A and the other way
with weight A^-1.  ``SkeinState._glue`` does this for every event.

Positions are circular.  A piece that absorbs nothing is inserted at one of
the g + 1 gaps 0..g.  A piece that absorbs k > 0 points takes its position
mod g, and a run that would cross the seam between position g-1 and 0 first
rotates the labelling so it starts at 0; the rotation is part of the event's
defined semantics, so any replayer tracking frontier tokens stays aligned by
applying the same rule.

Surgery is compiled into transition tables.  What a piece does to one
matching depends only on the event signature (g, at, k, smoothings) and the
matching, so each signature gets one process-wide ``array('q')`` of
width * Catalan(g/2) entries, where width is the number of smoothings:
slot width * i + j holds the output of smoothing j on the matching with id
i as ``index << 3 | loops`` (the output's id and the number of closed
loops), and -1 until first needed.  Ids come from ``matchings.basis``, which
interns each matching the first time it is seen, so the tables and the
state maps share one id space and no frontier's matchings are enumerated up
front.  An entry is built the first time a fold meets its matching, from
the absorbed window only: the points outside it keep their partners,
renumbered by one cached shift per signature, and a memoized window rule,
keyed by the piece's pairing and by which absorbed points were paired to
each other, rewrites the few positions whose partners change and counts the
closed loops.  The entry is written only after every output has passed
``is_noncrossing``, which compares the output with the matching decoded
from its opener word (decoded once per word), so the check runs once per
table entry rather than once per fold step, and a failed check leaves
nothing behind.  Tables hold loop counts, not loop values, so every mode
shares them.  Canonical order is the lexicographic order of the
matchings themselves, restored by sorting whenever a state is listed.

Coefficients are ``laurent.PackedPoly`` values: by the mod-4 theorem each is
A^r * p(A^4), held as the offset r and one integer with p's coefficients in
signed slots of b bits.  A fold step on one coefficient is a few C-level
bigint operations, whatever its number of terms: the smoothing's power of A
changes r; each closed loop, e * A^-2 * (1 + A^4) with e the sign of the
mode's loop value, is one shift by b and one add (negated when e^loops is
-1); and the merge into the output is one aligned shift and one add.  The
state reads out as ``LaurentPoly`` in ``items``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .laurent import DELTA, DELTA_PLUS, ONE, LaurentPoly, PackedPoly
from .matchings import Matching, basis, catalan, format_matching, is_noncrossing

BRACKET = "bracket"
PKBP = "pkbp"

LOOP_VALUES = {BRACKET: DELTA, PKBP: DELTA_PLUS}


class EmptyFrontier(ValueError):
    """Raised when a cap is applied to a frontier with fewer than two points."""


class FrontierTooSmall(ValueError):
    """Raised when an event does not fit the frontier: it absorbs more points
    than exist or than its piece has ends, or inserts outside gaps 0..g."""


class InvariantViolation(RuntimeError):
    """Raised when a surgery produces an invalid matching (an engine bug)."""


@dataclass(frozen=True)
class Birth:
    at: int


@dataclass(frozen=True)
class Cap:
    at: int


@dataclass(frozen=True)
class Cross:
    at: int
    absorb: int
    over_first: bool
    crossing: int | None = None  # diagram crossing realized, when known
    # slot glued at position `at` (or emitted last, when absorb is 0); replay
    # metadata that ties stubs to diagram arcs -- the state algebra never
    # reads it (at, absorb and over_first determine the expansion)
    rot: int | None = None


Event = Birth | Cap | Cross


@lru_cache(maxsize=None)
def _loop_power(mode: str, k: int) -> int:
    """The sign of the loop value's k-th power.  The loop value must be
    e * (A^2 + A^-2) with e = +-1; its power is e^k * A^-2k * (1 + A^4)^k,
    and ``PackedPoly.times_loops`` applies the rest as shift-adds."""
    e = dict(LOOP_VALUES[mode]).get(2)
    if e not in (1, -1) or LOOP_VALUES[mode] != LaurentPoly({2: e, -2: e}):
        raise ValueError(f"loop value {LOOP_VALUES[mode]} is not +-(A^2 + A^-2)")
    return e ** k


def a_smoothing_class(absorb: int, over_first: bool) -> int:
    """Which adjacent pairing of the four crossing ends carries the weight A.

    Ends are indexed m = 0..3: absorbed frontier points first (in frontier
    order), then the emitted points in reverse insertion order.  Class 0
    pairs (0,1)(2,3); class 1 pairs (1,2)(3,0).  The assignment follows the
    rule that the A-smoothing turns the over strand counterclockwise onto
    the under strand; it is pinned by the kink and R2 identities in the
    test suite.
    """
    if absorb > 0:
        return 0 if over_first else 1
    return 1 if over_first else 0


# The pieces the events glue on: per smoothing, the pairing of the piece's
# ends (indexed as in a_smoothing_class) and the exponent of A it carries.
# Built once here, so an event only picks one.
_ARC = (((1, 0), 0),)
_CROSSINGS = {
    0: (((1, 0, 3, 2), 1), ((3, 2, 1, 0), -1)),
    1: (((3, 2, 1, 0), 1), ((1, 0, 3, 2), -1)),
}


@lru_cache(maxsize=None)
def _frame(g: int, at: int, k: int, ends: int) -> tuple[tuple[int, ...], ...]:
    """What a piece with `ends` ends, absorbing the k points at..at+k-1 of a
    frontier of g, does to positions, whatever the matching:

    * shift: old point -> its new position (old points keep their order, and
      the ones after the window move past the d = ends - 2k new points);
    * rel: old point -> its place m in the window, or -1 outside it;
    * emitted: piece end k..ends-1 -> its new position (the ends are emitted
      at `at` in reverse order);
    * holes: -1 for each emitted position, rewritten by every window rule.
    """
    d = ends - 2 * k
    shift = tuple(q if q < at else q + d for q in range(g))
    rel = tuple(q - at if at <= q < at + k else -1 for q in range(g))
    emitted = tuple(at + ends - 1 - m for m in range(k, ends))
    return shift, rel, emitted, (-1,) * (ends - k)


Rule = tuple[tuple[tuple[int, int], ...], int]


def _window_rule(pairing: tuple[int, ...], inner: tuple[int, ...]) -> Rule:
    """How a piece with end pairing `pairing` reconnects a window whose
    absorbed points m were paired to the window points inner[m], or, where
    inner[m] is -1, to a point outside it (m "exits").

    The rule's tokens are the piece ends: token m < k stands for the new
    position of exit m's outside partner, and token m >= k for the new
    position of emitted end m.  Every path runs from a token to a token,
    alternating a piece pairing edge and an old chord inside the window, and
    becomes a chord; the rule lists writes (dst, src), setting the partner of
    each token's position, for both ends of every chord.  Whatever stays
    unvisited closes up into loops, which the rule counts.  Nothing depends
    on g or at, so every event signature shares the rule.
    """
    k = len(inner)
    seen = [False] * len(pairing)
    writes = []
    for t in range(len(pairing)):
        if seen[t] or t < k and inner[t] >= 0:
            continue
        seen[t] = True
        m = t
        while True:
            e = pairing[m]
            seen[e] = True
            if e >= k or inner[e] < 0:
                break
            m = inner[e]
            seen[m] = True
        writes += ((t, e), (e, t))
    loops = 0
    for m in range(k):
        if not seen[m]:
            loops += 1
            while not seen[m]:
                seen[m] = True
                e = pairing[m]
                seen[e] = True
                m = inner[e]
    return tuple(writes), loops


# Window rules by (pairing, inner), built on first use.
_RULES: dict[tuple, Rule] = {}


def _surgery(g: int, at: int, k: int, smoothings, mu: Matching) -> list[int]:
    """Glue a piece onto one matching: absorb the k points at..at+k-1 of mu
    and emit the piece's other ends at `at`.

    Points outside the window keep their partners, moved to their new
    positions; one base holds them for every smoothing.  Each smoothing's
    window rule then rewrites only the positions whose partner changed.
    Returns one packed table entry, output id << 3 | closed loops, per
    smoothing, in the order of `smoothings`.  Every output is checked with
    is_noncrossing before it is interned or anything is returned.
    """
    shift, rel, emitted, holes = _frame(g, at, k, len(smoothings[0][0]))
    window = mu[at:at + k]
    inner = tuple(map(rel.__getitem__, window))
    pos = (*map(shift.__getitem__, window), *emitted)
    base = [*itemgetter(*mu)(shift)] if mu else []  # itemgetter needs an index
    base[at:at + k] = holes
    b2 = basis(len(base))
    outputs = []
    for pairing, _ in smoothings:
        rule = _RULES.get((pairing, inner))
        if rule is None:
            rule = _RULES[pairing, inner] = _window_rule(pairing, inner)
        writes, loops = rule
        new = base.copy()
        for dst, src in writes:
            new[pos[dst]] = pos[src]
        new = tuple(new)
        if not is_noncrossing(new):
            raise InvariantViolation(
                f"surgery produced a crossing matching {new} (engine bug)"
            )
        # a piece closes at most ends // 2 <= 2 loops, so three bits hold them
        outputs.append(b2.index_of(new) << 3 | loops)
    return outputs


# Transition tables, one per event signature (g, at, k, smoothings), shared
# by every mode and every fold in the process.  Slot width * i + j holds the
# output of smoothing j on the matching with id i, as packed by _surgery; -1
# marks an entry not built yet.  Entries hold ids of ``basis``, so the tables
# are only valid together with the intern tables that issued them.
_TABLES: dict[tuple, array] = {}


def _transition_table(g: int, at: int, k: int, smoothings) -> array:
    key = (g, at, k, smoothings)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = array("q", [-1]) * (len(smoothings) * catalan(g // 2))
    return table


class SkeinState:
    """Sparse map from matchings of g frontier points to coefficients.

    ``coeffs`` maps matching ids to ``PackedPoly`` values, stored as given;
    ``items`` reads them out as ``LaurentPoly``."""

    __slots__ = ("mode", "g", "coeffs")

    def __init__(self, mode: str, g: int, coeffs: dict[int, PackedPoly]):
        if mode not in LOOP_VALUES:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.g = g
        self.coeffs = coeffs

    @classmethod
    def initial(cls, mode: str) -> "SkeinState":
        return cls(mode, 0, {basis(0).index_of(()): PackedPoly.from_laurent(ONE)})

    def items(self) -> list[tuple[Matching, LaurentPoly]]:
        """(matching, coefficient) pairs in canonical order: the matchings
        sorted lexicographically, whatever order their ids were issued in."""
        b = basis(self.g)
        return sorted(((b.matching(idx), poly.to_laurent()) for idx, poly in self.coeffs.items()),
                      key=lambda item: item[0])

    def size(self) -> int:
        return len(self.coeffs)

    def dump_lines(self) -> list[str]:
        return [f"{format_matching(m)} : {p}" for m, p in self.items()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkeinState):
            return NotImplemented
        return (self.mode, self.g, self.coeffs) == (other.mode, other.g, other.coeffs)

    def __repr__(self) -> str:
        return f"SkeinState({self.mode}, g={self.g}, {self.size()} matchings)"

    # -- elementary events ---------------------------------------------------

    def rotated(self, r: int) -> "SkeinState":
        """Relabel positions so old position r becomes 0."""
        g = self.g
        r %= g if g else 1
        if r == 0 or g == 0:
            return self
        b = basis(g)
        out: dict[int, PackedPoly] = {}
        for idx, poly in self.coeffs.items():
            mu = b.matching(idx)
            rot = tuple((mu[(i + r) % g] - r) % g for i in range(g))
            out[b.index_of(rot)] = poly
        return SkeinState(self.mode, g, out)

    def birth(self, at: int) -> "SkeinState":
        return self._glue(at, 0, _ARC)

    def cap(self, at: int) -> "SkeinState":
        if self.g < 2:
            raise EmptyFrontier("cap needs at least two frontier points")
        return self._glue(at, 2, _ARC)

    def cross(self, ev: Cross) -> "SkeinState":
        return self._glue(ev.at, ev.absorb, _CROSSINGS[a_smoothing_class(ev.absorb, ev.over_first)])

    def _glue(self, at: int, k: int, smoothings) -> "SkeinState":
        """Glue a piece absorbing the k points from `at` on, and expand the
        result over its smoothings (see the module docstring)."""
        g, ends = self.g, len(smoothings[0][0])
        if not 0 <= k <= min(ends, g):
            raise FrontierTooSmall(f"piece absorbing {k} points on frontier of {g}")
        if k == 0:
            if not 0 <= at <= g:
                raise FrontierTooSmall(f"insertion at {at} on frontier of {g}")
        else:
            at %= g
            if at + k > g:  # run wraps the seam: rotate it to 0
                return self.rotated(at)._glue(0, k, smoothings)

        table = _transition_table(g, at, k, smoothings)
        width = len(smoothings)
        bold = basis(g)
        mode = self.mode
        out: dict[int, PackedPoly] = {}
        for idx, poly in self.coeffs.items():
            slot = width * idx
            if table[slot] < 0:
                # a raise leaves the entry unbuilt: its slots are written
                # only once every output passed the noncrossing check
                table[slot:slot + width] = array("q", _surgery(g, at, k, smoothings, bold.matching(idx)))
            for (_, shift), packed in zip(smoothings, table[slot:slot + width]):
                loops = packed & 7
                if loops:
                    contrib = poly.times_loops(shift, loops, _loop_power(mode, loops))
                else:
                    contrib = poly.shifted(shift) if shift else poly
                key = packed >> 3
                acc = out.get(key)
                if acc is None:
                    out[key] = contrib
                else:
                    merged = acc + contrib
                    if merged.P:
                        out[key] = merged
                    else:
                        del out[key]
        return SkeinState(self.mode, g + ends - 2 * k, out)

    def apply(self, ev: Event) -> "SkeinState":
        if isinstance(ev, Birth):
            return self.birth(ev.at)
        if isinstance(ev, Cap):
            return self.cap(ev.at)
        if isinstance(ev, Cross):
            return self.cross(ev)
        raise TypeError(f"unknown event {ev!r}")
