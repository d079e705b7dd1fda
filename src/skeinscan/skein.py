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

Positions are circular.  An event whose span would cross the seam between
position g-1 and 0 first rotates the labelling so its run starts at 0; the
rotation is part of the event's defined semantics, so any replayer tracking
frontier tokens stays aligned by applying the same rule.

Crossing surgery is compiled into transition tables.  What a crossing does
to one matching depends only on the event signature (g, at, absorb, class of
the A-smoothing) and the matching, so each signature gets one process-wide
``array('q')`` of 2 * Catalan(g/2) entries, 16 * Catalan(g/2) bytes: slots
2i and 2i + 1 hold the two outputs of basis matching i as
``index << 3 | (shift == +1) << 2 | loops`` (output basis index, the sign of
the A^+-1 factor, the number of closed loops), and -1 until first needed.
An entry is built the first time a fold meets its matching, and is written
only after both outputs have passed ``is_noncrossing``, so the check runs
once per table entry rather than once per fold step, and a failed check
leaves nothing behind.  Tables hold loop counts, not loop values, so every
mode shares them; a fold step then costs a shift by A^+-1, a multiplication
by a power of the loop value when a loop closed, and a merge.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

from .laurent import DELTA, DELTA_PLUS, ONE, LaurentPoly
from .matchings import Matching, basis, is_noncrossing

BRACKET = "bracket"
PKBP = "pkbp"

LOOP_VALUES = {BRACKET: DELTA, PKBP: DELTA_PLUS}


class EmptyFrontier(ValueError):
    """Raised when a cap is applied to a frontier with fewer than two points."""


class FrontierTooSmall(ValueError):
    """Raised when a crossing tries to absorb more points than exist."""


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


def loop_value(mode: str) -> LaurentPoly:
    return LOOP_VALUES[mode]


@lru_cache(maxsize=None)
def _loop_power(mode: str, k: int) -> LaurentPoly:
    if k == 0:
        return ONE
    return _loop_power(mode, k - 1) * LOOP_VALUES[mode]


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


_PAIRING = {0: (1, 0, 3, 2), 1: (3, 2, 1, 0)}


def _surgery(g: int, at: int, k: int, cls_a: int, mu: Matching) -> list[tuple[int, int, int]]:
    """Glue a crossing onto one matching: absorb the k points at..at+k-1 of
    mu and emit 4 - k new ones at `at`.

    Returns one (output basis index, shift, loops) triple per smoothing: the
    class-cls_a pairing with shift +1 (weight A), then the other with shift
    -1 (weight A^-1).  Every output is checked with is_noncrossing before
    anything is returned.
    """
    d = 4 - 2 * k
    end = at + k
    b2 = basis(g + d)
    outputs = []
    for pairing_cls, shift in ((cls_a, 1), (1 - cls_a, -1)):
        pair_m = _PAIRING[pairing_cls]
        used = [False] * k  # absorbed ends consumed by walks

        def walk(m: int) -> int:
            """New position reached from crossing end m: alternate pairing
            and old matching edges until leaving the absorbed block."""
            while True:
                e = pair_m[m]
                if e >= k:
                    return at + 3 - e
                used[e] = True
                q = mu[at + e]
                if not at <= q < end:
                    return q if q < at else q + d
                m = q - at
                used[m] = True

        # old points keep their partners, shifted past the emitted ones;
        # entries that pointed into the absorbed block are rewritten below
        new = ([q if q < at else q + d for q in mu[:at]] + [-1] * (4 - k)
               + [q if q < at else q + d for q in mu[end:]])
        for m in range(k):
            p = mu[at + m]
            if used[m] or at <= p < end:
                continue
            used[m] = True
            p = p if p < at else p + d
            t = walk(m)
            new[p], new[t] = t, p
        for m in range(k, 4):
            pos = at + 3 - m
            if new[pos] < 0:
                t = walk(m)
                new[pos], new[t] = t, pos
        # leftover absorbed ends close up into loops
        loops = 0
        for m in range(k):
            if not used[m]:
                loops += 1
                while not used[m]:
                    used[m] = True
                    e = pair_m[m]
                    used[e] = True
                    m = mu[at + e] - at

        new = tuple(new)
        if not is_noncrossing(new):
            raise InvariantViolation(
                f"surgery produced a crossing matching {new} (engine bug)"
            )
        outputs.append((b2.index_of(new), shift, loops))
    return outputs


# Transition tables, one per event signature (g, at, absorb, A-smoothing
# class), shared by every mode and every fold in the process.  Slots 2i and
# 2i + 1 hold the two outputs of basis matching i, packed by _pack; -1 marks
# an entry not built yet.
_TABLES: dict[tuple[int, int, int, int], array] = {}


def _transition_table(g: int, at: int, k: int, cls_a: int) -> array:
    key = (g, at, k, cls_a)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = array("q", [-1]) * (2 * len(basis(g)))
    return table


def _pack(index: int, shift: int, loops: int) -> int:
    """index << 3 | (shift == +1) << 2 | loops; a crossing closes at most
    two loops, so two bits hold the count."""
    return index << 3 | (shift > 0) << 2 | loops


class SkeinState:
    """Sparse map from matchings of g frontier points to coefficients."""

    __slots__ = ("mode", "g", "coeffs")

    def __init__(self, mode: str, g: int = 0, coeffs: dict[int, LaurentPoly] | None = None):
        if mode not in LOOP_VALUES:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.g = g
        self.coeffs = coeffs if coeffs is not None else {}

    @classmethod
    def initial(cls, mode: str) -> "SkeinState":
        return cls(mode, 0, {0: ONE})

    def items(self):
        """(matching, coefficient) pairs in canonical basis order."""
        b = basis(self.g)
        for idx in sorted(self.coeffs):
            yield b.matching(idx), self.coeffs[idx]

    def matching_dict(self) -> dict[Matching, LaurentPoly]:
        return dict(self.items())

    def size(self) -> int:
        return len(self.coeffs)

    def dump_lines(self) -> list[str]:
        from .matchings import format_matching

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
        out: dict[int, LaurentPoly] = {}
        for idx, poly in self.coeffs.items():
            mu = b.matching(idx)
            rot = tuple((mu[(i + r) % g] - r) % g for i in range(g))
            out[b.index_of(rot)] = poly
        return SkeinState(self.mode, g, out)

    def birth(self, at: int) -> "SkeinState":
        if not 0 <= at <= self.g:
            raise FrontierTooSmall(f"birth at {at} on frontier of {self.g}")
        g2 = self.g + 2
        b2 = basis(g2)
        out: dict[int, LaurentPoly] = {}
        bold = basis(self.g)
        for idx, poly in self.coeffs.items():
            mu = bold.matching(idx)

            def shift(x: int) -> int:
                return x if x < at else x + 2

            new = [0] * g2
            for i, j in enumerate(mu):
                new[shift(i)] = shift(j)
            new[at], new[at + 1] = at + 1, at
            out[b2.index_of(tuple(new))] = poly
        return SkeinState(self.mode, g2, out)

    def cap(self, at: int) -> "SkeinState":
        if self.g < 2:
            raise EmptyFrontier("cap needs at least two frontier points")
        at %= self.g
        if at == self.g - 1:  # wraps the seam: rotate so the pair sits at 0,1
            return self.rotated(at).cap(0)
        g2 = self.g - 2
        b2 = basis(g2)
        bold = basis(self.g)
        delta = LOOP_VALUES[self.mode]
        out: dict[int, LaurentPoly] = {}
        for idx, poly in self.coeffs.items():
            mu = bold.matching(idx)

            def shift(x: int) -> int:
                return x if x < at else x - 2

            if mu[at] == at + 1:
                new = tuple(shift(mu[shift_inv]) for shift_inv in
                            [i for i in range(self.g) if i not in (at, at + 1)])
                poly = poly * delta
            else:
                a, b = mu[at], mu[at + 1]
                pair = dict(enumerate(mu))
                pair[a], pair[b] = b, a
                del pair[at], pair[at + 1]
                new = tuple(shift(pair[i]) for i in sorted(pair))
            key = b2.index_of(new)
            acc = out.get(key)
            merged = poly if acc is None else acc + poly
            if merged.is_zero():
                out.pop(key, None)
            else:
                out[key] = merged
        return SkeinState(self.mode, g2, out)

    def cross(self, ev: Cross) -> "SkeinState":
        g, k = self.g, ev.absorb
        if not 0 <= k <= 4:
            raise ValueError(f"absorb must be 0..4, got {k}")
        if k > g:
            raise FrontierTooSmall(f"absorb {k} from frontier of {g}")
        at = ev.at % g if g else 0
        if k == 0 and ev.at == g:
            at = g  # insertion at the seam
        if k > 0 and at + k > g:  # run wraps the seam: rotate it to 0
            return self.rotated(at).cross(Cross(0, k, ev.over_first, ev.crossing, ev.rot))

        cls_a = a_smoothing_class(k, ev.over_first)
        table = _transition_table(g, at, k, cls_a)
        bold = basis(g)
        mode = self.mode
        out: dict[int, LaurentPoly] = {}
        for idx, poly in self.coeffs.items():
            slot = 2 * idx
            if table[slot] < 0:
                # a raise leaves the entry unbuilt: both slots are written
                # only once both outputs passed the noncrossing check
                table[slot], table[slot + 1] = [
                    _pack(*output) for output in _surgery(g, at, k, cls_a, bold.matching(idx))
                ]
            for packed in (table[slot], table[slot + 1]):
                contrib = poly.shifted(1 if packed & 4 else -1)
                loops = packed & 3
                if loops:
                    contrib = contrib * _loop_power(mode, loops)
                key = packed >> 3
                acc = out.get(key)
                merged = contrib if acc is None else acc + contrib
                if merged.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = merged
        return SkeinState(self.mode, g + 4 - 2 * k, out)

    def apply(self, ev: Event) -> "SkeinState":
        if isinstance(ev, Birth):
            return self.birth(ev.at)
        if isinstance(ev, Cap):
            return self.cap(ev.at)
        if isinstance(ev, Cross):
            return self.cross(ev)
        raise TypeError(f"unknown event {ev!r}")


def fold_events(mode: str, events) -> SkeinState:
    state = SkeinState.initial(mode)
    for ev in events:
        state = state.apply(ev)
    return state
