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
rotates the labelling so it starts at 0.  The rotation is part of the event's
defined semantics, and ``glued_at`` is its one statement: ``_glue``,
``engine.step_end`` and the cutting scan (``cutorder._Scan._splice``) all
call it, so every replayer of frontier tokens stays aligned.

Surgery is compiled into transition tables.  What a piece does to one
matching depends only on the event signature (g, at, k, smoothings) and the
matching, so each signature gets one process-wide ``array('q')``: slot
width * i + j holds the output of smoothing j (of width) on the matching
with id i as ``index << 3 | loops``, and -1 until first needed.  Ids come
from ``matchings.basis``, which interns each matching on first sight, so
tables and states share one id space and no frontier is enumerated.  Before
an event merges, it builds in one pass the entries its matchings lack, from
the absorbed window only: outside points keep their partners, renumbered by
one cached shift, and a memoized window rule, keyed by the piece's pairing
and by which absorbed points were paired to each other, rewrites the
positions whose partners change and counts the closed loops; a rule that
rewrites only the window's own chords keeps the matching, with no surgery.
Any other output is checked by ``is_noncrossing`` only on an intern miss,
then interned; an entry is written only after all its outputs passed.  A
table counts its unbuilt rows: an event on a complete table reads no ids.
Tables hold loop counts, not loop values, so every mode shares them.
Listings sort the matchings, which keeps their order lexicographic.

A crossing absorbing two points is A^(+-1) identity + A^(-+1) cup-cap, the
Temperley-Lieb sigma = A + A^-1 e (Kauffman, Topology 1987).  The identity
keeps every window, as each table build checks, so the merge starts from a
copy of the state's dict and moves A^(+-1) into the state-wide ``offset``,
which every reader adds to each r; it reads the table for the cup-cap only.

A run of such crossings, each absorbing the 2 points the one before
emitted (``engine.step_end``), weighs x + y e as e^2 = delta e: x a power
of A, y packed like a coefficient.  ``_run_weight`` composes each weight,
and each half, once per process and loop sign (``_RUNS``).  The merge
copies the state for the identity, with x in the offset, and multiplies
each P by y's packed Y for the cup-cap, which a y of 0 (an R2 bigon) skips.

Coefficients are packed by Kronecker substitution (Harvey, arXiv:0712.4046).
By the mod-4 theorem each is A^r * sum_i c_i A^(4i), held as the pair
(r, P) with P = sum_i c_i 2^(b*i) in signed slots of b bits, a multiple of
64.  The slot width b and one proven bound ``mass`` on the sum of |c_i|
over every coefficient belong to the whole state.  While mass < 2^(b-1),
every slot and every partial sum of slots fits its slot, so the digits of
P in base 2^b with bias 2^(b-1) are exactly c_i + 2^(b-1); the lowest
nonzero slot is the number of trailing zero bits of P divided by b, the
highest is |P|.bit_length() // b, and every c_i is positive exactly when
P >= 0 and no slot's sign bit is set, since a negative slot borrows from
the one above it.  Zero low slots are not stripped; readers skip them.

An event multiplies mass by len(smoothings) << (k // 2): each closed loop
uses an old chord between two absorbed points, so one smoothing closes at
most k // 2 loops; a loop factor at most doubles the sum of |c_i|; a shift
or a sign change keeps it; and a merge is never larger than the sum of its
parts.  A run multiplies mass by 1 + 2 L1(y), L1 the sum of |c_i|: the
cup-cap multiplies it by at most L1(y) and closes at most one loop.  In
(x1 + y1 e)(x2 + y2 e) = x1 x2 + (x1 y2 + x2 y1 + delta y1 y2) e every
partial sum has L1 at most m1 + m2 + 2 m1 m2, m_i = L1(y_i), so
``_run_weight`` multiplies in slots with that below 2^(b-2).  With every
c_i >= 0 (a positive loop value) that bound is L1 of the product, kept
unmeasured; a bracket run measures it (``laurent.slot_mass``).  When mass
times the growth would reach 2^(b-2), mass becomes the true sum, measured
without decoding, and the slots widen if they must (``SkeinState._widened``).

A fold step on one coefficient is then a few C-level bigint operations,
whatever its number of terms: the smoothing's power of A changes r; each
closed loop, e * A^-2 * (1 + A^4) with e the sign of the mode's loop value,
is P += P << b, negated when e^loops is -1; and a merge into the output
shifts the operand with the higher offset by b * d / 4 bits, d the offsets'
difference, and adds, deleting a zero sum.  Two contributions whose offsets
differ by a non-multiple of 4 cannot share step-4 slots.  Only a broken
build makes them, by the mod-4 theorem, so the merge leaves the later one
out, counts it in ``mixed`` for the fold's mod-4 check, and goes on; the
result is then no longer exact.  ``SkeinState`` takes and reads out
``LaurentPoly`` coefficients; only it and ``laurent``'s packing see b or P.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import itemgetter, or_
from typing import Mapping

from .laurent import (DELTA, DELTA_PLUS, ONE, LaurentPoly, pack, reslotted, sign_bits, slot_mass, slot_values,
                      slot_width, widened_slots, widest)
from .matchings import Matching, basis, catalan, format_matching, is_noncrossing

BRACKET = "bracket"
PKBP = "pkbp"

LOOP_VALUES = {BRACKET: DELTA, PKBP: DELTA_PLUS}


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


def glued_at(at: int, k: int, g: int) -> int:
    """Where a piece absorbing k > 0 of g points from `at` on emits its
    ends: at mod g, or 0 when its run wraps the seam (and is rotated to 0)."""
    return at % g if at % g + k <= g else 0


@lru_cache(maxsize=None)
def _loop_power(mode: str, k: int) -> tuple[bool, ...]:
    """Whether the loop value's l-th power is negative, for l = 0..k.  It
    must be e * (A^2 + A^-2) with e = +-1; its power is e^l * A^-2l *
    (1 + A^4)^l, and ``SkeinState._glue`` applies the rest as shift-adds."""
    e = dict(LOOP_VALUES[mode]).get(2)
    if e not in (1, -1) or LOOP_VALUES[mode] != LaurentPoly({2: e, -2: e}):
        raise ValueError(f"loop value {LOOP_VALUES[mode]} is not +-(A^2 + A^-2)")
    return tuple(e ** l < 0 for l in range(k + 1))


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
_RUNS: dict[bool, dict] = {False: {}, True: {}}  # run weights and halves by leaves, per loop sign


@lru_cache(maxsize=None)
def _identity(smoothings, k: int) -> int | None:
    """The smoothing, if any, joining each of k absorbed ends m to the end
    2k - 1 - m emitted at its position: it maps every matching to itself."""
    return next((j for j, (p, _) in enumerate(smoothings)
                 if len(p) == 2 * k and all(p[m] == 2 * k - 1 - m for m in range(k))), None)


def _run_weight(leaves: tuple[tuple[int, int], ...], negative: bool, memo: dict) -> tuple[int, ...]:
    """The product of crossings A^x_i + A^y_i e, given as the pairs (x_i, y_i),
    e^2 the loop value (negative: its sign) times e, composed in halves, each
    distinct part once per memo (``_RUNS``: one per process and loop sign),
    so k equal crossings take about 2 log2 k products: (x, r, Y, b, mass,
    mixed) for A^x + A^r Y(A^4) e, Y in b-bit slots, mass its sum of |c_i|,
    mixed the terms left out for residues."""
    if len(leaves) == 1:
        return (*leaves[0], 1, 64, 1, 0)
    w = memo.get(leaves)
    if w is None:
        x1, r1, Y1, b1, m1, n1 = _run_weight(leaves[:len(leaves) // 2], negative, memo)
        x2, r2, Y2, b2, m2, n2 = _run_weight(leaves[len(leaves) // 2:], negative, memo)
        mass = m1 + m2 + 2 * m1 * m2
        b = max(b1, b2, slot_width(mass))
        Y1, Y2 = reslotted(Y1, b1, b), reslotted(Y2, b2, b)
        Z = Y1 * Y2
        Z += Z << b
        terms = [(q, Q) for q, Q in ((x1 + r2, Y2), (x2 + r1, Y1), (r1 + r2 - 2, -Z if negative else Z)) if Q]
        r = min(terms)[0] if terms else 0
        # a term of another residue is left out and counted, as in a merge
        Y = sum(kept := [Q << b // 4 * (q - r) for q, Q in terms if (q - r) % 4 == 0])
        if negative or len(kept) < len(terms):  # else nothing cancels: the bound is exact
            mass = slot_mass([Y], b)
        w = memo[leaves] = x1 + x2, r, Y, b, mass, n1 + n2 + len(terms) - len(kept)
    return w


class _Table(array):
    __slots__ = ("unbuilt", "ident")  # rows not built yet; the identity smoothing or None


# Transition tables, one per event signature (g, at, k, smoothings), shared
# by every mode and every fold in the process.  Slot width * i + j holds the
# output of smoothing j on the matching with id i, as output id << 3 | closed
# loops; -1 marks an entry not built yet.  Entries hold ids of ``basis``, so
# the tables are only valid together with the intern tables that issued them.
_TABLES: dict[tuple, _Table] = {}


def _transition_table(g: int, at: int, k: int, smoothings, ids) -> _Table:
    """The table of one event signature, with the entries of the matchings
    with ids `ids` built (see the module docstring).  One base per matching
    holds the shifted partners; each smoothing's window rule, resolved to
    positions once per window, rewrites those whose partners change unless
    it keeps the window, as the identity must.  Only an output the intern
    table misses is checked, then interned; an entry is written once all
    its outputs passed, so a raise leaves it -1."""
    width, ends = len(smoothings), len(smoothings[0][0])
    key = (g, at, k, smoothings)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _Table("q", b"\xff" * (8 * width * catalan(g // 2)))
        table.unbuilt, table.ident = catalan(g // 2), _identity(smoothings, k)
    if not table.unbuilt or not (todo := [idx for idx in ids if table[width * idx] < 0]):
        return table
    shift, rel, emitted, holes = _frame(g, at, k, ends)
    mus = basis(g).matchings
    b2 = basis(g + ends - 2 * k)
    interned = b2.ids
    by_window: dict[tuple, list] = {}  # per window: (writes as positions or None if kept, loops)
    for idx in todo:
        mu = mus[idx]
        window = mu[at:at + k]
        rules = by_window.get(window)
        if rules is None:
            inner = tuple(map(rel.__getitem__, window))
            pos = (*map(shift.__getitem__, window), *emitted)
            # the window's own chords, which only a piece with ends == 2k can keep
            own = ends == 2 * k and {**dict(enumerate(window, at)), **dict(zip(window, range(at, at + k)))}
            rules = by_window[window] = []
            for j, (pairing, _) in enumerate(smoothings):
                rule = _RULES.get((pairing, inner))
                if rule is None:
                    rule = _RULES[pairing, inner] = _window_rule(pairing, inner)
                writes = [(pos[dst], pos[src]) for dst, src in rule[0]]
                kept = dict(writes) == own
                if j == table.ident and (rule[1] or not kept):
                    raise InvariantViolation(f"identity smoothing {pairing} changes window {window} (engine bug)")
                rules.append((None if kept else writes, rule[1]))
        # shift is the identity when the piece emits as many ends as it
        # absorbs; itemgetter needs at least one index
        base = list(mu) if ends == 2 * k or not mu else [*itemgetter(*mu)(shift)]
        base[at:at + k] = holes
        entry = []
        for writes, loops in rules:
            # a piece closes at most ends // 2 <= 2 loops, so three bits hold them
            if writes is None:
                entry.append(idx << 3 | loops)
                continue
            new = base.copy()
            for dst, src in writes:
                new[dst] = src
            new = tuple(new)
            out = interned.get(new)
            if out is None:
                if not is_noncrossing(new):
                    raise InvariantViolation(f"surgery produced a crossing matching {new} (engine bug)")
                out = b2.index_of(new)
            entry.append(out << 3 | loops)
        table[width * idx:width * idx + width] = array("q", entry)
        table.unbuilt -= 1
    return table


class SkeinState:
    """Sparse map from matchings of g frontier points to coefficients.

    Built from ``LaurentPoly`` coefficients keyed by matching id, which it
    packs (see the module docstring); ``coeffs`` and ``items`` decode them,
    and every reader adds ``offset`` to each r.  ``mixed`` counts the
    contributions the event that made the state left out for mixed
    exponent residues."""

    __slots__ = ("mode", "g", "b", "mass", "mixed", "offset", "_packed")

    def __init__(self, mode: str, g: int, coeffs: Mapping[int, LaurentPoly]):
        if mode not in LOOP_VALUES:
            raise ValueError(f"unknown mode {mode!r}")
        mass = sum(abs(c) for poly in coeffs.values() for _, c in poly)
        b = slot_width(mass)
        self.mode, self.g, self.b, self.mass, self.mixed, self.offset = mode, g, b, mass, 0, 0
        self._packed = {idx: pack(poly, b) for idx, poly in coeffs.items() if poly}

    def _of(self, g: int, b: int, mass: int, packed: dict, offset: int, mixed: int = 0) -> "SkeinState":
        """A state of this mode from packed coefficients."""
        out = SkeinState.__new__(SkeinState)
        out.mode, out.g, out.b, out.mass, out.mixed = self.mode, g, b, mass, mixed
        out.offset, out._packed = offset, packed
        return out

    @classmethod
    def initial(cls, mode: str) -> "SkeinState":
        return cls(mode, 0, {basis(0).index_of(()): ONE})

    @property
    def coeffs(self) -> dict[int, LaurentPoly]:
        """Every coefficient, decoded, by matching id."""
        b, s = self.b, self.offset
        return {idx: LaurentPoly({s + r + 4 * i: c for i, c in enumerate(slot_values(P, b)) if c})
                for idx, (r, P) in self._packed.items()}

    def items(self) -> list[tuple[Matching, LaurentPoly]]:
        """(matching, coefficient) pairs in canonical order: the matchings
        sorted lexicographically, whatever order their ids were issued in."""
        b = basis(self.g)
        return sorted(((b.matching(idx), poly) for idx, poly in self.coeffs.items()),
                      key=lambda item: item[0])

    def size(self) -> int:
        return len(self._packed)

    def span_bound(self) -> tuple[int, int, int]:
        """(w, lo, hi) in C-level passes: every coefficient's span is at most
        w = 4 * (widest |P|.bit_length() // b), since its lowest exponent is
        at least r (zero low slots are kept); lo and hi are the lowest and
        highest r + offset.  (0, 0, 0) for an empty state."""
        if not self._packed:
            return 0, 0, 0
        rs, Ps = zip(*self._packed.values())
        return 4 * (widest(Ps) // self.b), min(rs) + self.offset, max(rs) + self.offset

    def top_exponent(self) -> int:
        """The highest exponent of any coefficient, from bit lengths only."""
        b = self.b
        return self.offset + max(r + 4 * (P.bit_length() // b) for r, P in self._packed.values())

    def exponent_ranges(self) -> list[tuple[int, int, int]]:
        """(matching id, lowest exponent, highest exponent) of every
        coefficient, from the trailing zero bits and the bit length of P."""
        b, s = self.b, self.offset
        return [(idx, s + r + 4 * (((P & -P).bit_length() - 1) // b), s + r + 4 * (P.bit_length() // b))
                for idx, (r, P) in self._packed.items()]

    def term_count(self, idx: int) -> int:
        """The number of nonzero terms of one coefficient (decodes it)."""
        return sum(1 for c in slot_values(self._packed[idx][1], self.b) if c)

    def nonpositive(self) -> int:
        """How many coefficients have a term < 0.  One mask of slot sign
        bits, at least as wide as the widest coefficient, serves them all:
        a P >= 0 has no bits above its top slot.  With no P < 0, one test
        of their union decides."""
        if not self._packed:
            return 0
        b, Ps = self.b, [P for _, P in self._packed.values()]
        bias = sign_bits(b, 1 << (widest(Ps) // b).bit_length())
        if min(Ps) >= 0 and not reduce(or_, Ps) & bias:
            return 0
        return sum(P < 0 or P & bias != 0 for P in Ps)

    def dump_lines(self) -> list[str]:
        return [f"{format_matching(m)} : {p}" for m, p in self.items()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkeinState):
            return NotImplemented
        return (self.mode, self.g, self.coeffs) == (other.mode, other.g, other.coeffs)

    def __repr__(self) -> str:
        return f"SkeinState({self.mode}, g={self.g}, {self.size()} matchings)"

    def _widened(self, growth: int) -> "SkeinState":
        """This state with its true mass, in slots that hold that mass times
        `growth` below 2^(b-2): the same slots if they do, else wider ones."""
        b, packed = self.b, self._packed
        mass = slot_mass([P for _, P in packed.values()], b)
        wide = slot_width(mass * growth)
        if wide > b:
            packed = {idx: (r, widened_slots(P, b, wide)) for idx, (r, P) in packed.items()}
        return self._of(self.g, max(b, wide), mass, packed, self.offset)

    # -- elementary events ---------------------------------------------------

    def rotated(self, r: int) -> "SkeinState":
        """Relabel positions so old position r becomes 0."""
        g = self.g
        r %= g if g else 1
        if r == 0 or g == 0:
            return self
        b = basis(g)
        label = tuple((q - r) % g for q in range(g)).__getitem__  # old point -> new
        out = {}
        for idx, coeff in self._packed.items():
            mu = b.matching(idx)
            out[b.index_of(tuple(map(label, mu[r:] + mu[:r])))] = coeff
        return self._of(g, self.b, self.mass, out, self.offset)

    def birth(self, at: int) -> "SkeinState":
        return self._glue(at, 0, _ARC)

    def cap(self, at: int) -> "SkeinState":
        return self._glue(at, 2, _ARC)

    def cross(self, ev: Cross | tuple[Cross, ...]) -> "SkeinState":
        """Glue one crossing, or a run of them (``engine.step_end``) as one piece."""
        if isinstance(ev, Cross):
            return self._glue(ev.at, ev.absorb, _CROSSINGS[a_smoothing_class(ev.absorb, ev.over_first)])
        flags = [e.over_first for e in ev]
        # per over flag: the exponents of A on the identity and on the cup-cap
        leaf = {f: (s[j][1], s[1 - j][1]) for f in set(flags)
                for s in [_CROSSINGS[a_smoothing_class(2, f)]] for j in [_identity(s, 2)]}
        negative = _loop_power(self.mode, 1)[1]
        weight = _run_weight(tuple(map(leaf.__getitem__, flags)), negative, _RUNS[negative])
        return self._glue(ev[0].at, 2, _CROSSINGS[a_smoothing_class(2, flags[0])], weight)

    def _glue(self, at: int, k: int, smoothings, run=None) -> "SkeinState":
        """Glue a piece absorbing the k points from `at` on, and expand the
        result over its smoothings, or a run's weight (``_run_weight``)."""
        g, ends, width = self.g, len(smoothings[0][0]), len(smoothings)
        if not 0 <= k <= min(ends, g):
            raise FrontierTooSmall(f"piece absorbing {k} points on frontier of {g}")
        if k == 0 and not 0 <= at <= g:
            raise FrontierTooSmall(f"insertion at {at} on frontier of {g}")
        if k:
            at %= g
            if glued_at(at, k, g) != at:  # run wraps the seam: rotate it to 0
                return self.rotated(at)._glue(0, k, smoothings, run)

        growth = width << k // 2 if run is None else 1 + 2 * run[4]
        state = self._widened(growth) if (self.mass * growth) >> (self.b - 2) else self
        b = state.b
        unit = b // 4  # bits per unit of exponent difference
        # one smoothing closes at most k // 2 loops, as growth assumes; an
        # entry with more finds no sign and raises IndexError
        negate = _loop_power(self.mode, k // 2)
        table = _transition_table(g, at, k, smoothings, state._packed)
        ident = table.ident  # it maps each matching to itself: a copy, its A^shift in the offset
        weights, mixed = [(shift, 1) for _, shift in smoothings], 0
        if run is not None:  # A^x on the identity, A^r Y on the other smoothing
            x, r, Y, bY, _, mixed = run
            weights[ident], weights[1 - ident] = (x, 1), (r, reslotted(Y, bY, b))
        out = {} if ident is None else dict(state._packed)
        offset = state.offset if ident is None else state.offset + weights[ident][0]
        for j, (shift, Y) in enumerate(weights):
            if j == ident or not Y:  # an R2 bigon's run weighs the cup-cap 0
                continue
            shift += state.offset - offset
            column = table[j::width]
            entries = state._packed.items() if Y == 1 else [(idx, (r, P * Y)) for idx, (r, P) in state._packed.items()]
            for idx, (r, P) in entries:
                packed = column[idx]
                q, Q = r + shift, P
                loops = packed & 7
                if loops:
                    q -= 2 * loops
                    for _ in range(loops):
                        Q += Q << b
                    if negate[loops]:
                        Q = -Q
                key = packed >> 3
                acc = out.get(key)
                if acc is None:
                    out[key] = q, Q
                    continue
                p, S = acc
                d = q - p
                if d % 4:
                    mixed += 1  # left out (see the module docstring)
                    continue
                if d < 0:
                    p, S, Q, d = q, Q, S, -d
                S += Q << unit * d
                if S:
                    out[key] = p, S
                else:
                    del out[key]
        return self._of(g + ends - 2 * k, b, state.mass * growth, out, offset, mixed)

    def apply(self, ev: Event | tuple[Cross, ...]) -> "SkeinState":
        if isinstance(ev, (Cross, tuple)):
            return self.cross(ev)
        if isinstance(ev, Birth):
            return self.birth(ev.at)
        if isinstance(ev, Cap):
            return self.cap(ev.at)
        raise TypeError(f"unknown event {ev!r}")
