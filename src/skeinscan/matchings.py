"""Noncrossing perfect matchings of g circularly ordered points.

These are the basis objects of the state space: a matching stands for the
crossingless, loopless way the scanned part of a diagram can connect its
frontier points.  There are Catalan(g/2) of them; each is represented by its
involution array ``pair_of`` where ``pair_of[i] == j`` iff i and j are joined.

States key their coefficients by small integer ids.  ``basis(g)`` is an
intern table that issues the next id the first time it sees a matching, so
no frontier's matchings are enumerated before the fold reaches them; ids are
not ranks, and canonical order is the lexicographic order of the matchings
themselves.

``is_noncrossing`` checks a matching in one left-to-right scan, and
``Basis`` runs it on each intern miss and stores the caller's tuple, so each
matching is held once, by its intern table.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

Matching = tuple[int, ...]


def catalan(m: int) -> int:
    """The m-th Catalan number, (1/(m+1)) * C(2m, m), exactly."""
    if m < 0:
        raise ValueError("catalan of negative index")
    return comb(2 * m, m) // (m + 1)


def is_noncrossing(pair_of: Matching) -> bool:
    """Check that the tuple pair_of is a noncrossing perfect matching: a
    fixed-point-free involution with no pair of chords (i,k), (j,l)
    interleaved as i<j<k<l.

    One scan from left to right: a point whose partner lies ahead opens a
    chord, and any other point must close the innermost open chord, so it
    must be that chord's partner, and the chord's opener its own.  Every
    chord must be closed at the end.  An entry out of range, a fixed point,
    a broken involution or an interleaved pair each fail one of these."""
    open_points: list[int] = []
    for i, j in enumerate(pair_of):
        if i < j:
            open_points.append(i)
        elif not open_points or open_points.pop() != j or pair_of[j] != i:
            return False
    return not open_points


class Basis:
    """Intern table for the matchings on g points.

    Starts empty; ``index_of`` issues ids 0, 1, 2, ... in order of first
    sight, so state maps and transition tables can be keyed by small
    integers.  Only noncrossing matchings on g points are interned, so ids
    stay below Catalan(g/2) and a tuple found in ``ids`` is one.  A miss is
    checked for its length and by ``is_noncrossing`` and stores the
    caller's tuple, which is then the only copy.
    """

    __slots__ = ("g", "matchings", "ids")

    def __init__(self, g: int):
        self.g = g
        self.matchings: list[Matching] = []
        self.ids: dict[Matching, int] = {}

    def __len__(self) -> int:
        return len(self.matchings)

    def index_of(self, m: Matching) -> int:
        idx = self.ids.get(m)
        if idx is None:
            if len(m) != self.g or not is_noncrossing(m):
                raise ValueError(f"{m} is not a noncrossing matching of {self.g} points")
            idx = self.ids[m] = len(self.matchings)
            self.matchings.append(m)
        return idx

    def matching(self, idx: int) -> Matching:
        return self.matchings[idx]


@lru_cache(maxsize=None)
def basis(g: int) -> Basis:
    return Basis(g)


def format_matching(m: Matching) -> str:
    """Render as parenthesized pairs, e.g. ``(0 1)(2 3)``; empty is ``()``."""
    if not m:
        return "()"
    return "".join(f"({i} {j})" for i, j in enumerate(m) if i < j)
