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

A noncrossing matching is determined by its opener word, the points i with
pair_of[i] > i.  ``is_noncrossing`` decodes each word once and compares, and
``Basis`` stores the decoded tuple, so each matching is held once.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import gt

Matching = tuple[int, ...]


def catalan(m: int) -> int:
    """The m-th Catalan number, (1/(m+1)) * C(2m, m), exactly."""
    if m < 0:
        raise ValueError("catalan of negative index")
    return comb(2 * m, m) // (m + 1)


def _decode(word: bytes) -> Matching | None:
    """The noncrossing perfect matching whose openers are the points i with
    word[i] set: each closer pairs with the nearest unpaired opener before
    it.  None when some closer finds no opener or an opener stays unpaired."""
    pair_of = [0] * len(word)
    stack: list[int] = []
    for i, opens in enumerate(word):
        if opens:
            stack.append(i)
        elif stack:
            j = stack.pop()
            pair_of[i], pair_of[j] = j, i
        else:
            return None
    return None if stack else tuple(pair_of)


class _Decodes(dict):
    """Opener word -> ``_decode(word)``, decoded on the word's first lookup."""

    def __missing__(self, word: bytes) -> Matching | None:
        m = self[word] = _decode(word)
        return m


# One decode per opener word seen in the process; ``Basis`` stores its tuples.
_DECODED = _Decodes()


def _word(pair_of: Matching) -> bytes:
    """The opener word: 1 at each point i with pair_of[i] > i, else 0."""
    return bytes(map(gt, pair_of, range(len(pair_of))))


def is_noncrossing(pair_of: Matching) -> bool:
    """Check that the tuple pair_of is a noncrossing perfect matching: a
    fixed-point-free involution with no pair of chords (i,k), (j,l)
    interleaved as i<j<k<l.

    Such a matching is the only one with its opener word, since a closer's
    partner is the nearest unpaired opener before it; so pair_of passes
    exactly when it equals the decode of its own word.  An entry out of
    range, a fixed point, a broken involution or an interleaved pair each
    make the two differ.  Words are decoded once, so a check costs one
    C-level word, one dict lookup and one tuple compare."""
    return _DECODED[_word(pair_of)] == pair_of


class Basis:
    """Intern table for the matchings on g points.

    Starts empty; ``index_of`` issues ids 0, 1, 2, ... in order of first
    sight, so state maps and transition tables can be keyed by small
    integers.  Only noncrossing matchings are interned, so ids stay below
    Catalan(g/2) and a tuple found in ``ids`` is noncrossing; each is stored
    as the tuple ``is_noncrossing`` decoded from its opener word.
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
            shared = _DECODED[_word(m)]
            if shared != m:
                raise ValueError(f"{m} is not a noncrossing matching")
            m = shared
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
