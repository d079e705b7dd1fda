"""Programmatic diagram builders: braid closures and tangles, torus links,
pretzels, twist insertions, and split unions.

These produce PD data from first principles, so a diagram's description is
its construction.  Every builder follows one rule: number fresh arcs in
order, then rename arc ends (closing a braid, joining pretzel regions,
cutting an arc for a kink or a connected sum, shifting a second diagram's
labels past the first's).  ``_diagram`` applies the renames and validates
the result; it is the module's only validation.

Conventions for a braid crossing on strand positions (p, p+1), drawn with
strands running upward:

    slot 0 = bottom-left   slot 1 = bottom-right
    slot 2 = top-right     slot 3 = top-left

listed counterclockwise.  A positive generator (sigma_p) takes the strand
entering bottom-left over to top-right, so the over strand runs through
slots (0, 2).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .planar import Crossing, Diagram, validate


def _diagram(crossings, rename: dict[int, int] | None = None, free_loops: int = 0,
             boundary: tuple[int, ...] = ()) -> Diagram:
    """The validated diagram with every arc end relabelled by ``rename``;
    labels it does not name stay."""
    rename = rename or {}
    d = Diagram(tuple(Crossing(tuple(rename.get(a, a) for a in c.arcs), c.over) for c in crossings),
                free_loops, tuple(rename.get(a, a) for a in boundary))
    validate(d)
    return d


def _labels(d: Diagram) -> list[int]:
    """Every arc end's label: crossing slots in order, then the boundary."""
    return [a for c in d.crossings for a in c.arcs] + list(d.boundary_arcs)


def _rename_end(d: Diagram, arc: int, i: int, new: int) -> Diagram:
    """``d`` (not validated) with the i-th end of ``arc`` relabelled ``new``,
    counting crossing slots first and the boundary after."""
    ends = _labels(d)
    hits = [h for h, a in enumerate(ends) if a == arc]
    if len(hits) <= i:
        raise ValueError(f"arc {arc} not in the diagram")
    ends[hits[i]] = new
    crossings = tuple(Crossing(tuple(ends[4 * k:4 * k + 4]), c.over) for k, c in enumerate(d.crossings))
    return Diagram(crossings, d.free_loops, tuple(ends[4 * d.n:]))


def _braid_crossings(word: list[int], strands: int, arcs: Iterator[int]):
    """Crossings for a braid word, numbering arcs from ``arcs``; returns
    (crossings, bottom arcs, top arcs)."""
    if strands < 2:
        raise ValueError("a braid needs at least 2 strands")
    bottom = [next(arcs) for _ in range(strands)]
    current = list(bottom)
    crossings: list[Crossing] = []
    for letter in word:
        p = abs(letter) - 1
        if not 0 <= p < strands - 1:
            raise ValueError(f"generator {letter} out of range for {strands} strands")
        bl, br = current[p], current[p + 1]
        tl, tr = next(arcs), next(arcs)
        # counterclockwise: bottom-left, bottom-right, top-right, top-left
        over = 0 if letter > 0 else 1
        crossings.append(Crossing((bl, br, tr, tl), over))
        current[p], current[p + 1] = tl, tr
    return crossings, bottom, current


def braid_closure(word: list[int], strands: int) -> Diagram:
    """Trace closure of a braid word (generators 1..strands-1, sign = handedness).
    Strands untouched by the word close into free loops."""
    crossings, bottom, top = _braid_crossings(word, strands, itertools.count(1))
    # close each strand onto its bottom arc; an untouched strand is a circle
    free = sum(b == t for b, t in zip(bottom, top))
    return _diagram(crossings, dict(zip(top, bottom)), free)


def braid_tangle(word: list[int], strands: int) -> Diagram:
    """A braid as a tangle: boundary runs counterclockwise along the bottom
    (left to right) and back along the top (right to left)."""
    crossings, bottom, top = _braid_crossings(word, strands, itertools.count(1))
    return _diagram(crossings, boundary=(*bottom, *reversed(top)))


def torus_link(k: int) -> Diagram:
    """The (2, k) torus link: closure of k positive half-twists on 2 strands."""
    if k < 1:
        raise ValueError("need at least one crossing")
    return braid_closure([1] * k, 2)


def twist_region_tangle(k: int) -> Diagram:
    """k half-twists on two strands, as a 4-point tangle."""
    return braid_tangle([1] * k, 2)


def pretzel(signs: list[int]) -> Diagram:
    """Pretzel link P(p1, p2, ...): vertical twist regions of |p_i| crossings
    side by side, joined along the top and bottom; the sign of p_i picks the
    handedness of its region."""
    if len(signs) < 1 or any(p == 0 for p in signs):
        raise ValueError("pretzel parameters must be nonzero")
    arcs = itertools.count(1)
    crossings: list[Crossing] = []
    regions = []  # (bottom, top) arcs of each region's two strands
    for p in signs:
        cs, bottom, top = _braid_crossings([1 if p > 0 else -1] * abs(p), 2, arcs)
        crossings += cs
        regions.append((bottom, top))
    # join region i's right strand to region i+1's left, at bottom and top
    rename = {}
    for (bottom, top), (next_bottom, next_top) in zip(regions, regions[1:] + regions[:1]):
        rename[next_bottom[0]], rename[next_top[0]] = bottom[1], top[1]
    return _diagram(crossings, rename)


def add_kink(d: Diagram, arc: int, positive: bool = True) -> Diagram:
    """Insert a curl on the given arc (a first Reidemeister move).  A positive
    kink multiplies the bracket by -A^3 and raises the writhe by one."""
    loop_arc = max(_labels(d), default=0) + 1
    far_arc = loop_arc + 1
    # the arc's first end moves to far_arc; the kink crossing runs arc ->
    # loop_arc -> loop_arc -> far_arc, its over flag picking the handedness
    cut = _rename_end(d, arc, 0, far_arc)
    kink = Crossing((arc, loop_arc, loop_arc, far_arc), 0 if positive else 1)
    return _diagram((*cut.crossings, kink), free_loops=d.free_loops, boundary=cut.boundary_arcs)


def _side_by_side(d1: Diagram, d2: Diagram, shift: int) -> Diagram:
    """Two closed diagrams placed side by side, ``d2``'s labels raised by
    ``shift``."""
    return _diagram(d1.crossings + tuple(Crossing(tuple(a + shift for a in c.arcs), c.over) for c in d2.crossings),
                    free_loops=d1.free_loops + d2.free_loops)


def disjoint_union(d1: Diagram, d2: Diagram) -> Diagram:
    """Place two closed diagrams side by side."""
    if not (d1.is_closed and d2.is_closed):
        raise ValueError("disjoint union of tangles is not supported")
    return _side_by_side(d1, d2, max(_labels(d1), default=0))


def connected_sum(d1: Diagram, d2: Diagram, arc1: int | None = None, arc2: int | None = None) -> Diagram:
    """Connected sum of two closed diagrams: cut one arc of each and splice.

    The spliced arcs default to each diagram's lowest label.  Both inputs
    must have at least one crossing.
    """
    if not (d1.is_closed and d2.is_closed) or not (d1.n and d2.n):
        raise ValueError("connected sum needs two closed diagrams with crossings")
    a1 = arc1 if arc1 is not None else min(_labels(d1))
    a2 = arc2 if arc2 is not None else min(_labels(d2))
    shift = max(_labels(d1))
    fresh = shift + max(_labels(d2)) + 1
    # cut arc a1 into (a1, fresh) and shifted a2 into (fresh, a1): one strand
    # runs through both diagrams.  d2 is cut before the shift, so an error
    # names its own label
    d1 = _rename_end(d1, a1, 1, fresh)
    d2 = _rename_end(_rename_end(d2, a2, 1, a1 - shift), a2, 0, fresh - shift)
    return _side_by_side(d1, d2, shift)
