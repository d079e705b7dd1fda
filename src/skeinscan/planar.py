"""Planar diagrams of links and tangles given as PD codes.

A diagram is a list of crossings, each carrying the four incident arc labels
in counterclockwise order plus a flag identifying the over strand, together
with a count of crossingless circle components and (for tangles) the ordered
list of arcs meeting the disk boundary.

The PD text grammar accepted by :func:`parse_pd`:

    X[a,b,c,d]     crossing; arcs counterclockwise; over strand defaults to
                   the dialect rule "first entry is the incoming under strand"
                   (i.e. the strand through slots 1 and 3 is over)
    X[a,b,c,d]o0   strand through slots 0 and 2 is over
    X[a,b,c,d]o1   strand through slots 1 and 3 is over
    O              crossingless circle component
    B[a,b,...]     boundary arcs in counterclockwise order (tangles only)
    # ...          comment to end of line

:func:`parse_pd` reads the text in one pass, one regex match per token: a
crossing's match captures its four labels and its over flag.

The half-edges of a diagram are numbered: 4*ci + s is slot s of crossing ci
and 4*n + i is boundary position i.  ``Diagram.other`` maps each half-edge to
the other end of its arc; every module reads arc incidences from it.  It is
built in one pass over the labels, pairing each half-edge with the first
sighting of its label.  ``Diagram.pieces`` names each crossing's piece by
its lowest crossing, from one walk over ``other`` per piece.  A face
is a cycle of one successor: leave along a half-edge's arc, then at a
crossing take the previous slot, and at a boundary point go on to the next
boundary point.  The slot order is the unique embedding data a PD code
carries.

Crossing sign relative to a checkerboard coloring (no orientation involved):
a crossing is positive exactly when its two dark corners are the corners
swept by rotating the over strand counterclockwise.  With the over strand
vertical and dark corners marked ``#``::

        over                over
      #  |  .             .  |  #
     ----+----  positive ----+----  negative
      .  |  #             #  |  .

This convention is pinned empirically by the kink and R2 tests and is
validated transitively by the mod-4 grading checks on the whole corpus.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

DARK = "dark"
LIGHT = "light"


class ParseError(ValueError):
    """Raised on malformed PD text, with the offending fragment."""


class ArcMultiplicityError(ValueError):
    """Raised when an arc label is not used exactly the required number of times."""


class NonPlanarError(ValueError):
    """Raised when the rotation system does not describe a planar embedding."""


class ColoringError(ValueError):
    """Raised when the faces admit no proper two-coloring."""


class MissingOrientation(ValueError):
    """Raised when a signed count needs orientations that were not supplied."""


class Crossing(NamedTuple):
    arcs: tuple[int, int, int, int]
    over: int  # parity of the over strand's slots: 0 -> slots (0,2), 1 -> slots (1,3)


@dataclass(frozen=True)
class Diagram:
    crossings: tuple[Crossing, ...]
    free_loops: int = 0
    boundary_arcs: tuple[int, ...] = ()

    def __post_init__(self):
        # list fields become tuples, so a diagram is a value: equal diagrams
        # compare equal and hash alike however they were built
        if type(self.crossings) is not tuple or any(type(c.arcs) is not tuple for c in self.crossings):
            object.__setattr__(self, "crossings", tuple(Crossing(tuple(c.arcs), c.over) for c in self.crossings))
        if type(self.boundary_arcs) is not tuple:
            object.__setattr__(self, "boundary_arcs", tuple(self.boundary_arcs))

    @property
    def n(self) -> int:
        return len(self.crossings)

    @property
    def g(self) -> int:
        return len(self.boundary_arcs)

    @property
    def is_closed(self) -> bool:
        return not self.boundary_arcs

    @cached_property
    def other(self) -> tuple[int, ...]:
        """Each half-edge -> the half-edge at the other end of its arc.
        Raises ArcMultiplicityError, naming the lowest arc that does not
        have exactly two ends, unless every arc has two."""
        labels = [a for c in self.crossings for a in c.arcs]
        labels += self.boundary_arcs
        first: dict[int, int] = {}
        other = [-1] * len(labels)
        for h, a in enumerate(labels):
            k = first.setdefault(a, h)
            if k != h:
                other[h], other[k] = k, h
        # each arc seen at least once; twice each exactly when none is single
        if 2 * len(first) != len(labels) or -1 in other:
            count = Counter(labels)
            a = min(a for a, c in count.items() if c != 2)
            s = labels[:4 * self.n].count(a)
            raise ArcMultiplicityError(
                f"arc {a} has {s} crossing ends and {count[a] - s} boundary ends (need 2 total)")
        return tuple(other)

    @cached_property
    def pieces(self) -> tuple[int, ...]:
        """Per crossing, the lowest crossing of its piece: one walk over
        ``other`` from each crossing no earlier walk reached, in order."""
        n4, other = 4 * self.n, self.other
        piece = [-1] * self.n
        for start in range(self.n):
            if piece[start] < 0:
                piece[start] = start
                todo = [start]
                while todo:
                    h = 4 * todo.pop()
                    for k in other[h:h + 4]:
                        if k < n4 and piece[k >> 2] < 0:
                            piece[k >> 2] = start
                            todo.append(k >> 2)
        return tuple(piece)

    def label(self, h: int) -> int:
        """The arc of half-edge h."""
        return self.crossings[h >> 2].arcs[h & 3] if h < 4 * self.n else self.boundary_arcs[h - 4 * self.n]

    def mirrored(self) -> "Diagram":
        """Swap over/under at every crossing (the mirror diagram)."""
        return Diagram(
            tuple(Crossing(c.arcs, 1 - c.over) for c in self.crossings),
            self.free_loops,
            self.boundary_arcs,
        )


# A crossing's labels may carry only the whitespace int() strips (\s but the
# separators \x1c-\x1f); any other X[...] falls to ``badcross``.  The empty
# alternative matches at the end and before an unrecognized token.
_LABEL = r"[^\S\x1c-\x1f]*([0-9]+)[^\S\x1c-\x1f]*"
_TOKEN_RE = re.compile(
    rf"""
    \s*(?:
      (?P<cross>X\[{_LABEL},{_LABEL},{_LABEL},{_LABEL}\](o[01])?)
    | (?P<loop>O\b)
    | (?P<comment>\#[^\n]*)
    | (?P<badcross>X\[[^\]]*\](?:o[01])?)
    | (?P<boundary>B\[(?P<barcs>[^\]]*)\])
    |
    )
    """,
    re.VERBOSE,
)


_LABELS_RE = re.compile(r"\s*[0-9]+\s*(?:,\s*[0-9]+\s*)*")


def _labels(body: str) -> list[int] | None:
    """The comma-separated arc labels of a boundary declaration, or None
    unless each is a run of ASCII digits that int() reads (by default it
    refuses over 4300 digits)."""
    if not _LABELS_RE.fullmatch(body):
        return None
    try:
        return [int(s) for s in body.split(",")]
    except ValueError:
        return None


def parse_pd(text: str) -> Diagram:
    """Parse PD text into a validated :class:`Diagram`."""
    crossings: list[Crossing] = []
    free_loops = 0
    boundary: list[int] | None = None
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "cross":
            a, b, c, d, over = m.group(2, 3, 4, 5, 6)
            try:
                arcs = (int(a), int(b), int(c), int(d))
            except ValueError:  # a label over int()'s digit limit
                raise ParseError(f"crossing needs 4 arc labels: {m.group('cross')!r}") from None
            if 0 in arcs:
                raise ParseError(f"arc labels must be positive: {m.group('cross')!r}")
            crossings.append(Crossing(arcs, 0 if over == "o0" else 1))
        elif kind == "loop":
            free_loops += 1
        elif kind == "badcross":
            raise ParseError(f"crossing needs 4 arc labels: {m.group('badcross')!r}")
        elif kind == "boundary":
            if boundary is not None:
                raise ParseError("multiple B[...] boundary declarations")
            body = m.group("barcs").strip()
            boundary = _labels(body) if body else []
            if boundary is None:
                raise ParseError(f"bad boundary declaration: {m.group('boundary')!r}")
            if 0 in boundary:
                raise ParseError(f"arc labels must be positive: {m.group('boundary')!r}")
        elif kind is None and m.end() < len(text):
            raise ParseError(f"unrecognized PD token starting at {text[m.end():m.end() + 24].split()[0]!r}")
    d = Diagram(tuple(crossings), free_loops, tuple(boundary or ()))
    validate(d)
    return d


def render_pd(d: Diagram) -> str:
    parts = [f"X[{','.join(map(str, c.arcs))}]o{c.over}" for c in d.crossings]
    parts += ["O"] * d.free_loops
    if d.boundary_arcs:
        parts.append("B[" + ",".join(map(str, d.boundary_arcs)) + "]")
    return " ".join(parts)


def validate(d: Diagram) -> None:
    """Check arc multiplicities: interior arcs appear in exactly two crossing
    slots, boundary arcs in one slot and once on the boundary (a crossingless
    strand may instead appear twice on the boundary and in no slot).  That
    is, every arc has two ends, which building the arc-incidence index
    checks."""
    d.other


# ---------------------------------------------------------------------------
# Face tracing
# ---------------------------------------------------------------------------

@dataclass
class Face:
    ident: int
    chi: int                      # Euler characteristic of the face region
    cycles: list[int]             # successor cycles bounding this face
    touches_boundary: bool = False
    synthetic_loops: int = 0      # free loops whose inner disk this face is


@dataclass
class FaceTrace:
    """Faces of a diagram traced as cycles of the face successor.

    ``faces`` lists merged face regions (a floating piece punches a hole in
    its host face).  ``face_of[h]`` is the face of the cycle through
    half-edge h: the face on the side of h's arc that the cycle runs along
    and, for h = 4*ci + k, the face at corner k of crossing ci, which lies
    between slots k and k + 1.
    """

    faces: list[Face]
    outer_face: int
    face_of: list[int]


def crossing_pieces(d: Diagram) -> tuple[int, ...]:
    """Per crossing, the lowest crossing of its piece (the crossings joined
    by shared arcs); computed once per diagram, as ``Diagram.pieces``."""
    return d.pieces


def trace_faces(d: Diagram) -> FaceTrace:
    """Trace all faces, merge floating pieces into their host face, and
    verify planarity (per-piece Euler formula) plus the global identity
    sum(chi over faces) == 1 + n + g/2."""
    n, g, other = d.n, d.g, d.other
    n4 = 4 * n
    cycle_of = [-1] * len(other)
    starts: list[int] = []      # one half-edge per cycle
    for start in range(len(other)):
        if cycle_of[start] < 0:
            cid, h = len(starts), start
            starts.append(start)
            while cycle_of[h] < 0:
                cycle_of[h] = cid
                k = other[h]
                h = k & ~3 | (k - 1) & 3 if k < n4 else n4 + (k - n4 + 1) % g
    along = set(cycle_of[n4:])  # the cycles that run along the boundary

    # Pieces: the crossing pieces, except that the boundary circle joins the
    # ones reaching it and the chords into one boundary piece, -1.
    piece = crossing_pieces(d)
    reaching = {piece[k >> 2] for k in other[n4:] if k < n4}
    piece_cycles: dict[int, list[int]] = {}
    for cid, h in enumerate(starts):
        p = -1 if h >= n4 or piece[h >> 2] in reaching else piece[h >> 2]
        piece_cycles.setdefault(p, []).append(cid)

    # Per-piece planarity: V - E + F == 2 on the sphere.  A piece of m
    # crossings has V = m, E = 2m and F = its cycles; the boundary piece
    # adds the g boundary points, their g/2 arcs, the g circle segments and
    # the face outside the disk.
    size = Counter(piece)
    for p, cids in piece_cycles.items():
        if p >= 0:
            euler = len(cids) - size[p]
        else:
            euler = len(cids) + 1 - sum(size[q] for q in reaching) - g // 2
        if euler != 2:
            raise NonPlanarError(
                f"component has Euler characteristic {euler}; the rotation system is not planar"
            )

    # The host face holds the floating pieces and the free loops: the face
    # along the boundary segment from point g-1 to 0 in a tangle, else the
    # outer face of the piece of crossing 0.  A floating piece's outer cycle
    # runs through slot 0 of its lowest crossing (deterministic; which side
    # faces out is embedding freedom a PD code cannot pin down).  Every
    # other cycle is a face of its own.
    host_piece = -1 if g else 0
    faces = [Face(0, 1, [cid], cid in along) for cid in piece_cycles.get(host_piece, []) if g or cid != 0]
    if g:
        host = faces[piece_cycles[-1].index(cycle_of[n4])]
    else:
        host = Face(0, 1, [0] if n else [], True)
        faces.append(host)
    for p in sorted(piece_cycles):
        if p != host_piece:
            outer = cycle_of[4 * p]
            faces += [Face(0, 1, [cid], False) for cid in piece_cycles[p] if cid != outer]
            host.cycles.append(outer)
    # Free loops: one synthetic inner face each; outer side joins the host.
    faces += [Face(0, 1, [], False, synthetic_loops=1) for _ in range(d.free_loops)]
    host.synthetic_loops = d.free_loops
    face_of_cycle = [0] * len(starts)
    for fid, f in enumerate(faces):
        f.ident = fid
        for cid in f.cycles:
            face_of_cycle[cid] = fid

    # Euler characteristics: a region with b boundary circles has chi = 2 - b,
    # and a closed diagram's host face is bounded by the disk boundary too.
    # Every face but the host has one cycle, or is a free loop's inner disk.
    host.chi = 2 - len(host.cycles) - host.synthetic_loops - (not g)

    chi_sum = sum(f.chi for f in faces)
    if chi_sum != 1 + n + g // 2:
        raise NonPlanarError(
            f"face Euler characteristics sum to {chi_sum}, expected {1 + n + g // 2}"
        )
    return FaceTrace(faces, host.ident, list(map(face_of_cycle.__getitem__, cycle_of)))


# ---------------------------------------------------------------------------
# Checkerboarding
# ---------------------------------------------------------------------------

@dataclass
class Checkerboarding:
    e: int  # Euler characteristic of the dark surface
    w: int  # positive minus negative crossings relative to the dark surface


def checkerboard(d: Diagram, trace: FaceTrace | None = None) -> Checkerboarding:
    """Two-color the faces so no two faces sharing an arc agree, with the
    outer face light; compute the dark-surface Euler number e and the signed
    crossing count w."""
    ft = trace or trace_faces(d)
    face_of, outer = ft.face_of, ft.outer_face
    adjacency: list[list[int]] = [[] for _ in ft.faces]
    for side, across in zip(face_of, map(face_of.__getitem__, d.other)):  # the two sides of an arc
        adjacency[side].append(across)
    # synthetic free-loop inner faces neighbor their host
    for f in ft.faces:
        if f.synthetic_loops and not f.cycles and f.ident != outer:
            adjacency[f.ident].append(outer)
            adjacency[outer].append(f.ident)
    dark = [-1] * len(ft.faces)  # 1 dark, 0 light, -1 not reached yet
    dark[outer] = 0
    queue = [outer]
    while queue:
        fid = queue.pop()
        opposite = 1 - dark[fid]
        for nb in adjacency[fid]:
            if dark[nb] < 0:
                dark[nb] = opposite
                queue.append(nb)
            elif dark[nb] != opposite:
                raise ColoringError("face adjacency graph is not bipartite")
    if -1 in dark:
        raise ColoringError("face adjacency graph is disconnected")

    e = sum(f.chi for f in ft.faces if dark[f.ident]) - d.n

    corner = list(map(dark.__getitem__, face_of[:4 * d.n]))
    c0, c1 = corner[0::4], corner[1::4]
    if c0 != corner[2::4] or c1 != corner[3::4] or any(map(operator.eq, c0, c1)):
        ci = next(ci for ci in range(d.n) if corner[4 * ci:4 * ci + 4] not in ([0, 1, 0, 1], [1, 0, 1, 0]))
        raise ColoringError(f"corners of crossing {ci} are not alternating")
    # positive iff the dark corners are the ones swept by rotating the over
    # strand counterclockwise (see module docstring diagram): iff corner 0
    # is dark exactly when the over strand runs through slots 0 and 2
    positive = sum(map(operator.ne, c0, (c.over for c in d.crossings)))
    return Checkerboarding(e, 2 * positive - d.n)


# ---------------------------------------------------------------------------
# Closed strands and writhe
# ---------------------------------------------------------------------------

def closed_strands(d: Diagram) -> list[list[int]]:
    """The strands of a closed diagram, free loops left out, ordered by
    their lowest arc; each is the list of half-edges by which it enters
    crossings.

    A strand leaving along half-edge h enters slot s of a crossing at
    k = d.other[h], passes through, and leaves along slot s + 2, half-edge
    k ^ 2.  Each strand starts along its lowest arc from that arc's lower
    half-edge: the walk from the strand's lowest half-edge, turned to start
    there and reversed if it enters by that half-edge.
    """
    other = d.other
    labels = [a for c in d.crossings for a in c.arcs]
    done = [False] * len(other)
    strands: list[tuple[int, list[int]]] = []
    for h in range(len(other)):
        if done[h]:
            continue
        entries: list[int] = []
        while not done[h]:
            k = other[h]
            done[h] = done[k] = True
            entries.append(k)
            h = k ^ 2
        arcs = [labels[k] for k in entries]
        low = min(arcs)
        i = arcs.index(low)
        if entries[i] < other[entries[i]]:  # walk the other way round
            entries = [other[k] for k in entries[i::-1] + entries[:i:-1]]
        else:
            entries = entries[i:] + entries[:i]
        strands.append((low, entries))
    return [entries for _, entries in sorted(strands)]


def writhe(d: Diagram, orientation: Sequence[int] | None = None) -> int:
    """Signed crossing count of an oriented closed diagram.

    ``orientation`` gives a sign per strand component in canonical order
    (lowest arc first); -1 reverses that component's traversal direction.
    A single-component knot needs no orientation (the writhe is invariant
    under reversing the whole knot).  Positive crossing convention: the
    under strand exits one slot counterclockwise of the over strand's exit.
    """
    if not d.is_closed:
        raise MissingOrientation("writhe is defined for closed diagrams")
    strands = closed_strands(d)
    if orientation is None:
        if len(strands) > 1:
            raise MissingOrientation(
                f"{len(strands)} components: supply an orientation sign per component"
            )
        orientation = [1] * len(strands)
    if len(orientation) != len(strands):
        raise MissingOrientation(
            f"got {len(orientation)} orientation signs for {len(strands)} components"
        )
    # per crossing ci and strand parity q, at 4*ci + q: the half-edge by
    # which that strand leaves ci under the chosen directions
    exit_at = [0] * (4 * d.n)
    for entries, sign in zip(strands, orientation):
        for k in entries:
            exit_at[k & ~2] = k ^ 2 if sign > 0 else k
    total = 0
    for ci, c in enumerate(d.crossings):
        over_exit = exit_at[4 * ci + c.over]
        under_exit = exit_at[4 * ci + 1 - c.over]
        total += 1 if (under_exit - over_exit) % 4 == 1 else -1
    return total
