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

The half-edges of a diagram are numbered: 4*ci + s is slot s of crossing ci
and 4*n + i is boundary position i.  ``Diagram.other`` maps each half-edge to
the other end of its arc; every module reads arc incidences from it.  A face
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
    def ends(self) -> dict[int, tuple[int, int]]:
        """The arc-incidence index: each arc label -> its two half-edges,
        lower first.  Raises ArcMultiplicityError unless every arc has
        exactly two ends."""
        seen: dict[int, list[int]] = {}
        for h, a in enumerate([a for c in self.crossings for a in c.arcs] + list(self.boundary_arcs)):
            seen.setdefault(a, []).append(h)
        bad = [a for a, hs in seen.items() if len(hs) != 2]
        if bad:
            a = min(bad)
            s = sum(h < 4 * self.n for h in seen[a])
            raise ArcMultiplicityError(
                f"arc {a} has {s} crossing ends and {len(seen[a]) - s} boundary ends (need 2 total)")
        return {a: tuple(hs) for a, hs in seen.items()}

    @cached_property
    def other(self) -> tuple[int, ...]:
        """Each half-edge -> the half-edge at the other end of its arc."""
        other = [0] * (4 * self.n + self.g)
        for h, k in self.ends.values():
            other[h], other[k] = k, h
        return tuple(other)

    @cached_property
    def pieces(self) -> tuple[int, ...]:
        """Union-find over crossings joined by shared arcs: per crossing, the
        lowest crossing of its piece."""
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        n4, other = 4 * self.n, self.other
        for h in range(n4):
            if h < (k := other[h]) < n4:  # each arc between two crossings once
                ra, rb = find(h >> 2), find(k >> 2)
                if ra < rb:
                    parent[rb] = ra
                elif rb < ra:
                    parent[ra] = rb
        return tuple(find(ci) for ci in range(self.n))

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


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<cross>X\[(?P<slots>[^\]]*)\](?P<over>o[01])?)
  | (?P<loop>O\b)
  | (?P<boundary>B\[(?P<barcs>[^\]]*)\])
    """,
    re.VERBOSE,
)


_LABELS_RE = re.compile(r"\s*[0-9]+\s*(?:,\s*[0-9]+\s*)*")


def _labels(body: str) -> list[int] | None:
    """The comma-separated arc labels of one token, or None unless each is
    a run of ASCII digits that int() reads (by default it refuses over 4300
    digits)."""
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
    boundary: list[int] = []
    saw_boundary = False
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            fragment = text[pos:pos + 24].split()
            bad = fragment[0] if fragment else text[pos:pos + 8]
            raise ParseError(f"unrecognized PD token starting at {bad!r}")
        pos = m.end()
        if m.group("ws") or m.group("comment"):
            continue
        if m.group("cross"):
            arcs = _labels(m.group("slots"))
            if arcs is None or len(arcs) != 4:
                raise ParseError(f"crossing needs 4 arc labels: {m.group('cross')!r}")
            if any(a <= 0 for a in arcs):
                raise ParseError(f"arc labels must be positive: {m.group('cross')!r}")
            over = 1 if m.group("over") is None else int(m.group("over")[1])
            crossings.append(Crossing(tuple(arcs), over))
        elif m.group("loop"):
            free_loops += 1
        elif m.group("boundary"):
            if saw_boundary:
                raise ParseError("multiple B[...] boundary declarations")
            saw_boundary = True
            body = m.group("barcs").strip()
            if body:
                boundary = _labels(body)
                if boundary is None:
                    raise ParseError(f"bad boundary declaration: {m.group('boundary')!r}")
    d = Diagram(tuple(crossings), free_loops, tuple(boundary))
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
    d.ends


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
    touches: list[bool] = []    # whether the cycle runs along the boundary
    for start in range(len(other)):
        if cycle_of[start] >= 0:
            continue
        h, along = start, False
        while cycle_of[h] < 0:
            cycle_of[h] = len(starts)
            k = other[h]
            if k < n4:
                h = k & ~3 | (k - 1) & 3
            else:
                h, along = n4 + (k - n4 + 1) % g, True
        starts.append(start)
        touches.append(along)

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

    faces: list[Face] = []
    face_of_cycle = [0] * len(starts)

    def new_face(cids: list[int], touches_boundary: bool) -> Face:
        for cid in cids:
            face_of_cycle[cid] = len(faces)
        faces.append(Face(len(faces), 1, cids, touches_boundary))
        return faces[-1]

    # The host face holds the floating pieces and the free loops: the face
    # along the boundary segment from point g-1 to 0 in a tangle, else the
    # outer face of the piece of crossing 0.  A floating piece's outer cycle
    # runs through slot 0 of its lowest crossing (deterministic; which side
    # faces out is embedding freedom a PD code cannot pin down).
    host_piece = -1 if g else 0
    for cid in piece_cycles.get(host_piece, []):
        if g or cid != cycle_of[0]:
            new_face([cid], touches[cid])
    if g:
        host = faces[face_of_cycle[cycle_of[n4]]]
    else:
        host = new_face([cycle_of[0]] if n else [], True)
    for p in sorted(piece_cycles):
        if p != host_piece:
            outer = cycle_of[4 * p]
            for cid in piece_cycles[p]:
                if cid != outer:
                    new_face([cid], False)
            host.cycles.append(outer)
            face_of_cycle[outer] = host.ident

    # Free loops: one synthetic inner face each; outer side joins the host.
    for _ in range(d.free_loops):
        faces.append(Face(len(faces), 1, [], False, synthetic_loops=1))
        host.synthetic_loops += 1

    # Euler characteristics: a region with b boundary circles has chi = 2 - b,
    # and a closed diagram's host face is bounded by the disk boundary too.
    for f in faces:
        f.chi = 2 - len(f.cycles) - f.synthetic_loops
    if not g:
        host.chi -= 1

    chi_sum = sum(f.chi for f in faces)
    if chi_sum != 1 + n + g // 2:
        raise NonPlanarError(
            f"face Euler characteristics sum to {chi_sum}, expected {1 + n + g // 2}"
        )
    return FaceTrace(faces, host.ident, [face_of_cycle[cid] for cid in cycle_of])


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
    colors: dict[int, str] = {ft.outer_face: LIGHT}
    queue = [ft.outer_face]
    adjacency: dict[int, set[int]] = {f.ident: set() for f in ft.faces}
    for h, k in enumerate(d.other):  # the faces on the two sides of an arc
        adjacency[ft.face_of[h]].add(ft.face_of[k])
    # synthetic free-loop inner faces neighbor their host
    for f in ft.faces:
        if f.synthetic_loops and not f.cycles and f.ident != ft.outer_face:
            host = ft.outer_face
            adjacency[f.ident].add(host)
            adjacency[host].add(f.ident)
    while queue:
        fid = queue.pop()
        opposite = DARK if colors[fid] == LIGHT else LIGHT
        for nb in adjacency[fid]:
            if nb not in colors:
                colors[nb] = opposite
                queue.append(nb)
            elif colors[nb] == colors[fid]:
                raise ColoringError("face adjacency graph is not bipartite")
    if len(colors) != len(ft.faces):
        raise ColoringError("face adjacency graph is disconnected")

    e = sum(f.chi for f in ft.faces if colors[f.ident] == DARK) - d.n

    w = 0
    for ci, c in enumerate(d.crossings):
        c0, c1, c2, c3 = (colors[ft.face_of[4 * ci + k]] for k in range(4))
        if c0 != c2 or c1 != c3 or c0 == c1:
            raise ColoringError(f"corners of crossing {ci} are not alternating")
        parity = 0 if c0 == DARK else 1
        # positive iff the dark corners are the ones swept by rotating the
        # over strand counterclockwise (see module docstring diagram)
        w += 1 if parity == c.over else -1

    return Checkerboarding(e, w)


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
    half-edge.
    """
    other = d.other
    done = [False] * len(other)
    strands: list[list[int]] = []
    for a in sorted(d.ends):
        h = d.ends[a][0]
        if done[h]:
            continue
        entries: list[int] = []
        while not done[h]:
            k = other[h]
            done[h] = done[k] = True
            entries.append(k)
            h = k ^ 2
        strands.append(entries)
    return strands


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
