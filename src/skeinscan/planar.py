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

Faces are traced from the rotation system: the next arc-side around a face is
the clockwise successor at the far endpoint.  This is the unique embedding
data a PD code carries.

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
from dataclasses import dataclass
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

    def mirrored(self) -> "Diagram":
        """Swap over/under at every crossing (the mirror diagram)."""
        return Diagram(
            tuple(Crossing(c.arcs, 1 - c.over) for c in self.crossings),
            self.free_loops,
            self.boundary_arcs,
        )

    def to_json(self) -> dict:
        return {
            "crossings": [{"arcs": list(c.arcs), "over": c.over} for c in self.crossings],
            "free_loops": self.free_loops,
            "boundary_arcs": list(self.boundary_arcs),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Diagram":
        crossings = tuple(
            Crossing(tuple(item["arcs"]), int(item["over"])) for item in data.get("crossings", [])
        )
        d = cls(crossings, int(data.get("free_loops", 0)), tuple(data.get("boundary_arcs", ())))
        validate(d)
        return d


class DiagramStats(NamedTuple):
    n: int        # crossings
    g: int        # boundary points
    c: int        # connected components of the embedded multigraph
    c_prime: int  # components not touching the boundary
    i: int        # interior faces


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
            raw = [s.strip() for s in m.group("slots").split(",")]
            if len(raw) != 4 or not all(s.isdigit() for s in raw):
                raise ParseError(f"crossing needs 4 arc labels: {m.group('cross')!r}")
            arcs = tuple(int(s) for s in raw)
            if any(a <= 0 for a in arcs):
                raise ParseError(f"arc labels must be positive: {m.group('cross')!r}")
            over = 1 if m.group("over") is None else int(m.group("over")[1])
            crossings.append(Crossing(arcs, over))
        elif m.group("loop"):
            free_loops += 1
        elif m.group("boundary"):
            if saw_boundary:
                raise ParseError("multiple B[...] boundary declarations")
            saw_boundary = True
            body = m.group("barcs").strip()
            if body:
                raw = [s.strip() for s in body.split(",")]
                if not all(s.isdigit() for s in raw):
                    raise ParseError(f"bad boundary declaration: {m.group('boundary')!r}")
                boundary = [int(s) for s in raw]
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
    strand may instead appear twice on the boundary and in no slot)."""
    slot_count: dict[int, int] = {}
    for c in d.crossings:
        for a in c.arcs:
            slot_count[a] = slot_count.get(a, 0) + 1
    bdy_count: dict[int, int] = {}
    for a in d.boundary_arcs:
        bdy_count[a] = bdy_count.get(a, 0) + 1
    for a in set(slot_count) | set(bdy_count):
        s, b = slot_count.get(a, 0), bdy_count.get(a, 0)
        if s + b != 2:
            raise ArcMultiplicityError(
                f"arc {a} has {s} crossing ends and {b} boundary ends (need 2 total)"
            )
        if b > 2:
            raise ArcMultiplicityError(f"arc {a} appears {b} times on the boundary")


# ---------------------------------------------------------------------------
# Combinatorial map and face tracing
# ---------------------------------------------------------------------------

@dataclass
class Face:
    ident: int
    chi: int                      # Euler characteristic of the face region
    walks: list[int]              # walk ids bounding this face
    touches_boundary: bool = False
    color: str | None = None
    synthetic_loops: int = 0      # free loops whose inner disk this face is


@dataclass
class FaceTrace:
    """Faces of a diagram traced from its rotation system.

    ``faces`` lists merged face regions (a floating component punches a hole
    in its host face).  ``corner_face`` maps (crossing, corner) to the face at
    that corner, corners indexed so corner k lies between slots k and k+1.
    ``arc_faces`` maps each arc to the (face, face) pair on its two sides.
    """

    faces: list[Face]
    outer_face: int
    corner_face: dict[tuple[int, int], int]
    arc_faces: dict[int, list[int]]


def crossing_pieces(d: Diagram) -> list[int]:
    """Union-find over crossings joined by shared arcs; returns piece id per crossing."""
    parent = list(range(d.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner: dict[int, int] = {}
    for ci, c in enumerate(d.crossings):
        for a in c.arcs:
            if a in owner:
                ra, rb = find(owner[a]), find(ci)
                if ra != rb:
                    parent[rb] = ra
            else:
                owner[a] = ci
    return [find(ci) for ci in range(d.n)]


def trace_faces(d: Diagram) -> FaceTrace:
    """Trace all faces, merge floating components into their host face, and
    verify planarity (per-piece Euler formula) plus the global identity
    sum(chi over faces) == 1 + n + g/2."""
    n, g = d.n, d.g

    # Edge table.  Ends are ('x', ci, slot) or ('b', i, port) with ports
    # 0: segment toward next boundary point, 1: the tangle arc, 2: segment
    # toward the previous point -- that is the counterclockwise order seen
    # from inside the disk.
    arc_slots: dict[int, list[tuple[int, int]]] = {}
    for ci, c in enumerate(d.crossings):
        for s, a in enumerate(c.arcs):
            arc_slots.setdefault(a, []).append((ci, s))
    bdy_pos: dict[int, list[int]] = {}
    for i, a in enumerate(d.boundary_arcs):
        bdy_pos.setdefault(a, []).append(i)

    edges: list[tuple[tuple, tuple, int | None]] = []  # (end0, end1, arc label)

    def add_edge(e0: tuple, e1: tuple, label: int | None) -> None:
        edges.append((e0, e1, label))

    for a, slots in sorted(arc_slots.items()):
        if len(slots) == 2:
            add_edge(("x", *slots[0]), ("x", *slots[1]), a)
        else:
            (i,) = bdy_pos[a][:1]
            add_edge(("x", *slots[0]), ("b", i, 1), a)
    for a, positions in sorted(bdy_pos.items()):
        if a not in arc_slots:
            i, j = positions
            add_edge(("b", i, 1), ("b", j, 1), a)
    for i in range(g):  # boundary circle segments
        add_edge(("b", i, 0), ("b", (i + 1) % g, 2), None)

    # Darts: 2e = end0 -> end1, 2e+1 = reverse.
    out_dart: dict[tuple, int] = {}
    for e, (e0, e1, _) in enumerate(edges):
        if e0 in out_dart or e1 in out_dart:
            raise ArcMultiplicityError("conflicting arc incidences")
        out_dart[e0] = 2 * e
        out_dart[e1] = 2 * e + 1

    rotation: dict[tuple, list[int]] = {}
    for ci in range(n):
        rotation[("x", ci)] = [out_dart[("x", ci, s)] for s in range(4)]
    for i in range(g):
        rotation[("b", i)] = [out_dart[("b", i, p)] for p in range(3)]

    dart_vertex_slot: dict[int, tuple] = {}
    for end, dd in out_dart.items():
        dart_vertex_slot[dd] = end

    def head_vertex(dart: int) -> tuple:
        end = dart_vertex_slot[dart ^ 1]
        return end[:2]

    # next dart around a face: clockwise successor of the reverse dart at the
    # far endpoint (the rotation lists are counterclockwise).
    def next_dart(dart: int) -> int:
        v = head_vertex(dart)
        rot = rotation[v]
        k = rot.index(dart ^ 1)
        return rot[(k - 1) % len(rot)]

    walk_of: dict[int, int] = {}
    walks: list[list[int]] = []
    for start in range(2 * len(edges)):
        if start in walk_of:
            continue
        wid = len(walks)
        walk = []
        dd = start
        while dd not in walk_of:
            walk_of[dd] = wid
            walk.append(dd)
            dd = next_dart(dd)
        walks.append(walk)

    # Identify the outside-of-disk orbit (all boundary segments) for tangles.
    outside_walk = None
    if g:
        for wid, walk in enumerate(walks):
            if all(edges[dd // 2][2] is None for dd in walk):
                outside_walk = wid
                break
        if outside_walk is None:
            raise NonPlanarError("boundary circle does not bound the disk exterior")

    # Pieces of the full map (crossings, boundary vertices, plain arcs).
    piece_parent: dict[tuple, tuple] = {}

    def pfind(v: tuple) -> tuple:
        while piece_parent.setdefault(v, v) != v:
            piece_parent[v] = piece_parent[piece_parent[v]]
            v = piece_parent[v]
        return v

    def punion(u: tuple, v: tuple) -> None:
        ru, rv = pfind(u), pfind(v)
        if ru != rv:
            piece_parent[rv] = ru

    for e0, e1, _ in edges:
        punion(e0[:2], e1[:2])

    piece_of_walk: list[tuple | None] = []
    for walk in walks:
        piece_of_walk.append(pfind(dart_vertex_slot[walk[0]][:2]))

    piece_walks: dict[tuple, list[int]] = {}
    for wid, p in enumerate(piece_of_walk):
        piece_walks.setdefault(p, []).append(wid)

    # Per-piece planarity: V - E + F == 2 on the sphere.
    piece_vertices: dict[tuple, int] = {}
    piece_edges: dict[tuple, int] = {}
    for v in rotation:
        piece_vertices[pfind(v)] = piece_vertices.get(pfind(v), 0) + 1
    for e0, e1, _ in edges:
        p = pfind(e0[:2])
        piece_edges[p] = piece_edges.get(p, 0) + 1
    for p, wids in piece_walks.items():
        euler = piece_vertices[p] - piece_edges[p] + len(wids)
        if euler != 2:
            raise NonPlanarError(
                f"component has Euler characteristic {euler}; the rotation system is not planar"
            )

    # Which piece holds the boundary circle (tangles), else the root piece
    # containing crossing 0 / nothing.
    boundary_piece = pfind(("b", 0)) if g else None

    # Designated outer walk per floating piece: the walk of the out-dart at
    # slot 0 of its lowest crossing (deterministic; which side faces out is
    # genuine embedding freedom for a component a PD code cannot pin down).
    def min_crossing(p: tuple) -> int:
        for ci in range(n):
            if pfind(("x", ci)) == p:
                return ci
        return n  # piece without crossings

    def designated_outer(p: tuple) -> int:
        best = min_crossing(p)
        if best == n:  # plain-arc piece (two boundary vertices) cannot float
            raise NonPlanarError("floating piece without crossings")
        return walk_of[out_dart[("x", best, 0)]]

    pieces = sorted(piece_walks, key=min_crossing)
    if g:
        host_piece = boundary_piece
    else:
        host_piece = pieces[0] if pieces else None

    faces: list[Face] = []
    walk_face: dict[int, int] = {}

    def new_face(walk_ids: list[int], touches: bool) -> int:
        fid = len(faces)
        faces.append(Face(fid, 1, list(walk_ids), touches))
        for w in walk_ids:
            walk_face[w] = fid
        return fid

    host_face: int | None = None
    if host_piece is not None:
        host_walks = piece_walks[host_piece]
        if g:
            # seam segment: from boundary point g-1 to 0; its inside dart
            seam_dart = out_dart[("b", g - 1, 0)]
            seam_walk = walk_of[seam_dart]
            for wid in host_walks:
                if wid == outside_walk:
                    continue
                touches = any(edges[dd // 2][2] is None for dd in walks[wid])
                new_face([wid], touches)
            host_face = walk_face[seam_walk]
        else:
            outer_walk = designated_outer(host_piece)
            for wid in host_walks:
                if wid != outer_walk:
                    new_face([wid], False)
            host_face = new_face([outer_walk], True)
    else:
        host_face = new_face([], True)  # no crossings: the bare disk

    for p in pieces:
        if p == host_piece:
            continue
        if g and p == boundary_piece:
            continue
        outer_walk = designated_outer(p)
        for wid in piece_walks[p]:
            if wid != outer_walk:
                new_face([wid], False)
        faces[host_face].walks.append(outer_walk)
        walk_face[outer_walk] = host_face

    # Free loops: one synthetic inner face each; outer side joins the host.
    for _ in range(d.free_loops):
        fid = len(faces)
        faces.append(Face(fid, 1, [], False, synthetic_loops=1))
        faces[host_face].synthetic_loops += 1

    # Euler characteristics: a region with b boundary circles has chi = 2 - b.
    for f in faces:
        b = len(f.walks) + f.synthetic_loops
        if f.ident == host_face and not g:
            b += 1  # the disk boundary itself
        f.chi = 2 - b
        if f.ident == host_face and not g:
            f.touches_boundary = True

    chi_sum = sum(f.chi for f in faces)
    if chi_sum != 1 + n + g // 2:
        raise NonPlanarError(
            f"face Euler characteristics sum to {chi_sum}, expected {1 + n + g // 2}"
        )

    # Corner bookkeeping: the face at corner (ci, k) is the face of the walk
    # passing through that corner; a walk arriving at slot k+1 exits at slot k.
    corner_face: dict[tuple[int, int], int] = {}
    for wid, walk in enumerate(walks):
        if wid == outside_walk:
            continue
        for dd in walk:
            end = dart_vertex_slot[dd ^ 1]
            if end[0] == "x":
                ci, arrive = end[1], end[2]
                corner_face[(ci, (arrive - 1) % 4)] = walk_face[wid]
    if len(corner_face) != 4 * n:
        raise NonPlanarError("corner/face incidence is inconsistent")

    arc_faces: dict[int, list[int]] = {}
    for e, (e0, e1, label) in enumerate(edges):
        if label is None:
            continue
        sides = []
        for dd in (2 * e, 2 * e + 1):
            wid = walk_of[dd]
            if wid != outside_walk:
                sides.append(walk_face[wid])
        arc_faces[label] = sides

    return FaceTrace(faces, host_face, corner_face, arc_faces)


# ---------------------------------------------------------------------------
# Checkerboarding
# ---------------------------------------------------------------------------

@dataclass
class Checkerboarding:
    face_colors: dict[int, str]
    e: int  # Euler characteristic of the dark surface
    w: int  # positive minus negative crossings relative to the dark surface


def checkerboard(d: Diagram, outer_color: str = LIGHT, trace: FaceTrace | None = None) -> Checkerboarding:
    """Two-color the faces so no two faces sharing an arc agree, seeding the
    outer face with ``outer_color``; compute the dark-surface Euler number e
    and the signed crossing count w."""
    if outer_color not in (DARK, LIGHT):
        raise ValueError(f"outer_color must be {DARK!r} or {LIGHT!r}")
    ft = trace or trace_faces(d)
    colors: dict[int, str] = {ft.outer_face: outer_color}
    queue = [ft.outer_face]
    adjacency: dict[int, set[int]] = {f.ident: set() for f in ft.faces}
    for sides in ft.arc_faces.values():
        if len(sides) == 2:
            a, b = sides
            adjacency[a].add(b)
            adjacency[b].add(a)
    # synthetic free-loop inner faces neighbor their host
    for f in ft.faces:
        if f.synthetic_loops and not f.walks and f.ident != ft.outer_face:
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
        c0 = colors[ft.corner_face[(ci, 0)]]
        c1 = colors[ft.corner_face[(ci, 1)]]
        c2 = colors[ft.corner_face[(ci, 2)]]
        c3 = colors[ft.corner_face[(ci, 3)]]
        if c0 != c2 or c1 != c3 or c0 == c1:
            raise ColoringError(f"corners of crossing {ci} are not alternating")
        parity = 0 if c0 == DARK else 1
        # positive iff the dark corners are the ones swept by rotating the
        # over strand counterclockwise (see module docstring diagram)
        w += 1 if parity == c.over else -1

    return Checkerboarding(colors, e, w)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def graph_components(d: Diagram) -> tuple[int, int]:
    """Connected components of the embedded multigraph and how many of them
    avoid the boundary.  Strands joined at a crossing count as connected;
    every crossingless boundary chord and every free loop is its own
    component."""
    piece_ids = crossing_pieces(d)
    bdy = set(d.boundary_arcs)
    touching: set[int] = set()
    for ci, c in enumerate(d.crossings):
        if any(a in bdy for a in c.arcs):
            touching.add(piece_ids[ci])
    pieces = set(piece_ids)
    slot_arcs = {a for c in d.crossings for a in c.arcs}
    plain_arcs = len({a for a in bdy if a not in slot_arcs})
    c_total = len(pieces) + plain_arcs + d.free_loops
    c_prime = (len(pieces) - len(touching)) + d.free_loops
    return c_total, c_prime


def stats(d: Diagram, trace: FaceTrace | None = None) -> DiagramStats:
    """Crossing/boundary/component/interior-face counts.  The Euler relation
    i == n + c - g/2 is recomputed from the face trace and asserted."""
    ft = trace or trace_faces(d)
    n, g = d.n, d.g
    c, c_prime = graph_components(d)
    i = sum(1 for f in ft.faces if not f.touches_boundary)
    if i != n + c - g // 2:
        raise NonPlanarError(
            f"interior face count {i} violates i = n + c - g/2 = {n + c - g // 2}"
        )
    return DiagramStats(n, g, c, c_prime, i)


# ---------------------------------------------------------------------------
# Strand components, orientation, writhe
# ---------------------------------------------------------------------------

@dataclass
class StrandComponent:
    arcs: list[int]
    touches_boundary: bool
    # crossing passages: (crossing, entry slot) for the canonical direction
    passages: list[tuple[int, int]]


def strand_components(d: Diagram) -> list[StrandComponent]:
    """Follow strands through crossings (slot s continues at slot s+2).
    Free loops are not included; components are ordered by their lowest arc.

    Each arc has two ends, each a crossing slot or a boundary position; a
    directed arc points toward one of them.  The successor of a directed arc
    passes through the crossing at its head and leaves along the opposite
    slot's arc, directed away from that slot.
    """
    ends: dict[int, list[tuple]] = {}
    for ci, c in enumerate(d.crossings):
        for s, a in enumerate(c.arcs):
            ends.setdefault(a, []).append(("x", ci, s))
    for pos, a in enumerate(d.boundary_arcs):
        ends.setdefault(a, []).append(("b", pos))

    def successor(arc: int, toward: int):
        """Next directed arc, or None at the boundary; also the passage made."""
        end = ends[arc][toward]
        if end[0] == "b":
            return None, None
        _, ci, s = end
        exit_slot = (s + 2) % 4
        nxt = d.crossings[ci].arcs[exit_slot]
        # direct the next arc away from ('x', ci, exit_slot)
        e0, e1 = ends[nxt]
        if e0 == ("x", ci, exit_slot) and e1 == ("x", ci, exit_slot):
            raise ArcMultiplicityError(f"arc {nxt} occupies one slot twice")
        toward_next = 1 if e0 == ("x", ci, exit_slot) else 0
        return (nxt, toward_next), (ci, s)

    visited: set[tuple[int, int]] = set()
    comps: list[StrandComponent] = []
    for a0 in sorted(ends):
        if (a0, 0) in visited or (a0, 1) in visited:
            continue
        arcs: list[int] = []
        passages: list[tuple[int, int]] = []
        touches = False
        # if the strand is open, rewind to a boundary end first
        start = (a0, 1)
        rewind = (a0, 0)
        seen_rewind = set()
        while rewind is not None and rewind not in seen_rewind:
            seen_rewind.add(rewind)
            nxt, _ = successor(*rewind)
            if nxt is None:
                start = (rewind[0], 1 - rewind[1])
                touches = True
                break
            rewind = nxt
        cur = start
        while cur is not None and cur not in visited:
            visited.add(cur)
            visited.add((cur[0], 1 - cur[1]))
            arcs.append(cur[0])
            nxt, passage = successor(*cur)
            if passage is not None:
                passages.append(passage)
            cur = nxt
        if cur is None:
            touches = True
        comps.append(StrandComponent(arcs, touches, passages))
    return comps


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
    comps = strand_components(d)
    if orientation is None:
        if len(comps) > 1:
            raise MissingOrientation(
                f"{len(comps)} components: supply an orientation sign per component"
            )
        orientation = [1] * len(comps)
    if len(orientation) != len(comps):
        raise MissingOrientation(
            f"got {len(orientation)} orientation signs for {len(comps)} components"
        )
    # exit slot of each strand at each crossing, under the chosen directions
    exit_slot: dict[tuple[int, int], int] = {}  # (crossing, strand parity) -> exit slot
    for comp, sign in zip(comps, orientation):
        for ci, entry in comp.passages:
            if sign > 0:
                exit_slot[(ci, entry % 2)] = (entry + 2) % 4
            else:
                exit_slot[(ci, entry % 2)] = entry
    total = 0
    for ci, c in enumerate(d.crossings):
        over_exit = exit_slot[(ci, c.over)]
        under_exit = exit_slot[(ci, 1 - c.over)]
        total += 1 if (under_exit - over_exit) % 4 == 1 else -1
    return total
