"""Crossing, boundary, component and interior-face counts of a diagram, for
the tests' checks of the Euler relation i = n + c - g/2."""

from typing import NamedTuple

from skeinscan.planar import Diagram, FaceTrace, NonPlanarError, crossing_pieces, trace_faces


class DiagramStats(NamedTuple):
    n: int        # crossings
    g: int        # boundary points
    c: int        # connected components of the embedded multigraph
    c_prime: int  # components not touching the boundary
    i: int        # interior faces


def graph_components(d: Diagram) -> tuple[int, int]:
    """Connected components of the embedded multigraph and how many of them
    avoid the boundary.  Strands joined at a crossing count as connected;
    every crossingless boundary chord and every free loop is its own
    component."""
    piece_ids = crossing_pieces(d)
    n4 = 4 * d.n
    boundary_ends = d.other[n4:]
    touching = {piece_ids[k >> 2] for k in boundary_ends if k < n4}
    pieces = len(set(piece_ids))
    chords = sum(k >= n4 for k in boundary_ends) // 2
    return pieces + chords + d.free_loops, pieces - len(touching) + d.free_loops


def stats(d: Diagram, trace: FaceTrace | None = None) -> DiagramStats:
    """The counts, with the Euler relation i == n + c - g/2 recomputed from
    the face trace and asserted."""
    ft = trace or trace_faces(d)
    n, g = d.n, d.g
    c, c_prime = graph_components(d)
    i = sum(1 for f in ft.faces if not f.touches_boundary)
    if i != n + c - g // 2:
        raise NonPlanarError(
            f"interior face count {i} violates i = n + c - g/2 = {n + c - g // 2}"
        )
    return DiagramStats(n, g, c, c_prime, i)
