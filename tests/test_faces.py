import hashlib
import itertools
import random
import sys
from pathlib import Path

import pytest

from skeinscan.construct import braid_closure, torus_link
from skeinscan.planar import (
    ColoringError, Crossing, Diagram, NonPlanarError, ParseError, checkerboard, closed_strands, parse_pd,
    trace_faces, writhe,
)
from skeinscan.verify import tangle_fixtures

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _mutants(d: Diagram, rng: random.Random) -> list[Diagram]:
    """Four slot swaps inside one crossing and two swaps of boundary
    positions: arc multiplicities stay valid, planarity often breaks."""
    out = []
    for _ in range(4 if d.n else 0):
        ci, (s, t) = rng.randrange(d.n), rng.sample(range(4), 2)
        arcs = list(d.crossings[ci].arcs)
        arcs[s], arcs[t] = arcs[t], arcs[s]
        crossings = list(d.crossings)
        crossings[ci] = Crossing(tuple(arcs), crossings[ci].over)
        out.append(Diagram(tuple(crossings), d.free_loops, d.boundary_arcs))
    for _ in range(2 if d.g else 0):
        i, j = rng.sample(range(d.g), 2)
        bdy = list(d.boundary_arcs)
        bdy[i], bdy[j] = bdy[j], bdy[i]
        out.append(Diagram(d.crossings, d.free_loops, tuple(bdy)))
    return out


def _face_summary(d: Diagram) -> str:
    """The planarity verdict, the face multiset and (e, w) under the
    light-outer coloring; the dark-outer (e, w) follow from these and the
    faces' chi."""
    try:
        ft = trace_faces(d)
    except NonPlanarError:
        return "nonplanar"
    faces = sorted((f.chi, f.touches_boundary, f.synthetic_loops) for f in ft.faces)
    try:
        cb = checkerboard(d, trace=ft)
        coloring = (cb.e, cb.w)
    except ColoringError:
        coloring = "uncolorable"
    return repr((faces, coloring))


# SHA-256 over the face summaries of the corpus, the tangle fixtures of
# seeds 0-3 and a seeded set of their slot- and boundary-swap mutants: a
# change to face tracing that alters any verdict, face or (e, w) fails here
FACE_DIGEST = "8e77312cd92b4e863ab96404404aba2f5b9d2954ba6388d07ca0dece18ac9334"


def test_face_traces_are_unchanged(corpus):
    bases = [corpus[name] for name in sorted(corpus)]
    for seed in range(4):
        fixtures = tangle_fixtures(seed)
        bases += [fixtures[name] for name in sorted(fixtures)]
    rng = random.Random(10)
    digest = hashlib.sha256()
    for d in bases:
        for m in [d, *_mutants(d, rng)]:
            digest.update(_face_summary(m).encode())
    assert digest.hexdigest() == FACE_DIGEST


def _geometry(d: Diagram) -> str:
    """Everything planar.py derives from a valid diagram: the arc index, the
    pieces, each half-edge's face, the outer face, (e, w) and, for a closed
    diagram, its strands and the writhe under every orientation."""
    ft = trace_faces(d)
    cb = checkerboard(d, trace=ft)
    parts = [d.other, d.pieces, ft.face_of, ft.outer_face, (cb.e, cb.w)]
    if d.is_closed:
        strands = closed_strands(d)
        signs = itertools.product((1, -1), repeat=len(strands))
        parts += [strands, [writhe(d, list(s)) for s in signs]]
    return repr(parts)


# SHA-256 over _geometry of the corpus, the tangle fixtures of seeds 0-3,
# braid_batch seed 0's 60 closures and T(2,1001): unlike FACE_DIGEST, it sees
# face ids, pieces, strands and writhes, so a faster planar.py that changes
# any of them fails here
GEOMETRY_DIGEST = "47556f3f2e3f41132c205da343d2620eb06e9830a8054fac54f4f0c9a4b03f4a"


def test_geometry_is_unchanged(corpus, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "inputs", raising=False)
    import inputs

    diagrams = [corpus[name] for name in sorted(corpus)]
    for seed in range(4):
        fixtures = tangle_fixtures(seed)
        diagrams += [fixtures[name] for name in sorted(fixtures)]
    diagrams += [braid_closure(word, strands) for word, strands in inputs.braid_batch(0)]
    diagrams.append(torus_link(1001))
    digest = hashlib.sha256()
    for d in diagrams:
        digest.update(_geometry(d).encode())
    assert digest.hexdigest() == GEOMETRY_DIGEST


@pytest.mark.parametrize("text", [
    "X[1,2,3,²]",
    "B[1,²]",
    "X[1,2,3,4]o0 B[1,2,3," + "9" * 5000 + "]",
], ids=["superscript_in_crossing", "superscript_in_boundary", "over_int_digit_limit"])
def test_parse_rejects_labels_int_does_not_read(text):
    with pytest.raises(ParseError):
        parse_pd(text)
