import itertools

import pytest
from diagram_stats import graph_components, stats

from skeinscan.construct import braid_tangle
from skeinscan.planar import (
    ArcMultiplicityError, Crossing, MissingOrientation,
    NonPlanarError, ParseError, checkerboard, parse_pd, render_pd,
    trace_faces, writhe,
)

HOPF = "X[1,3,2,4] X[3,1,4,2]"
TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
KINK = "X[1,1,2,2]o1"


def test_parse_hopf():
    d = parse_pd(HOPF)
    assert d.n == 2 and d.free_loops == 0 and d.is_closed
    assert d.crossings[0] == Crossing((1, 3, 2, 4), 1)


def test_parse_free_loop():
    d = parse_pd("O")
    assert d.n == 0 and d.free_loops == 1


def test_parse_over_flags_and_comments():
    d = parse_pd("# a kink\nX[1,1,2,2]o0  # inline comment\nO")
    assert d.crossings[0].over == 0 and d.free_loops == 1
    # around a label, the whitespace int() strips
    assert parse_pd("X[\u30001 ,1,\n2\xa0,2]O").crossings == (Crossing((1, 1, 2, 2), 1),)


def test_parse_arity_error():
    with pytest.raises(ParseError):
        parse_pd("X[1,2,3]")


def test_parse_unknown_token():
    with pytest.raises(ParseError):
        parse_pd("Y[1,2,3,4]")


def test_arc_multiplicity_error():
    with pytest.raises(ArcMultiplicityError):
        parse_pd("X[1,2,3,4]")
    with pytest.raises(ArcMultiplicityError):
        parse_pd("X[1,2,3,4] X[1,2,3,4] X[1,5,6,7]")


_LONG = "9" * 5000  # over int()'s default limit of 4300 digits


@pytest.mark.parametrize("text, error, message", [
    ("Y[1,2,3,4]", ParseError, "unrecognized PD token starting at 'Y[1,2,3,4]'"),
    ("X[1,1,2,2] OX[3,3,4,4]", ParseError, "unrecognized PD token starting at 'OX[3,3,4,4]'"),
    ("X[1,1,2,2]o2", ParseError, "unrecognized PD token starting at 'o2'"),
    ("X[1,1,2,2]\n  ] # comment", ParseError, "unrecognized PD token starting at ']'"),
    ("X[1,2,3]", ParseError, "crossing needs 4 arc labels: 'X[1,2,3]'"),
    ("X[1,2,3,4,5]o0", ParseError, "crossing needs 4 arc labels: 'X[1,2,3,4,5]o0'"),
    ("X[1,2,3,²]", ParseError, "crossing needs 4 arc labels: 'X[1,2,3,²]'"),
    ("X[1,2,3,٣]", ParseError, "crossing needs 4 arc labels: 'X[1,2,3,٣]'"),
    ("X[1,2,,4]", ParseError, "crossing needs 4 arc labels: 'X[1,2,,4]'"),
    ("X[\x1c1,1,2,2]", ParseError, "crossing needs 4 arc labels: 'X[\\x1c1,1,2,2]'"),
    (f"X[1,2,3,{_LONG}]o1", ParseError, f"crossing needs 4 arc labels: 'X[1,2,3,{_LONG}]o1'"),
    ("X[1,0,1,2]", ParseError, "arc labels must be positive: 'X[1,0,1,2]'"),
    ("X[ 1 ,\n2,000 , 2]o0", ParseError, "arc labels must be positive: 'X[ 1 ,\\n2,000 , 2]o0'"),
    ("X[1,2,3,4] B[1,2,3,4,0,0]", ParseError, "arc labels must be positive: 'B[1,2,3,4,0,0]'"),
    ("B[ 00 ,00]", ParseError, "arc labels must be positive: 'B[ 00 ,00]'"),
    ("X[1,2,3,4] B[1,2] B[3,4]", ParseError, "multiple B[...] boundary declarations"),
    ("X[1,2,3,4] B[1,2,x,4]", ParseError, "bad boundary declaration: 'B[1,2,x,4]'"),
    (f"X[1,2,3,4] B[1,2,3,{_LONG}]", ParseError, f"bad boundary declaration: 'B[1,2,3,{_LONG}]'"),
    ("X[1,2,3,4]", ArcMultiplicityError, "arc 1 has 1 crossing ends and 0 boundary ends (need 2 total)"),
    ("X[1,2,3,4] X[1,2,3,4] X[1,5,6,7]", ArcMultiplicityError,
     "arc 1 has 3 crossing ends and 0 boundary ends (need 2 total)"),
    ("X[9,3,9,3] X[3,3,5,5] X[2,1,2,1]", ArcMultiplicityError,
     "arc 3 has 4 crossing ends and 0 boundary ends (need 2 total)"),
    ("X[7,1,7,1] X[2,3,4,5] X[3,4,5,6]", ArcMultiplicityError,
     "arc 2 has 1 crossing ends and 0 boundary ends (need 2 total)"),
    ("X[1,2,3,4] B[4,3,2,1,4]", ArcMultiplicityError,
     "arc 4 has 1 crossing ends and 2 boundary ends (need 2 total)"),
    ("B[6,6,5,6]", ArcMultiplicityError, "arc 5 has 0 crossing ends and 1 boundary ends (need 2 total)"),
], ids=lambda v: v[:30] if isinstance(v, str) else None)
def test_input_error_messages(text, error, message):
    with pytest.raises(error) as info:
        parse_pd(text)
    assert type(info.value) is error and str(info.value) == message


def test_render_roundtrip():
    for text in (HOPF, TREFOIL, KINK, "O O", "X[1,2,3,4]o1 B[1,2,3,4]"):
        d = parse_pd(text)
        assert parse_pd(render_pd(d)) == d


def test_face_counts():
    assert len(trace_faces(parse_pd(HOPF)).faces) == 4  # V=2, E=4, F=4
    assert len(trace_faces(parse_pd("O")).faces) == 2   # inside and outside
    assert len(trace_faces(parse_pd(KINK)).faces) == 3  # V=1, E=2, F=3


def test_nonplanar_rotation_rejected():
    # opposite-slot self-loops at one vertex need a torus
    with pytest.raises(NonPlanarError):
        trace_faces(parse_pd("X[1,2,1,2]"))


def test_stats_fixture_with_all_quantities():
    # four crossings, six boundary points, three components, one floating
    d = parse_pd("X[1,2,4,3]o0 X[3,4,6,5]o0 X[5,6,8,7]o0 X[7,8,10,9]o0 O B[1,2,11,11,10,9]")
    s = stats(d)
    assert (s.n, s.g, s.c, s.c_prime, s.i) == (4, 6, 3, 1, 4)


def test_stats_free_loop():
    assert stats(parse_pd("O")) == (0, 0, 1, 1, 1)


def test_stats_hopf_euler_relation():
    s = stats(parse_pd(HOPF))
    assert s.n == 2 and s.g == 0 and s.c == 1
    assert s.i == s.n + s.c - s.g // 2 == 3


def test_stats_relation_across_corpus(corpus):
    for name, d in corpus.items():
        s = stats(d)  # stats() itself asserts i == n + c - g/2
        assert s.i == s.n + s.c - s.g // 2, name


def test_graph_components_split():
    # closed diagram: nothing touches the boundary, so c' = c
    d = parse_pd(HOPF + " O O")
    assert graph_components(d) == (3, 3)
    # tangle: the crossing piece reaches the boundary, loop and chord counted
    t = parse_pd("X[1,2,3,4]o1 O B[1,2,3,4,5,5]")
    assert graph_components(t) == (3, 1)


def test_checkerboard_free_loop():
    cb = checkerboard(parse_pd("O"))
    assert (cb.e, cb.w) == (1, 0)


def test_checkerboard_two_crossing_tangle_values():
    # two separated crossings of opposite handedness inside a surrounding
    # chord: the light-outer coloring gives e=2, w=-2
    d = parse_pd("X[1,2,3,4]o0 X[5,6,7,8]o1 B[9,1,2,3,4,9,5,6,7,8]")
    cb = checkerboard(d)
    assert (cb.e, cb.w) == (2, -2)


def test_writhe_hopf_parallel():
    d = parse_pd(HOPF)
    assert abs(writhe(d, [1, 1])) == 2
    assert writhe(d, [1, -1]) == -writhe(d, [1, 1])


def test_writhe_trefoil():
    assert writhe(parse_pd(TREFOIL)) == -3


def test_writhe_reversal_invariant_for_knots():
    d = parse_pd(TREFOIL)
    assert writhe(d, [1]) == writhe(d, [-1])
    d = parse_pd(FIG8)
    assert writhe(d, [1]) == writhe(d, [-1]) == 0


def test_writhe_needs_orientation_for_links():
    with pytest.raises(MissingOrientation):
        writhe(parse_pd(HOPF))
    with pytest.raises(MissingOrientation):
        writhe(parse_pd(HOPF), [1])


# the writhe of each corpus link under every orientation sign vector, in
# itertools.product((1, -1), repeat=c) order: pins the component order that
# the signs (and ``compute --oriented``) refer to
CORPUS_LINK_WRITHES = {
    "braid_2s_00": (0, 0, 0, 0),
    "braid_2s_03": (2, -2, -2, 2),
    "braid_3s_06": (6, 2, -6, -2, -2, -6, 2, 6),
    "braid_3s_10": (2, -2, 2, -2, -2, 2, -2, 2),
    "braid_4s_01": (7, -1, -1, -1, -1, -1, -1, 7),
    "braid_4s_05": (0, 0, 0, 0),
    "braid_4s_08": (0, 0, 0, 0),
    "braid_4s_11": (0, 0, 0, 0),
    "fig8_chain_3": (0, 0, 0, 0, 0, 0, 0, 0),
    "pretzel_2_2_2": (-6, 2, 2, 2, 2, 2, 2, -6),
    "pretzel_2_m3_4": (-1, -5, -5, -1),
    "split_tref_hopf": (-1, -5, -5, -1, -1, -5, -5, -1),
    "torus_2_2": (2, -2, -2, 2),
    "torus_2_4": (4, -4, -4, 4),
    "torus_2_6": (6, -6, -6, 6),
    "torus_2_8": (8, -8, -8, 8),
    "torus_3_3": (6, -2, -2, -2, -2, -2, -2, 6),
}


def test_writhe_of_every_corpus_link_orientation(corpus):
    for name, d in corpus.items():
        if d.is_closed and name not in CORPUS_LINK_WRITHES:
            writhe(d)  # a knot, or free loops only: no signs needed
    for name, table in CORPUS_LINK_WRITHES.items():
        with pytest.raises(MissingOrientation):
            writhe(corpus[name])
        signs = itertools.product((1, -1), repeat=len(table).bit_length() - 1)
        assert tuple(writhe(corpus[name], list(s)) for s in signs) == table, name


def test_writhe_kink_positive():
    # this curl multiplies the bracket by -A^3, which pins its writhe to +1
    assert writhe(parse_pd(KINK)) == 1
    assert writhe(parse_pd("X[1,1,2,2]o0")) == -1


def test_tangle_faces_and_stats():
    d = braid_tangle([1, 1], 2)
    s = stats(d)
    assert (s.n, s.g, s.c, s.c_prime) == (2, 4, 1, 0)
    assert s.i == 1  # the bigon between the two crossings
