import pytest
from diagram_stats import graph_components
from grading import span_and_grade

from skeinscan.construct import torus_link
from skeinscan.laurent import DELTA, LaurentPoly
from skeinscan.oracle import TooLarge, brute_force_bracket, brute_force_tangle_expansion
from skeinscan.planar import parse_pd
from skeinscan.skein import PKBP

HOPF = parse_pd("X[1,3,2,4] X[3,1,4,2]")
TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")


def test_unknot_is_one():
    assert brute_force_bracket(parse_pd("O")) == LaurentPoly.one()


def test_hopf_four_state_sum():
    # A^2*delta + 1 + 1 + A^-2*delta collapses to -A^4 - A^-4
    by_hand = (
        DELTA.shifted(2) + LaurentPoly({0: 2}) + DELTA.shifted(-2)
    )
    assert by_hand == LaurentPoly({4: -1, -4: -1})
    assert brute_force_bracket(HOPF) == by_hand


def test_trefoil_both_chiralities():
    assert brute_force_bracket(TREFOIL) == LaurentPoly({7: 1, 3: -1, -5: -1})
    assert brute_force_bracket(TREFOIL.mirrored()) == LaurentPoly({-7: 1, -3: -1, 5: -1})


def test_kink_factors():
    assert brute_force_bracket(parse_pd("X[1,1,2,2]o1")) == LaurentPoly({3: -1})
    assert brute_force_bracket(parse_pd("X[1,1,2,2]o0")) == LaurentPoly({-3: -1})


def test_size_cap():
    with pytest.raises(TooLarge):
        brute_force_bracket(torus_link(23))


def test_single_crossing_tangle():
    got = brute_force_tangle_expansion(parse_pd("X[1,2,3,4]o1 B[1,2,3,4]"))
    assert got == {
        (1, 0, 3, 2): LaurentPoly({1: 1}),
        (3, 2, 1, 0): LaurentPoly({-1: 1}),
    }


def test_crossingless_two_arc_tangle():
    got = brute_force_tangle_expansion(parse_pd("B[1,1,2,2]"))
    assert got == {(1, 0, 3, 2): LaurentPoly.one()}


def test_second_reidemeister_gadget_collapses():
    d = parse_pd("X[1,2,4,3]o0 X[3,4,6,5]o1 B[1,2,6,5]")
    assert brute_force_tangle_expansion(d) == {(3, 2, 1, 0): LaurentPoly.one()}


def test_positive_variant_has_positive_coefficients(corpus):
    for name, d in list(corpus.items())[:12]:
        if d.n > 8:
            continue
        p = brute_force_bracket(d, PKBP)
        assert all(c > 0 for _, c in p), name


def test_oracle_results_satisfy_grading_and_span(corpus):
    # independent of the scanning engine: the state sum itself obeys the
    # exponent residue and span bounds
    for name, d in corpus.items():
        if d.n > 10:
            continue
        p = brute_force_bracket(d)
        span, grade = span_and_grade(p)
        assert grade is not None, name
        assert span % 4 == 0, name
        c, _ = graph_components(d)
        assert span <= 4 * (d.n + c), name


def test_tangle_cap_enforced():
    with pytest.raises(TooLarge):
        big = parse_pd("B[" + ",".join(str(i) for i in [*range(1, 8), *range(7, 0, -1)]) + "]")
        brute_force_tangle_expansion(big)
