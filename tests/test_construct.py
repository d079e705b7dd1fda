import pytest
from diagram_stats import stats

from skeinscan.construct import (
    add_kink, braid_closure, braid_tangle, connected_sum, disjoint_union,
    pretzel, torus_link, twist_region_tangle,
)
from skeinscan.laurent import LaurentPoly
from skeinscan.oracle import brute_force_bracket
from skeinscan.planar import parse_pd, trace_faces, validate

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")


def test_braid_closure_torus():
    for k in range(1, 8):
        d = torus_link(k)
        assert d.n == k
        validate(d)
        trace_faces(d)  # planarity


def test_braid_closure_untouched_strand_becomes_loop():
    d = braid_closure([1, 1], 3)
    assert d.free_loops == 1 and d.n == 2


def test_braid_closure_component_count():
    s = stats(torus_link(4))
    assert s.c == 1  # the underlying graph is connected
    d = braid_closure([1, -2, 1, -2], 3)
    assert stats(d).i == d.n + 1


def test_braid_tangle_boundary():
    d = braid_tangle([1], 2)
    assert d.g == 4 and d.boundary_arcs == (1, 2, 4, 3)
    d = twist_region_tangle(3)
    assert d.n == 3 and d.g == 4


def test_braid_generator_range():
    with pytest.raises(ValueError):
        braid_tangle([2], 2)


def test_pretzel_counts():
    d = pretzel([2, 3, 3])
    assert d.n == 8
    validate(d)
    trace_faces(d)
    assert stats(pretzel([1, 1, 1])).n == 3


def test_pretzel_rejects_zero():
    with pytest.raises(ValueError):
        pretzel([2, 0, 2])


def test_add_kink_multiplies_bracket():
    base = brute_force_bracket(TREFOIL)
    plus = brute_force_bracket(add_kink(TREFOIL, 1, True))
    minus = brute_force_bracket(add_kink(TREFOIL, 1, False))
    assert plus == base * LaurentPoly({3: -1})
    assert minus == base * LaurentPoly({-3: -1})


def test_add_kink_missing_arc():
    with pytest.raises(ValueError):
        add_kink(TREFOIL, 99, True)


def test_disjoint_union_multiplies_with_loop_value():
    hopf = parse_pd("X[1,3,2,4] X[3,1,4,2]")
    d = disjoint_union(TREFOIL, hopf)
    expect = brute_force_bracket(TREFOIL) * brute_force_bracket(hopf) * LaurentPoly({2: -1, -2: -1})
    assert brute_force_bracket(d) == expect


def test_connected_sum_multiplies():
    d = connected_sum(TREFOIL, TREFOIL.mirrored())
    expect = brute_force_bracket(TREFOIL) * brute_force_bracket(TREFOIL.mirrored())
    assert brute_force_bracket(d) == expect
    validate(d)
    trace_faces(d)
