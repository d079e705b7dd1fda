import hashlib
import random

import pytest
from diagram_stats import stats

from skeinscan.construct import (
    add_kink, braid_closure, braid_tangle, connected_sum, disjoint_union,
    pretzel, torus_link, twist_region_tangle,
)
from skeinscan.laurent import LaurentPoly
from skeinscan.oracle import brute_force_bracket
from skeinscan.planar import parse_pd, render_pd, trace_faces, validate
from skeinscan.verify import tangle_fixtures

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


@pytest.mark.parametrize("build, arc", [
    (lambda: connected_sum(TREFOIL, TREFOIL, arc1=99), 99),
    (lambda: connected_sum(TREFOIL, TREFOIL, arc2=99), 99),
    (lambda: add_kink(parse_pd("O"), 1), 1),
], ids=["sum_arc1", "sum_arc2", "kink_on_free_loop"])
def test_builders_name_the_missing_arc(build, arc):
    with pytest.raises(ValueError, match=f"^arc {arc} not in the diagram$"):
        build()


def _pinned_builds():
    """Builder calls the corpus does not pin: verify's tangle fixtures, the
    T(2,1001), T(8,9) and seeded 4-7 strand closures, edge-case pretzels,
    kinks on tangle boundary arcs and chords, and sums on explicit arcs."""
    out = []
    for seed in range(3):
        fixtures = tangle_fixtures(seed)
        out += [fixtures[name] for name in sorted(fixtures)]
    out += [braid_closure([1] * 1001, 2), braid_closure(list(range(1, 8)) * 9, 8)]
    rng = random.Random(24)
    for _ in range(40):
        strands = rng.randint(4, 7)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(rng.randint(6, 60))]
        out.append(braid_closure(word, strands))
    out += [pretzel([3]), pretzel([-1]), pretzel([-2, -3, 1]), pretzel([4, -1, -2, 3])]
    tangle = braid_tangle([1, -2, 1], 3)
    out += [add_kink(tangle, 1), add_kink(tangle, 3, False), add_kink(braid_tangle([], 2), 1),
            add_kink(braid_tangle([1], 3), 3, False)]
    fig8 = parse_pd("X[4,2,5,1]o1 X[8,6,1,5]o1 X[6,3,7,4]o1 X[2,7,3,8]o1")
    out += [connected_sum(TREFOIL, fig8, arc1=4, arc2=7), connected_sum(fig8, TREFOIL, arc1=2, arc2=6)]
    return out


# SHA-256 over the PD text of _pinned_builds(): a change to any builder that
# alters one arc label, slot order, free loop count or boundary fails here
BUILDS_DIGEST = "96f2eed97463678061d71dacd011b790f742dfd948eddc88d362bc2c09bd9481"


def test_builder_output_is_unchanged():
    digest = hashlib.sha256()
    for d in _pinned_builds():
        digest.update((render_pd(d) + "\n").encode())
    assert digest.hexdigest() == BUILDS_DIGEST
