import random
from math import comb

import pytest
from cuttings import named_order
from grading import span_and_grade

import skeinscan.engine as engine
from skeinscan.construct import add_kink, braid_closure, braid_tangle, torus_link
from skeinscan.cutorder import Cutting, InvalidOrder, TooLarge, exact_min_girth, greedy_cutting, improve_cutting
from skeinscan.engine import (
    EmptyDiagram, NotClosed, check_mod4_link, compute_bracket, compute_jones,
    compute_pkbp, expand_tangle, fold_cutting, make_cutting,
)
from skeinscan.laurent import DELTA, DELTA_PLUS, LaurentPoly
from skeinscan.matchings import basis, catalan
from skeinscan.oracle import brute_force_bracket, brute_force_tangle_expansion
from skeinscan.planar import Crossing, Diagram, MissingOrientation, parse_pd, validate
from skeinscan.skein import BRACKET, PKBP, Birth, Cross, SkeinState

UNKNOT = parse_pd("O")
HOPF = parse_pd("X[1,3,2,4] X[3,1,4,2]")
TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
FIG8 = parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")

# published single-variable polynomials for the corpus table knots, as
# exponent->coefficient maps in t; reported values use t = A^-4
JONES_TABLE = {
    "knot_3_1": {-4: -1, -3: 1, -1: 1},
    "knot_4_1": {2: 1, -2: 1, 1: -1, -1: -1, 0: 1},
    "knot_5_2": {-6: -1, -5: 1, -4: -1, -3: 2, -2: -1, -1: 1},
    "knot_6_3": {3: -1, 2: 2, 1: -2, 0: 3, -1: -2, -2: 2, -3: -1},
    "knot_7_6": {1: 1, 0: -2, -1: 3, -2: -3, -3: 4, -4: -3, -5: 2, -6: -1},
    "knot_8_10": {6: -1, 5: 2, 4: -4, 3: 5, 2: -4, 1: 5, 0: -3, -1: 2, -2: -1},
    "knot_9_14": {6: 1, 5: -2, 4: 3, 3: -5, 2: 6, 1: -6, 0: 6, -1: -4, -2: 3, -3: -1},
}


def in_a(t_poly: dict) -> LaurentPoly:
    return LaurentPoly({-4 * e: c for e, c in t_poly.items()})


def test_unknot_bracket_is_one():
    assert compute_bracket(UNKNOT).polynomial == LaurentPoly.one()


def test_unlink_brackets():
    assert compute_bracket(parse_pd("O O")).polynomial == DELTA
    assert compute_bracket(parse_pd("O O O")).polynomial == DELTA * DELTA


def test_hopf_and_trefoil():
    assert compute_bracket(HOPF).polynomial == LaurentPoly({4: -1, -4: -1})
    assert compute_bracket(TREFOIL.mirrored()).polynomial == LaurentPoly({5: -1, -3: -1, -7: 1})


def test_raw_is_loop_value_times_result():
    res = compute_bracket(TREFOIL)
    assert res.raw_polynomial == res.polynomial * DELTA


def test_pkbp_values():
    assert compute_pkbp(UNKNOT).polynomial == LaurentPoly.one()
    assert compute_pkbp(parse_pd("O O")).polynomial == DELTA_PLUS
    res = compute_pkbp(TREFOIL)
    assert res.polynomial == brute_force_bracket(TREFOIL, PKBP)
    assert all(c > 0 for _, c in res.polynomial)
    assert span_and_grade(res.polynomial)[0] <= 4 * (TREFOIL.n + 1)


def test_pkbp_wide_coefficients():
    # T(2,k): the state with j B-smoothings closes l_j loops, l_0 = 2 and
    # l_j = j otherwise, so <T(2,k)> = sum_j C(k,j) A^(k-2j) d^(l_j - 1) with
    # d = A^2 + A^-2.  At k = 200 the largest coefficient has 312 bits, so
    # the fold repacks its coefficients past 64-bit slots.
    k = 200
    expected, power = DELTA_PLUS.shifted(k), LaurentPoly.one()
    for j in range(1, k + 1):
        if j >= 2:
            power = power * DELTA_PLUS
        expected = expected + power.shifted(k - 2 * j).scaled(comb(k, j))
    assert max(abs(c) for _, c in expected).bit_length() == 312
    res = compute_pkbp(torus_link(k))
    assert res.ok
    assert res.polynomial == expected


def test_closed_only():
    with pytest.raises(NotClosed):
        compute_bracket(parse_pd("X[1,2,3,4]o1 B[1,2,3,4]"))
    with pytest.raises(EmptyDiagram):
        compute_bracket(Diagram(()))
    with pytest.raises(ValueError):
        expand_tangle(UNKNOT)


def test_expand_tangle_examples():
    single = expand_tangle(parse_pd("X[1,2,3,4]o1 B[1,2,3,4]"))
    assert single.coeffs == {
        (1, 0, 3, 2): LaurentPoly({1: 1}),
        (3, 2, 1, 0): LaurentPoly({-1: 1}),
    }
    arc = expand_tangle(parse_pd("B[1,1]"))
    assert arc.coeffs == {(1, 0): LaurentPoly.one()}
    r2 = expand_tangle(parse_pd("X[1,2,4,3]o0 X[3,4,6,5]o1 B[1,2,6,5]"))
    assert r2.coeffs == {(3, 2, 1, 0): LaurentPoly.one()}


def _smoothed(d, ci, which):
    """Replace crossing ci by one of its two crossingless reconnections,
    at the PD level (used to exercise the expansion identity)."""
    c = d.crossings[ci]
    p = c.over
    s = p if which == 0 else p + 1
    pairs = [(c.arcs[(s - 1) % 4], c.arcs[s % 4]), (c.arcs[(s + 1) % 4], c.arcs[(s + 2) % 4])]
    rest = [x for j, x in enumerate(d.crossings) if j != ci]
    free = d.free_loops
    relabel = {}
    for a, b in pairs:
        ra = relabel.get(a, a)
        rb = relabel.get(b, b)
        if ra == rb:
            free += 1  # the smoothing closed a loop
        else:
            lo, hi = min(ra, rb), max(ra, rb)
            for k, v in list(relabel.items()):
                if v == hi:
                    relabel[k] = lo
            relabel[hi] = lo
    out = Diagram(
        tuple(Crossing(tuple(relabel.get(a, a) for a in c2.arcs), c2.over) for c2 in rest),
        free,
        d.boundary_arcs,
    )
    validate(out)
    return out


@pytest.mark.parametrize("name", ["hopf", "trefoil", "fig8"])
def test_expansion_identity_at_one_crossing(name):
    d = {"hopf": HOPF, "trefoil": TREFOIL, "fig8": FIG8}[name]
    lhs = compute_bracket(d).raw_polynomial
    a_part = compute_bracket(_smoothed(d, 0, 0)).raw_polynomial
    b_part = compute_bracket(_smoothed(d, 0, 1)).raw_polynomial
    assert lhs == a_part.shifted(1) + b_part.shifted(-1)


def test_jones_matches_published_table(corpus):
    for name, t_poly in JONES_TABLE.items():
        res = compute_jones(corpus[name])
        assert res.polynomial == in_a(t_poly), name


def test_jones_unknot():
    assert compute_jones(UNKNOT).polynomial == LaurentPoly.one()


def test_jones_invariant_across_diagrams():
    trios = {
        "trefoil": [TREFOIL, add_kink(TREFOIL, 1, True), braid_closure([-1, -1, -1], 2)],
        "fig8": [FIG8, add_kink(FIG8, 4, False), braid_closure([1, -2, 1, -2], 3)],
    }
    for name, diagrams in trios.items():
        values = {str(compute_jones(x).polynomial) for x in diagrams}
        assert len(values) == 1, (name, values)


def test_jones_mirror_conjugates():
    j = compute_jones(TREFOIL).polynomial
    jm = compute_jones(TREFOIL.mirrored()).polynomial
    assert jm == j.mirror()


def test_jones_needs_orientation_for_links():
    with pytest.raises(MissingOrientation):
        compute_jones(HOPF)
    oriented = compute_jones(HOPF, orientation=[1, 1])
    assert oriented.diagnostics["writhe"] in (-2, 2)


def test_mirror_bracket_conjugates(corpus):
    for name, d in list(corpus.items())[:15]:
        if d.n > 8:
            continue
        assert compute_bracket(d.mirrored()).polynomial == compute_bracket(d).polynomial.mirror(), name


def test_disjoint_unknot_multiplies(corpus):
    for name, d in list(corpus.items())[:10]:
        if d.n > 8 or not d.is_closed:
            continue
        aug = Diagram(d.crossings, d.free_loops + 1, d.boundary_arcs)
        assert compute_bracket(aug).polynomial == compute_bracket(d).polynomial * DELTA, name


def test_mod4_link_report_unknot():
    res = compute_bracket(UNKNOT)
    info = res.diagnostics["mod4_link"]
    assert info["ok"]
    assert info["light"] == {"w": 0, "e": 1, "expected_residue": 2}


def test_mod4_link_on_the_raw_polynomial():
    res = compute_bracket(TREFOIL)
    assert check_mod4_link(TREFOIL, res.raw_polynomial)["ok"]


def test_order_independence_strategies():
    base = compute_bracket(FIG8, order="greedy").polynomial
    for order in (improve_cutting(FIG8, greedy_cutting(FIG8), seed=11), "exact"):
        assert compute_bracket(FIG8, order=order).polynomial == base
    explicit = Cutting.from_json(compute_bracket(FIG8).cutting.to_json())
    assert compute_bracket(FIG8, order=explicit).polynomial == base


def test_storage_and_girth_diagnostics():
    res = compute_bracket(FIG8, order="exact")
    assert res.girth_used == 4
    assert res.peak_state_size <= catalan(res.girth_used // 2)
    assert res.diagnostics["storage"]["ok"]
    assert res.diagnostics["sqrt_bound"]["ok"]


def test_engine_matches_oracle_spot(corpus):
    for name in ("knot_6_3", "pretzel_2_3_3", "split_tref_hopf", "braid_3s_02"):
        d = corpus[name]
        assert compute_bracket(d).polynomial == brute_force_bracket(d), name


def test_tangle_diagnostics_and_oracle(corpus):
    d = parse_pd("X[1,2,4,3]o0 X[3,4,6,5]o0 B[1,2,6,5]")
    exp = expand_tangle(d)
    assert exp.coeffs == brute_force_tangle_expansion(d)
    assert all(v["ok"] for k, v in exp.diagnostics.items() if isinstance(v, dict) and "ok" in v)


# a crossingless chord between two boundary points of one crossing piece;
# the second is braid_tangle([3], 5), whose strands 1, 2 and 5 are chords
CHORD_TANGLES = ["X[1,2,4,3]o0 B[1,2,5,5,4,3,6,6]", "X[3,4,7,6]o0 B[1,2,3,4,5,5,7,6,2,1]"]


@pytest.mark.parametrize("order", ["greedy", "anneal", "exact"])
@pytest.mark.parametrize("pd", CHORD_TANGLES)
def test_chord_inside_a_crossing_piece(pd, order):
    d = parse_pd(pd)
    exp = expand_tangle(d, order=named_order(d, order))
    assert exp.coeffs == brute_force_tangle_expansion(d)
    assert all(v["ok"] for v in exp.diagnostics.values() if isinstance(v, dict))
    assert exp.girth_used == 4  # the chords never reach the frontier


def test_braid_tangles_with_untouched_strands():
    rng = random.Random(5)
    for _ in range(40):
        strands = rng.randint(3, 6)
        idle = rng.randint(1, strands)  # generators idle - 1 and idle move it
        gens = [j for j in range(1, strands) if j not in (idle - 1, idle)]
        word = [rng.choice((1, -1)) * rng.choice(gens) for _ in range(rng.randint(1, 8))] if gens else []
        d = braid_tangle(word, strands)
        oracle = brute_force_tangle_expansion(d)
        for order in ("greedy", "anneal"):
            cutting = make_cutting(d, named_order(d, order))
            assert not any(isinstance(ev, Birth) for ev in cutting.events)
            assert expand_tangle(d, order=cutting).coeffs == oracle, (word, strands, order)


def test_crossing_pieces_computed_once_per_call(monkeypatch):
    # faces, the cutting and the fold all read the pieces; the diagram
    # computes them once
    prop = Diagram.__dict__["pieces"]
    calls = []
    original = prop.func
    monkeypatch.setattr(prop, "func", lambda d: calls.append(d) or original(d))
    for word, strands in (([1, 1, 1], 2), ([1, -2, 1, -2], 3)):
        d = braid_closure(word, strands)
        before = len(calls)
        compute_pkbp(d)
        assert len(calls) == before + 1


def _checked(state, n, c):
    """Every violation list _check_state writes for the state, by check."""
    report = engine._new_report()
    engine._check_state(state, n, c, report)
    return {key: check["violations"] for key, check in report.items()}


def _clean(**violations):
    return {"mod4": [], "span": [], "total_span": [], "storage": [], "positivity": [], **violations}


def test_span_over_its_bound_reported():
    # n + c = 3 and g = 4: span bound 4, total bound 12, term bound 2
    state = SkeinState(BRACKET, 4, {basis(4).index_of((1, 0, 3, 2)): LaurentPoly({0: 1, 8: -2})})
    assert _checked(state, 2, 1) == _clean(span=["span 8 > 4(n+c)-2g = 4 at n=2, c=1, g=4"])


def test_total_span_over_its_bound_reported():
    # two one-term coefficients 16 apart, each of span 0; total bound 12
    state = SkeinState(BRACKET, 4, {basis(4).index_of((1, 0, 3, 2)): LaurentPoly({0: 1}),
                                    basis(4).index_of((3, 2, 1, 0)): LaurentPoly({16: 1})})
    assert _checked(state, 2, 1) == _clean(total_span=["total span 16 > 4(n+c) = 12 at n=2, c=1, g=4"])


def test_term_count_over_its_bound_reported():
    # n + c = 2 and g = 2: span bound 4, term bound 2, total bound 8
    state = SkeinState(PKBP, 2, {basis(2).index_of((1, 0)): LaurentPoly({0: 1, 4: 1, 8: 1})})
    assert _checked(state, 1, 1) == _clean(
        span=["span 8 > 4(n+c)-2g = 4 at n=1, c=1, g=2"],
        storage=["3 terms > n+c-g/2+1 = 2 at n=1, c=1, g=2"],
    )


def test_zero_low_slot_sends_a_clean_state_to_the_exact_pass(monkeypatch):
    # capping points 0 and 1 of (0 1)(2 3) closes a loop, -A^-2 - A^2, and of
    # (0 3)(1 2) reconnects with weight 1; A^-2 cancels in the merge, which
    # keeps its zero slot, so the only term sits one slot above the offset
    state = SkeinState(BRACKET, 4, {basis(4).index_of((1, 0, 3, 2)): LaurentPoly.one(),
                                    basis(4).index_of((3, 2, 1, 0)): LaurentPoly({-2: 1})}).cap(0)
    assert state.coeffs == {basis(2).index_of((1, 0)): LaurentPoly({2: -1})}
    assert state.span_bound() == (4, -2, -2)  # the true span is 0
    calls = []
    exact = SkeinState.exponent_ranges
    monkeypatch.setattr(SkeinState, "exponent_ranges", lambda s: calls.append(s) or exact(s))
    # n + c = 1 and g = 2: span bound 0, total bound 4
    assert _checked(state, 0, 1) == _clean()
    assert calls == [state]


def test_folds_never_need_the_exact_pass(monkeypatch):
    # the state-wide bound clears every state of these folds on its own; a
    # change that falls back to the exact pass fails here, not only in time
    calls = []
    exact = SkeinState.exponent_ranges
    monkeypatch.setattr(SkeinState, "exponent_ranges", lambda s: calls.append(s) or exact(s))
    rng = random.Random(17)
    t89 = braid_closure(list(range(1, 8)) * 9, 8)
    jobs = [(t89, BRACKET), (t89, PKBP), (torus_link(201), BRACKET)]
    for _ in range(20):
        strands = rng.randint(3, 6)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(6, 30))]
        jobs.append((braid_closure(word, strands), rng.choice((BRACKET, PKBP))))
    for d, mode in jobs:
        _, report, _ = fold_cutting(d, greedy_cutting(d), mode)
        assert all(check["ok"] for check in report.values())
    assert calls == []


def _outputs(result):
    """Everything a compute call reports but its timings."""
    checks = {k: v for k, v in result.diagnostics.items() if k != "timings"}
    return result.polynomial, result.girth_used, result.peak_state_size, checks, result.cutting.to_json()


def _counted(monkeypatch, search):
    """Record every diagram the engine hands to the search named ``search``."""
    calls, real = [], getattr(engine, search)
    monkeypatch.setattr(engine, search, lambda d: calls.append(d) or real(d))
    return calls


def test_equal_diagrams_share_one_search(monkeypatch, fresh_cuttings):
    text = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
    computes = (compute_bracket, compute_pkbp, compute_jones)
    cold = []
    for compute in computes:
        fresh_cuttings.clear()
        cold.append(_outputs(compute(parse_pd(text))))
    fresh_cuttings.clear()
    calls = _counted(monkeypatch, "greedy_cutting")
    # each call parses the text anew
    assert [_outputs(compute(parse_pd(text))) for compute in computes] == cold
    assert len(calls) == 1


def test_a_mirror_gets_its_own_cutting(monkeypatch, fresh_cuttings):
    calls = _counted(monkeypatch, "greedy_cutting")
    mirror = FIG8.mirrored()
    ours, theirs = make_cutting(FIG8), make_cutting(mirror)
    assert theirs.events == greedy_cutting(mirror).events
    overs = [[ev.over_first for ev in c.events if isinstance(ev, Cross)] for c in (ours, theirs)]
    assert overs[1] == [not over for over in overs[0]]
    assert calls == [FIG8, mirror] and len(fresh_cuttings) == 1  # the mirror's replaced FIG8's


def test_each_strategy_keeps_its_own_cutting(fresh_cuttings):
    greedy, exact = greedy_cutting(TREFOIL).events, exact_min_girth(TREFOIL).events
    assert greedy != exact
    assert make_cutting(TREFOIL, "greedy").events == greedy
    assert make_cutting(TREFOIL, "exact").events == exact


def test_a_callers_cutting_is_its_own(fresh_cuttings):
    first = compute_bracket(TREFOIL)
    expected = first.cutting.to_json()
    first.cutting.events.clear()
    first.cutting.source_order.reverse()
    assert compute_pkbp(TREFOIL).cutting.to_json() == expected


@pytest.mark.parametrize("d, order, error", [
    (torus_link(21), "exact", TooLarge),
    (parse_pd("X[1,2,3,4] B[1,3,2,4]"), "greedy", InvalidOrder),
    (parse_pd("X[1,2,3,4] B[1,3,2,4]"), "exact", InvalidOrder),
])
def test_a_failed_search_raises_again(monkeypatch, fresh_cuttings, d, order, error):
    calls = _counted(monkeypatch, {"greedy": "greedy_cutting", "exact": "exact_min_girth"}[order])
    for _ in range(2):
        with pytest.raises(error):
            make_cutting(d, order)
    assert len(calls) == 2 and not fresh_cuttings


def test_a_diagram_with_list_fields_computes(monkeypatch, fresh_cuttings):
    calls = _counted(monkeypatch, "greedy_cutting")
    listed = Diagram([Crossing(list(c.arcs), c.over) for c in FIG8.crossings], 1, [])
    assert compute_bracket(listed).polynomial == compute_bracket(Diagram(FIG8.crossings, 1)).polynomial
    assert len(calls) == 1  # equal values, one search
    tangle = parse_pd("X[1,2,3,4]o1 B[1,2,3,4]")
    listed = Diagram(list(tangle.crossings), 0, list(tangle.boundary_arcs))
    assert expand_tangle(listed).coeffs == expand_tangle(tangle).coeffs

