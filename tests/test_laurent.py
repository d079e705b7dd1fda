import pytest
from grading import span_and_grade
from hypothesis import given, strategies as st

from skeinscan.laurent import (
    DELTA, DELTA_PLUS, ONE,
    EmptyPolynomial, LaurentPoly, NotDivisible,
)


def P(terms):
    return LaurentPoly(terms)


def test_difference_of_squares():
    assert (P({1: 1}) + P({-1: 1})) * (P({1: 1}) + P({-1: -1})) == P({2: 1, -2: -1})


def test_delta_squared():
    assert DELTA * DELTA == P({4: 1, 0: 2, -4: 1})


def test_delta_plus_differs_only_in_sign():
    assert DELTA_PLUS == P({2: 1, -2: 1})
    assert DELTA == P({2: -1, -2: -1})


def test_shift_and_scale():
    p = P({1: 1, -1: 1})
    assert p.shifted(2) == P({3: 1, 1: 1})
    assert p.scaled(-3) == P({1: -3, -1: -3})
    assert p.scaled(0).is_zero()


def test_exact_div_delta_squared_by_delta():
    assert (DELTA * DELTA).exact_div(DELTA) == DELTA


def test_exact_div_by_one_is_identity():
    p = P({5: -1, -3: -1, -7: 1})
    assert p.exact_div(ONE) == p


def test_exact_div_monomials():
    assert P({1: 1}).exact_div(P({2: 1})) == P({-1: 1})


def test_exact_div_failure():
    with pytest.raises(NotDivisible):
        P({1: 1, 0: 1}).exact_div(P({1: 1, 0: 2}))
    with pytest.raises(NotDivisible):
        P({2: 1}).exact_div(DELTA)


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(LaurentPoly.zero())


def test_span_and_grade_examples():
    # the tests' helper, which the span and grading checks elsewhere rely on
    assert span_and_grade(P({4: -1, -4: -1})) == (8, 0)
    # bracket of one trefoil chirality; the polynomial itself is pinned
    # against the state-sum oracle in test_oracle
    assert span_and_grade(P({5: -1, -3: -1, -7: 1})) == (12, 1)
    assert span_and_grade(P({1: 1, 2: 1})) == (1, None)


def test_span_and_grade_rejects_zero():
    with pytest.raises(EmptyPolynomial):
        span_and_grade(LaurentPoly.zero())


def test_text_rendering():
    assert str(P({5: -1, -3: -1, -7: 1})) == "-A^5 - A^-3 + A^-7"
    assert str(ONE) == "1"
    assert str(LaurentPoly.zero()) == "0"
    assert str(P({1: 1})) == "A"
    assert str(P({4: 1, 0: 2, -4: 1})) == "A^4 + 2 + A^-4"
    assert str(P({3: -2})) == "-2*A^3"


def test_json_roundtrip():
    p = P({5: -1, -3: -1, -7: 123456789012345678901234567890})
    blob = p.to_json()
    assert blob == {"5": "-1", "-3": "-1", "-7": "123456789012345678901234567890"}
    assert LaurentPoly.from_json(blob) == p


def test_mirror():
    assert P({5: -1, -3: 2}).mirror() == P({-5: -1, 3: 2})


small_polys = st.dictionaries(
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-40, max_value=40),
    max_size=6,
).map(LaurentPoly)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * ONE == p
    assert p + LaurentPoly.zero() == p


@given(small_polys, small_polys)
def test_exact_div_roundtrip(p, d):
    if d.is_zero():
        return
    assert (p * d).exact_div(d) == p


@given(small_polys)
def test_big_coefficients_stay_exact(p):
    huge = p.scaled(10**30)
    assert all(c % 10**30 == 0 for _, c in huge)
    if not p.is_zero():
        assert huge.exact_div(LaurentPoly.monomial(10**30)) == p
