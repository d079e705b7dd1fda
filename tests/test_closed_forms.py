"""Jones polynomials above the oracle's 22 crossings, pinned by closed forms
that share nothing with the fold: Jones's torus-knot formula and the
Temperley-Lieb expansion of the (2, n) torus link, both in plain integer
arithmetic."""

from collections import Counter

import pytest

from skeinscan.construct import braid_closure, torus_link
from skeinscan.engine import compute_jones
from skeinscan.laurent import LaurentPoly


def torus_knot_jones(p: int, q: int) -> LaurentPoly:
    """V(t) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2),
    the (p, q) torus knot (Jones, Ann. Math. 1987), in A with t = A^-4."""
    num = Counter({0: 1, p + q: 1})
    num[p + 1] -= 1
    num[q + 1] -= 1
    quot: dict[int, int] = {}  # num = quot * (1 - t^2): num_k = c_k - c_(k-2)
    for k in range(p + q - 1):
        quot[k] = num[k] + quot.get(k - 2, 0)
    assert num[p + q - 1] + quot[p + q - 3] == 0 and num[p + q] + quot[p + q - 2] == 0
    shift = (p - 1) * (q - 1) // 2
    return LaurentPoly({-4 * (k + shift): c for k, c in quot.items()})


def torus_2_link_jones(n: int) -> LaurentPoly:
    """The (2, n) torus link for even n, both strands oriented alike, so its
    writhe is n.  In the Temperley-Lieb algebra (Kauffman, Topology 1987)
    sigma^n = A^n + ((-A^-3)^n - A^n) / d * e, whose closure has the bracket
    A^n d + (A^-3n - A^n) / d.  Times (-A^3)^-n, and with
    d = -A^-2 (1 + A^4), that is
    V = -A^-2n (A^2 + A^-2) - A^(2-6n) sum_(i<n) (-A^4)^i."""
    terms = Counter({2 - 2 * n: -1, -2 - 2 * n: -1})
    for i in range(n):
        terms[2 - 6 * n + 4 * i] -= (-1) ** i
    return LaurentPoly(terms)


def test_closed_forms_at_small_n():
    # the right-handed trefoil and the positive Hopf link
    assert torus_knot_jones(2, 3) == LaurentPoly({-4: 1, -12: 1, -16: -1})
    assert torus_2_link_jones(2) == LaurentPoly({-2: -1, -10: -1})


@pytest.mark.parametrize("k", [25, 1001])
def test_torus_2_knots(k):
    # T(2,1001) folds one run of 999 crossings
    result = compute_jones(torus_link(k))
    assert result.ok
    assert result.polynomial == torus_knot_jones(2, k)


def test_torus_2_200_link():
    result = compute_jones(torus_link(200), orientation=[1, 1])
    assert result.ok and result.diagnostics["writhe"] == 200
    assert result.polynomial == torus_2_link_jones(200)


@pytest.mark.parametrize("s", range(2, 8))
def test_torus_s_s_plus_1_knots(s):
    result = compute_jones(braid_closure(list(range(1, s)) * (s + 1), s))
    assert result.ok
    assert result.polynomial == torus_knot_jones(s, s + 1)
