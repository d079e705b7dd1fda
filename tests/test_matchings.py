import itertools
import random

import pytest

from gluing import SizeMismatch, glue_loop_count
from noncrossing import OddBoundary, noncrossing_matchings

from skeinscan.matchings import Basis, catalan, format_matching, is_noncrossing


def test_catalan_small_values():
    assert [catalan(m) for m in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_catalan_against_recurrence():
    # C_{m+1} = sum_i C_i C_{m-i}
    values = [catalan(m) for m in range(11)]
    for m in range(10):
        assert values[m + 1] == sum(values[i] * values[m - i] for i in range(m + 1))
    assert values[10] == 16796


def test_enumerate_degenerate_and_small():
    assert noncrossing_matchings(0) == ((),)
    assert noncrossing_matchings(2) == ((1, 0),)
    assert noncrossing_matchings(4) == ((1, 0, 3, 2), (3, 2, 1, 0))
    assert len(noncrossing_matchings(6)) == 5


def test_enumerate_rejects_odd():
    with pytest.raises(OddBoundary):
        noncrossing_matchings(3)


@pytest.mark.parametrize("g", range(0, 18, 2))
def test_enumeration_count_is_catalan(g):
    ms = noncrossing_matchings(g)
    assert len(ms) == catalan(g // 2)
    assert len(set(ms)) == len(ms)
    for m in ms:
        assert is_noncrossing(m)


def test_enumeration_order_is_lexicographic():
    for g in range(0, 12, 2):
        ms = noncrossing_matchings(g)
        assert list(ms) == sorted(ms)


def test_crossing_matching_rejected():
    assert not is_noncrossing((2, 3, 0, 1))  # chords (0,2),(1,3) interleave
    assert not is_noncrossing((0, 1, 3, 2))  # fixed point
    assert not is_noncrossing((1, 0, 3, 1))  # not an involution


def reference_is_noncrossing(pair_of):
    """The stack-based check: a fixed-point-free involution whose chords
    close in the reverse order they opened."""
    g = len(pair_of)
    for i, j in enumerate(pair_of):
        if not 0 <= j < g or j == i or pair_of[j] != i:
            return False
    stack = []
    for i in range(g):
        if pair_of[i] > i:
            stack.append(i)
        else:
            if not stack or stack[-1] != pair_of[i]:
                return False
            stack.pop()
    return True


@pytest.mark.parametrize("g", range(7))
def test_noncrossing_check_agrees_with_reference_exhaustively(g):
    seen = 0
    for pair_of in itertools.product(range(-1, g + 1), repeat=g):
        expected = reference_is_noncrossing(pair_of)
        assert is_noncrossing(pair_of) == expected, pair_of
        seen += expected
    assert seen == (catalan(g // 2) if g % 2 == 0 else 0)


def _random_noncrossing(rng, g):
    """A noncrossing matching from a random balanced opener word."""
    while True:
        word = [1] * (g // 2) + [0] * (g // 2)
        rng.shuffle(word)
        pair_of, stack = [0] * g, []
        for i, opens in enumerate(word):
            if opens:
                stack.append(i)
            elif not stack:
                break
            else:
                j = stack.pop()
                pair_of[i], pair_of[j] = j, i
        else:
            return pair_of


def test_noncrossing_check_agrees_with_reference_on_near_misses():
    # one transposition of two entries, two chords re-paired across each
    # other, a fixed point, or an entry out of range
    rng = random.Random(12)
    verdicts = set()
    for g in range(8, 21, 2):
        for _ in range(150):
            m = tuple(_random_noncrossing(rng, g))
            i, j = rng.sample(range(g), 2)
            swapped = list(m)
            swapped[i], swapped[j] = m[j], m[i]
            a, b = rng.sample([p for p in range(g) if p < m[p]], 2)
            repaired = list(m)
            repaired[a], repaired[m[b]], repaired[b], repaired[m[a]] = m[b], a, m[a], b
            fixed = list(m)
            fixed[i] = i
            out = list(m)
            out[i] = rng.choice((-1, g, m[i] + g))
            cases = {"match": m, "swap": swapped, "repair": repaired, "fixed": fixed, "out": out}
            for kind, case in cases.items():
                expected = reference_is_noncrossing(tuple(case))
                assert is_noncrossing(tuple(case)) == expected, case
                verdicts.add((kind, expected))
                fresh = Basis(g)
                if expected:
                    assert fresh.index_of(tuple(case)) == 0
                else:
                    with pytest.raises(ValueError):
                        fresh.index_of(tuple(case))
                    assert len(fresh) == 0, case
    # re-pairing two chords gives an involution that crosses, or not
    assert verdicts >= {("match", True), ("repair", True), ("repair", False), ("swap", False)}


def test_basis_interns_a_copy_and_rejects_a_crossing_matching():
    # the intern table keys a matching by value, whatever tuple the caller
    # passed, and a crossing matching leaves it unchanged
    m = noncrossing_matchings(10)[17]
    assert is_noncrossing(m)
    b = Basis(10)
    b.index_of(tuple(list(m)))
    assert b.matching(0) == m
    with pytest.raises(ValueError):
        b.index_of((2, 3, 0, 1, 5, 4, 7, 6, 9, 8))
    assert len(b) == 1


def test_basis_rejects_a_matching_of_another_length():
    # a noncrossing matching on 2 points is no matching on 10
    b = Basis(10)
    for m in ((1, 0), (), noncrossing_matchings(12)[3]):
        with pytest.raises(ValueError):
            b.index_of(m)
    assert len(b) == 0


def test_basis_interning():
    # ids are issued in order of first sight, here the reverse of the
    # canonical order, and asking again returns the same id
    b = Basis(6)
    assert len(b) == 0
    ms = noncrossing_matchings(6)[::-1]
    for i, m in enumerate(ms):
        assert b.index_of(m) == i
    assert len(b) == 5
    for i, m in enumerate(ms):
        assert b.index_of(m) == i
        assert b.matching(i) == m
    assert len(b) == 5


def test_glue_self_gives_max_loops():
    for g in range(0, 10, 2):
        for m in noncrossing_matchings(g):
            assert glue_loop_count(m, m) == g // 2


def test_glue_hand_traced():
    # 0 -> 1 -> 2 -> 3 -> 0 alternating the two involutions: one loop
    assert glue_loop_count((1, 0, 3, 2), (3, 2, 1, 0)) == 1


def test_glue_empty():
    assert glue_loop_count((), ()) == 0


def test_glue_bounds_and_symmetry():
    for g in (4, 6, 8):
        ms = noncrossing_matchings(g)
        for a in ms:
            for b in ms:
                loops = glue_loop_count(a, b)
                assert 1 <= loops <= g // 2
                assert loops == glue_loop_count(b, a)
                assert (loops == g // 2) == (a == b)


def test_glue_size_mismatch():
    with pytest.raises(SizeMismatch):
        glue_loop_count((1, 0), (1, 0, 3, 2))


def test_format_matching():
    assert format_matching((1, 0, 3, 2)) == "(0 1)(2 3)"
    assert format_matching((3, 2, 1, 0)) == "(0 3)(1 2)"
    assert format_matching(()) == "()"
