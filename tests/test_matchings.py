import pytest

from skeinscan.matchings import (
    Basis, OddBoundary, SizeMismatch, catalan, format_matching, glue_loop_count,
    is_noncrossing, noncrossing_matchings,
)


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
