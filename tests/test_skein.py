import hashlib
import itertools
import random

import pytest
from grading import span_and_grade
from hypothesis import given, settings, strategies as st
from noncrossing import noncrossing_matchings

import skeinscan.cutorder as cutorder
import skeinscan.matchings as matchings
import skeinscan.skein as skein
from skeinscan.construct import braid_closure
from skeinscan.cutorder import greedy_cutting
from skeinscan.engine import fold_cutting, step_end
from skeinscan.laurent import DELTA, DELTA_PLUS, LaurentPoly, encode_slots, slot_mass, slot_values, widened_slots
from skeinscan.matchings import basis, catalan, is_noncrossing
from skeinscan.skein import (
    BRACKET, PKBP, Birth, Cap, Cross, FrontierTooSmall, InvariantViolation,
    SkeinState,
)


def fold_events(mode, events):
    state = SkeinState.initial(mode)
    for ev in events:
        state = state.apply(ev)
    return state


def coeffs_of(state):
    return {m: p for m, p in state.items()}


def test_initial_state():
    for mode in (BRACKET, PKBP):
        s = SkeinState.initial(mode)
        assert s.g == 0
        assert coeffs_of(s) == {(): LaurentPoly.one()}


def test_birth_inserts_adjacent_pair():
    s = SkeinState.initial(BRACKET).birth(0)
    assert s.g == 2
    assert coeffs_of(s) == {(1, 0): LaurentPoly.one()}


def test_double_birth_at_zero_nests():
    s = SkeinState.initial(BRACKET).birth(0).birth(0)
    assert s.g == 4
    assert coeffs_of(s) == {(1, 0, 3, 2): LaurentPoly.one()}


def test_birth_never_touches_coefficients():
    s = SkeinState(BRACKET, 2, {basis(2).index_of((1, 0)): LaurentPoly({3: 7})})
    s2 = s.birth(1)
    assert list(s2.coeffs.values()) == [LaurentPoly({3: 7})]


def test_cap_closes_loop_with_loop_value():
    s = SkeinState.initial(BRACKET).birth(0).cap(0)
    assert s.g == 0
    assert coeffs_of(s) == {(): DELTA}


def test_cap_positive_mode():
    s = SkeinState.initial(PKBP).birth(0).cap(0)
    assert coeffs_of(s) == {(): DELTA_PLUS}


def test_cap_reconnects_partners():
    # (0 1)(2 3) capped at position 1 joins the partners 0 and 3
    idx = basis(4).index_of((1, 0, 3, 2))
    s = SkeinState(BRACKET, 4, {idx: LaurentPoly.one()})
    assert SkeinState(BRACKET, 4, {idx: LaurentPoly.one()}).g == 4
    s2 = s.cap(1)
    assert coeffs_of(s2) == {(1, 0): LaurentPoly.one()}


def test_cap_wraps_seam():
    # pair (3, 0) capped across the seam
    s = SkeinState.initial(BRACKET).birth(0).birth(1)  # (0 3)(1 2)
    assert coeffs_of(s) == {(3, 2, 1, 0): LaurentPoly.one()}
    s2 = s.cap(3)
    assert s2.g == 2
    assert coeffs_of(s2) == {(1, 0): DELTA}


def test_cap_empty_frontier():
    with pytest.raises(FrontierTooSmall):
        SkeinState.initial(BRACKET).cap(0)


def test_absorb_outside_piece_is_typed():
    s = fold_events(BRACKET, [Cross(0, 0, True), Birth(0)])  # g = 6
    for absorb in (-1, 5):
        with pytest.raises(FrontierTooSmall):
            s.cross(Cross(0, absorb, True))


def test_insertion_outside_gaps_is_typed():
    # a piece absorbing nothing goes into one of the gaps 0..g; it is not
    # wrapped mod g
    s = SkeinState.initial(BRACKET).cross(Cross(0, 0, True))  # g = 4
    assert s.cross(Cross(4, 0, True)).g == 8
    for at in (-1, 5):
        with pytest.raises(FrontierTooSmall):
            s.cross(Cross(at, 0, True))
        with pytest.raises(FrontierTooSmall):
            s.birth(at)


def test_single_crossing_expansion():
    s = SkeinState.initial(BRACKET).cross(Cross(0, 0, True))
    assert s.g == 4
    got = coeffs_of(s)
    assert got == {
        (3, 2, 1, 0): LaurentPoly({1: 1}),
        (1, 0, 3, 2): LaurentPoly({-1: 1}),
    }


def test_single_crossing_other_flag_swaps_weights():
    s = SkeinState.initial(BRACKET).cross(Cross(0, 0, False))
    got = coeffs_of(s)
    assert got == {
        (3, 2, 1, 0): LaurentPoly({-1: 1}),
        (1, 0, 3, 2): LaurentPoly({1: 1}),
    }


def test_kink_gives_minus_a_cubed():
    # close a single crossing into a one-crossing unknot diagram: the raw
    # result is -A^3 times the loop value
    s = fold_events(BRACKET, [Cross(0, 0, False), Cap(0), Cap(0)])
    assert coeffs_of(s) == {(): LaurentPoly({5: 1, 1: 1})}  # -A^3 * delta
    s = fold_events(BRACKET, [Cross(0, 0, True), Cap(0), Cap(0)])
    assert coeffs_of(s) == {(): LaurentPoly({-5: 1, -1: 1})}  # -A^-3 * delta


def test_two_opposite_crossings_cancel_to_identity():
    s = fold_events(BRACKET, [Cross(0, 0, True), Cross(2, 2, True, 1)])
    assert coeffs_of(s) == {(3, 2, 1, 0): LaurentPoly.one()}


def test_cross_absorb_all_four():
    # one crossing out, a second absorbing all four points closes the diagram;
    # opposite flags stack the crossings into a clasp, equal flags cancel in
    # the second-Reidemeister pattern
    clasp = fold_events(BRACKET, [Cross(0, 0, False), Cross(0, 4, True, 1)])
    assert clasp.g == 0
    assert dict(clasp.items())[()].exact_div(DELTA) == LaurentPoly({4: -1, -4: -1})
    undone = fold_events(BRACKET, [Cross(0, 0, False), Cross(0, 4, False, 1)])
    assert dict(undone.items())[()].exact_div(DELTA) == DELTA  # a two-component unlink


def test_rotation_roundtrip():
    s = fold_events(BRACKET, [Cross(0, 0, True), Cross(2, 1, True, 1)])
    for r in range(s.g):
        assert s.rotated(r).rotated((s.g - r) % s.g) == s


def test_rotation_matches_its_definition():
    # a distinct coefficient per matching, so the test sees where each goes
    for g in range(2, 11, 2):
        ms = noncrossing_matchings(g)
        coeff = {m: LaurentPoly({4 * i: i + 1}) for i, m in enumerate(ms)}
        s = SkeinState(BRACKET, g, {basis(g).index_of(m): p for m, p in coeff.items()})
        for r in range(g):
            rotated = {tuple((mu[(i + r) % g] - r) % g for i in range(g)): p for mu, p in coeff.items()}
            assert coeffs_of(s.rotated(r)) == rotated


def test_dump_lines_canonical_order():
    s = SkeinState.initial(BRACKET).cross(Cross(0, 0, True))
    lines = s.dump_lines()
    assert lines == ["(0 1)(2 3) : A^-1", "(0 3)(1 2) : A"]


def _random_events(rng, steps):
    events = []
    g = 0
    crossings = 0
    for _ in range(steps):
        choices = ["birth"]
        if g >= 2:
            choices += ["cap"] * 2
        if g <= 8:
            choices += ["cross"] * 2
        kind = rng.choice(choices)
        if kind == "birth":
            events.append(Birth(rng.randrange(g + 1)))
            g += 2
        elif kind == "cap":
            events.append(Cap(rng.randrange(g)))
            g -= 2
        else:
            k = rng.randrange(0, min(4, g) + 1)
            at = rng.randrange(g) if g and k > 0 else (rng.randrange(g + 1))
            events.append(Cross(at, k, rng.random() < 0.5, crossings))
            crossings += 1
            g += 4 - 2 * k
    return events, crossings


@pytest.mark.parametrize("seed", range(6))
def test_random_event_sequences_keep_invariants(seed):
    rng = random.Random(seed)
    events, crossings = _random_events(rng, 24)
    for mode in (BRACKET, PKBP):
        state = SkeinState.initial(mode)
        n = 0
        for ev in events:
            state = state.apply(ev)
            if isinstance(ev, Cross):
                n += 1
            assert state.size() <= catalan(state.g // 2)
            for m, p in state.items():
                assert is_noncrossing(m)
                if not p.is_zero():
                    span, grade = span_and_grade(p)
                    assert grade is not None
                    assert span % 4 == 0
                    if mode == PKBP:
                        assert all(c > 0 for _, c in p)


def _linear_image(state, ev):
    """ev applied to the unit state of each matching of state, combined with
    state's coefficients in LaurentPoly arithmetic."""
    out = {}
    for idx, poly in state.coeffs.items():
        for m, p in SkeinState(state.mode, state.g, {idx: LaurentPoly.one()}).apply(ev).items():
            out[m] = out.get(m, LaurentPoly.zero()) + poly * p
    return {m: p for m, p in out.items() if p}


def _mass(state):
    return sum(abs(c) for p in state.coeffs.values() for _, c in p)


# the event under test: its kind, the points it absorbs, and whether its run
# wraps the seam between the last frontier position and position 0
EVENT_CASES = [("birth", 0, False), ("cap", 2, False), ("cap", 2, True),
               *(("cross", k, False) for k in range(5)), *(("cross", k, True) for k in range(2, 5))]


@pytest.mark.parametrize("kind, k, wrap", EVENT_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_event_matches_linear_combination_of_unit_states(kind, k, wrap, data):
    # a fold state's matchings, whose exponent residues differ from matching
    # to matching, with random coefficients of the same residues: both signs,
    # and values beyond 64 bits
    mode = data.draw(st.sampled_from([BRACKET, PKBP]))
    events, _ = _random_events(random.Random(data.draw(st.integers(0, 2**16))), data.draw(st.integers(0, 6)))
    state = fold_events(mode, events)
    while state.g < k:
        state = state.birth(0)
    values = st.lists(st.integers(-2**80, 2**80) | st.integers(-9, 9), min_size=1, max_size=4).filter(any)
    coeffs = {}
    for idx, poly in state.coeffs.items():
        r = poly.min_exp() + 4 * data.draw(st.integers(-3, 3))
        coeffs[idx] = LaurentPoly({r + 4 * i: c for i, c in enumerate(data.draw(values))})
    state = SkeinState(mode, state.g, coeffs)
    g = state.g
    if kind == "birth":
        ev = Birth(data.draw(st.integers(0, g)))
    else:
        at = data.draw(st.integers(g - k + 1, g - 1) if wrap else st.integers(0, g - k))
        ev = Cap(at) if kind == "cap" else Cross(at, k, data.draw(st.booleans()))
    out = state.apply(ev)
    assert out.mixed == 0
    assert dict(out.items()) == _linear_image(state, ev)
    assert _mass(out) <= out.mass < 2 ** (out.b - 2)


def test_event_that_must_widen_the_slots_stays_exact():
    # 47-bit coefficients fit 64-bit slots with 15 bits to spare; crossings
    # absorbing two points of a frontier of 4 at most quadruple the mass,
    # until one event must widen the slots before it runs
    state = SkeinState.initial(PKBP).cross(Cross(0, 0, True))
    state = SkeinState(PKBP, 4, {idx: p.scaled(2**45 + 7) for idx, p in state.coeffs.items()})
    assert state.b == 64
    for step in range(20):
        ev = Cross(step % 4, 2, step % 3 == 0)
        out = state.apply(ev)
        assert dict(out.items()) == _linear_image(state, ev)
        assert _mass(out) <= out.mass < 2 ** (out.b - 2)
        if out.b > state.b:
            break
        state = out
    assert out.b == 128


@pytest.mark.parametrize("b", [64, 128])
def test_slot_mass_without_decoding_matches_the_slots(b):
    # signed slots with zeros and negative top slots among them, and a total
    # below 2^(b-2), as whenever a state re-measures its mass
    rng = random.Random(b)
    edge = 2 ** (b - 2) - 1
    cases = [[0], [encode_slots([edge], b)], [encode_slots([0, 0, -edge], b)],
             [encode_slots([edge // 2, 0, -(edge // 2)], b), encode_slots([-1], b)]]
    for _ in range(300):
        bits = rng.randrange(1, b - 8)  # at most 40 values below 2^bits each
        Ps = []
        for _ in range(rng.randrange(1, 6)):
            vals = [0 if rng.random() < 0.3 else rng.randrange(-2 ** bits + 1, 2 ** bits)
                    for _ in range(rng.randrange(7))]
            vals.append(rng.choice((-1, 1)) * rng.randrange(1, 2 ** bits))
            Ps.append(encode_slots(vals, b))
        cases.append(Ps)
    for Ps in cases:
        assert slot_mass(Ps, b) == sum(abs(c) for P in Ps for c in slot_values(P, b)), Ps
    assert any(P < 0 for Ps in cases for P in Ps)


@pytest.mark.parametrize("wide", [128, 192])
def test_widening_repacks_like_decoding(wide):
    # signed 64-bit slots, zeros and extreme values among them, repacked
    # without decoding must equal the decode-and-encode of the same slots
    rng = random.Random(wide)
    edge = 2 ** 63 - 1
    cases = [encode_slots(vals, 64) for vals in ([edge], [-edge], [0, 0, -edge], [1, -1], [-1])]
    for _ in range(300):
        bits = rng.randrange(1, 63)
        vals = [0 if rng.random() < 0.3 else rng.randrange(-2 ** bits + 1, 2 ** bits) for _ in range(rng.randrange(40))]
        vals.append(rng.choice((-1, 1)) * rng.randrange(1, 2 ** bits))
        cases.append(encode_slots(vals, 64))
    for P in cases:
        assert widened_slots(P, 64, wide) == encode_slots(slot_values(P, 64), wide), P
    assert any(P < 0 for P in cases)


def test_state_refuses_a_coefficient_of_mixed_residues():
    with pytest.raises(ValueError, match="mixes exponent residues"):
        SkeinState(BRACKET, 0, {basis(0).index_of(()): LaurentPoly({0: 1, 2: 1})})


def test_nonpositive_counts_coefficients_with_a_negative_term():
    # one mask, sized by the widest coefficient, reads every slot of the
    # narrower ones too: a negative low slot borrows from the slot above
    ids = [basis(6).index_of(m) for m in noncrossing_matchings(6)]
    wide = LaurentPoly({4 * i: 3 ** i for i in range(40)})
    polys = [wide, LaurentPoly({0: -1, 4: 2}), LaurentPoly({1: 5, 5: -1, 9: 7}),
             LaurentPoly({-2: -4}), LaurentPoly({3: 1, 11: 1})]
    state = SkeinState(PKBP, 6, dict(zip(ids, polys)))
    assert state.nonpositive() == 3
    assert SkeinState(PKBP, 6, {ids[0]: wide}).nonpositive() == 0
    assert SkeinState(PKBP, 0, {}).nonpositive() == 0


@pytest.mark.parametrize("s", range(4, 8))
def test_transition_tables_cold_warm_and_cross_mode_agree(s):
    # T(s, s+1): girth 2s, every fold step goes through the tables
    d = braid_closure(list(range(1, s)) * (s + 1), s)
    cutting = greedy_cutting(d)
    for mode, other in ((BRACKET, PKBP), (PKBP, BRACKET)):
        skein._TABLES.clear()
        cold = fold_cutting(d, cutting, mode)
        warm = fold_cutting(d, cutting, mode)
        skein._TABLES.clear()
        fold_cutting(d, cutting, other)
        shared = fold_cutting(d, cutting, mode)
        assert all(check["ok"] for check in cold[1].values())
        assert warm == cold
        assert shared == cold


def test_failed_surgery_check_leaves_no_table_entry(monkeypatch, fresh_ids):
    # every event's outputs land on a frontier with nothing interned yet, so
    # each output misses the intern table and meets the patched check
    state = SkeinState.initial(BRACKET).cross(Cross(0, 0, True))
    events = (Cross(1, 1, True), Birth(1), Cap(1))
    monkeypatch.setattr(skein, "is_noncrossing", lambda m: False)
    for ev in events:
        with pytest.raises(InvariantViolation):
            state.apply(ev)
    monkeypatch.undo()
    assert all(slot == -1 for key, t in skein._TABLES.items() if key[0] == 4 for slot in t)
    for ev in events:
        after = state.apply(ev)
        skein._TABLES.clear()
        assert after == state.apply(ev)


def test_noncrossing_check_runs_once_per_interned_matching(monkeypatch, fresh_ids):
    # an output found in the intern table passed the check when it was
    # interned; only the misses are checked, and each miss is interned
    calls = []

    def counted(m):
        calls.append(m)
        return is_noncrossing(m)

    monkeypatch.setattr(skein, "is_noncrossing", counted)
    d = braid_closure(list(range(1, 6)) * 7, 6)
    cutting = greedy_cutting(d)
    _, report, _ = fold_cutting(d, cutting, BRACKET)
    assert all(check["ok"] for check in report.values())
    assert 0 < len(calls) <= sum(len(basis(g)) for g in range(0, cutting.girth + 1, 2))


@pytest.fixture
def fresh_ids():
    """Empty intern tables; transition tables hold interned ids, so both are
    cleared together."""
    skein._TABLES.clear()
    matchings.basis.cache_clear()
    yield
    skein._TABLES.clear()
    matchings.basis.cache_clear()


@pytest.mark.parametrize("s", range(4, 7))
def test_fold_interns_without_enumerating(fresh_ids, s):
    # the package has no enumeration to call; the tests keep their own
    assert not hasattr(matchings, "noncrossing_matchings")
    d = braid_closure(list(range(1, s)) * (s + 1), s)
    cutting = greedy_cutting(d)
    state, report, peak = fold_cutting(d, cutting, BRACKET)
    assert all(check["ok"] for check in report.values())
    assert state.g == 0 and peak == catalan(s)
    for g in range(0, cutting.girth + 1, 2):
        assert len(basis(g)) <= catalan(g // 2)


def test_dump_lines_sorted_when_ids_issued_in_reverse(fresh_ids):
    for g in (4, 6):
        for m in reversed(noncrossing_matchings(g)):
            basis(g).index_of(m)
    s = SkeinState.initial(BRACKET).cross(Cross(0, 0, True))
    assert sorted(s.coeffs) == [basis(4).index_of((3, 2, 1, 0)), basis(4).index_of((1, 0, 3, 2))]
    assert s.dump_lines() == ["(0 1)(2 3) : A^-1", "(0 3)(1 2) : A"]
    s6 = s.cross(Cross(1, 1, False))
    ms = [m for m, _ in s6.items()]
    assert len(ms) > 2 and ms == sorted(ms)
    assert [basis(6).matching(idx) for idx in sorted(s6.coeffs)] == sorted(ms, reverse=True)


def _table_entries(max_g):
    """Every transition-table entry of every event signature on frontiers of
    at most max_g points, as text lines: the signature (g, at, k, and the
    smoothing class or "arc"), the input matching, then per smoothing the
    output matching and its closed loops."""
    pieces = [("arc", skein._ARC)] + [(cls, skein._CROSSINGS[cls]) for cls in (0, 1)]
    for g in range(0, max_g + 1, 2):
        b = basis(g)
        for name, smoothings in pieces:
            ends = len(smoothings[0][0])
            ks = (0, 2) if name == "arc" else range(min(ends, g) + 1)
            for k in ks:
                if k > g:
                    continue
                b2 = basis(g + ends - 2 * k)
                for at in range(g + 1 if k == 0 else g - k + 1):
                    for mu in noncrossing_matchings(g):
                        idx = b.index_of(mu)
                        state = SkeinState(BRACKET, g, {idx: LaurentPoly.one()})
                        state._glue(at, k, smoothings)
                        table = skein._TABLES[(g, at, k, smoothings)]
                        width = len(smoothings)
                        outs = [(b2.matching(p >> 3), p & 7) for p in table[width * idx:width * idx + width]]
                        yield f"{g} {at} {k} {name} {mu} -> {outs}"


def test_table_entries_digest(fresh_ids):
    # pins every entry the surgery builds for g <= 10, whatever builds it
    digest = hashlib.sha256()
    lines = 0
    for line in _table_entries(10):
        digest.update(line.encode() + b"\n")
        lines += 1
    assert lines == 6229
    assert digest.hexdigest() == "dd23ca0f1aab62c3dbe175ac8034cf0072dc1d7198366b2a66e7bb831334c523"


def _walk_events(d, rng):
    """The events of a seeded random cutting of d: each step takes one of
    the legal moves of the frontier simulator, with its caps."""
    scan = cutorder._Scan(d)
    while moves := [(ci, mv) for ci, mvs in scan.frontier_moves().items() for mv in mvs] + \
            cutorder._fresh_moves(scan, first_only=False):
        ci, mv = rng.choice(moves)
        scan.apply_cross(ci, *mv)
    return scan.events


def _readings(state):
    """Everything a state answers about its coefficients, but the span
    bound, which also reads the zero low slots that cancellation keeps."""
    return (state.g, state.coeffs, state.items(), state.top_exponent(), state.exponent_ranges(),
            state.nonpositive())


def _rebased(state):
    """The same packed values with the state-wide offset moved into each."""
    packed = {idx: (state.offset + r, P) for idx, (r, P) in state._packed.items()}
    return state._of(state.g, state.b, state.mass, packed, 0)


# T(4,5) and braid_batch's twist-region closure of 24 crossings on 5 strands
WALK_DIAGRAMS = [braid_closure([1, 2, 3] * 5, 4),
                 braid_closure([4, 4, 4, 4, 4, 4, -2, -2, -2, 2, 4, 4, -3, 2, 2, 2, -3, -3, -3, -3, -4, 2, 1, 1], 5)]


@pytest.mark.parametrize("mode", [BRACKET, PKBP])
@pytest.mark.parametrize("d", WALK_DIAGRAMS, ids=["T45", "braid"])
def test_state_offset_reads_like_a_fresh_state(mode, d):
    # the identity smoothing moves the state-wide offset, not the packed
    # offsets; every reader must add it back.  Nothing cancels in the
    # positive variant, so there its span bound matches a fresh packing too
    shifted = 0
    for seed in range(3):
        rng = random.Random(seed)
        state = SkeinState.initial(mode)
        for ev in _walk_events(d, rng):
            state = state.apply(ev)
            if not state.offset or not state.size():
                continue
            shifted += 1
            r = rng.randrange(max(state.g, 1))
            fresh = SkeinState(mode, state.g, state.coeffs)
            assert fresh.offset == 0 and fresh.b == state.b
            widened = [(state._widened(growth), fresh._widened(growth)) for growth in (1, 2 ** 70)]
            assert [(got.b, got.mass) for got, _ in widened] == [(ref.b, ref.mass) for _, ref in widened]
            for got, ref in ((state, fresh), (state.rotated(r), fresh.rotated(r)), *widened):
                assert (got.b, _readings(got)) == (ref.b, _readings(ref))
                assert got == ref
                assert got.span_bound() == _rebased(got).span_bound()
                if mode == PKBP:
                    assert got.span_bound() == ref.span_bound()
    assert shifted > 30


def test_an_event_on_a_complete_table_reads_no_ids(fresh_ids):
    class Unread:
        def __iter__(self):
            raise AssertionError("the ids of a complete table were read")

    smoothings = skein._CROSSINGS[0]
    ids = [basis(4).index_of(m) for m in noncrossing_matchings(4)]
    table = skein._transition_table(4, 1, 2, smoothings, ids[:1])
    assert table.unbuilt == 1
    assert skein._transition_table(4, 1, 2, smoothings, ids) is table
    assert table.unbuilt == 0 and min(table) >= 0
    assert skein._transition_table(4, 1, 2, smoothings, Unread()) is table
    # the event itself reads the complete table, and the cup-cap on the
    # matching whose absorbed points are partners keeps it, closing a loop
    kept = basis(4).index_of((3, 2, 1, 0))
    assert table[2 * kept + 1 - table.ident] == kept << 3 | 1
    state = SkeinState.initial(BRACKET).cross(Cross(0, 0, True))
    assert dict(state.cross(Cross(1, 2, True)).items()) == _linear_image(state, Cross(1, 2, True))


def _crossing_weights(cls):
    """A crossing of class cls absorbing 2 points as identity weight and
    cup-cap weight, read from its pairings."""
    weights = dict(skein._CROSSINGS[cls])
    return LaurentPoly.monomial(1, weights[3, 2, 1, 0]), LaurentPoly.monomial(1, weights[1, 0, 3, 2])


@pytest.mark.parametrize("mode", [BRACKET, PKBP])
def test_run_weight_is_the_product_of_its_crossings(mode):
    # each crossing is x_i + y_i e with e^2 = delta e; the composed run must
    # be their product, here expanded one crossing at a time
    delta = skein.LOOP_VALUES[mode]
    for length in range(1, 7):
        for classes in itertools.product((0, 1), repeat=length):
            x, y = LaurentPoly.one(), LaurentPoly.zero()
            for cls in classes:
                a, b = _crossing_weights(cls)
                x, y = x * a, x * b + y * a + delta * y * b
            leaves = tuple((a.min_exp(), b.min_exp()) for a, b in map(_crossing_weights, classes))
            wx, r, Y, width, mass, mixed = skein._run_weight(leaves, mode == BRACKET, {})
            assert LaurentPoly.monomial(1, wx) == x
            assert LaurentPoly({r + 4 * i: c for i, c in enumerate(slot_values(Y, width))}) == y, classes
            assert (mass, mixed) == (sum(abs(c) for _, c in y), 0)


@pytest.mark.parametrize("mode", [BRACKET, PKBP])
def test_runs_fold_like_their_events(mode):
    # 60 seeded braid closures, each under its greedy cutting and a random
    # walk; every fold step must leave the state that applying its events
    # one at a time leaves, values and size alike.  The walks reach runs
    # whose first crossing wraps the seam, and the braids R2 bigons, whose
    # run weighs the cup-cap 0 in bracket mode; in pkbp nothing cancels
    rng = random.Random(26)
    wrapped = cancelled = 0
    for _ in range(60):
        strands = rng.randint(3, 6)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(6, 30))]
        d = braid_closure(word, strands)
        for events in (greedy_cutting(d).events, _walk_events(d, rng)):
            by_step = by_event = SkeinState.initial(mode)
            i = 0
            while i < len(events):
                j = step_end(by_step, events, i)
                if j > i + 1:
                    g = by_step.g
                    wrapped += events[i].at % g + 2 > g
                    flags = [ev.over_first for ev in events[i:j]]
                    leaves = tuple((a.min_exp(), b.min_exp()) for a, b in
                                   (_crossing_weights(skein.a_smoothing_class(2, f)) for f in flags))
                    cancelled += skein._run_weight(leaves, mode == BRACKET, {})[2] == 0
                by_step = by_step.apply(events[i] if j == i + 1 else tuple(events[i:j]))
                for ev in events[i:j]:
                    by_event = by_event.apply(ev)
                assert by_step == by_event
                assert by_step.size() == by_event.size()
                i = j
    assert wrapped >= 5
    assert cancelled >= 5 if mode == BRACKET else cancelled == 0


def test_peak_is_taken_over_fold_steps():
    # the greedy cutting glues this closure's R2 bigon (sigma_1 sigma_1^-1,
    # crossings 2 and 3) as one run on its peak frontier of 6 points.  One
    # crossing at a time the state holds 5 matchings between the two; the
    # run's weight cancels the cup-cap in bracket mode, so no state built
    # holds more than 4.  In pkbp nothing cancels and the peak stays 5
    d = braid_closure([1, 2, 1, -1, 2, 1, -2], 3)
    cutting = greedy_cutting(d)
    assert step_end(SkeinState.initial(BRACKET).apply(cutting.events[0]).apply(cutting.events[1]),
                    cutting.events, 2) == 4
    for mode, peak in ((BRACKET, 4), (PKBP, 5)):
        state, sizes = SkeinState.initial(mode), []
        for ev in cutting.events:
            state = state.apply(ev)
            sizes.append(state.size())
        assert max(sizes) == 5
        _, report, folded_peak = fold_cutting(d, cutting, mode)
        assert folded_peak == report["storage"]["peak_matchings"] == peak
