"""The verification suites must detect deliberately broken builds: flipping
the loop value's sign, the smoothing weight assignment, the state-size cap
or the component count each has to turn at least one suite red, and so must
a transition table that answers for the wrong smoothing class or holds a
corrupted entry, a corrupted run weight, a smoothing weight that breaks the mod-4 grading, and
coefficient slots that are too narrow for their values.  A window rule that
builds a crossing matching must stop the fold before any table holds it,
also when every sound output is already interned, and so must a smoothing
wrongly taken for the identity."""

import pytest
from noncrossing import noncrossing_matchings

import skeinscan.cli as cli
import skeinscan.cutorder as cutorder
import skeinscan.engine as engine
import skeinscan.skein as skein
import skeinscan.verify as verify
from skeinscan.construct import braid_closure, torus_link
from skeinscan.cutorder import greedy_cutting
from skeinscan.engine import compute_bracket, fold_cutting
from skeinscan.laurent import DELTA_PLUS
from skeinscan.matchings import basis
from skeinscan.verify import run_verify


def test_baseline_verify_passes():
    report = run_verify(max_n=6)
    assert report["ok"]


def test_flipped_loop_value_detected(monkeypatch):
    monkeypatch.setitem(skein.LOOP_VALUES, skein.BRACKET, DELTA_PLUS)
    skein._loop_power.cache_clear()
    try:
        report = run_verify(max_n=6)
    finally:
        skein._loop_power.cache_clear()
    assert not report["ok"]
    assert not report["suites"]["oracle_equivalence"]["ok"]


def test_flipped_smoothing_convention_detected(monkeypatch):
    original = skein.a_smoothing_class
    monkeypatch.setattr(skein, "a_smoothing_class", lambda k, f: 1 - original(k, f))
    report = run_verify(max_n=6)
    assert not report["ok"]
    assert not report["suites"]["oracle_equivalence"]["ok"]


def test_broken_state_cap_detected(monkeypatch):
    monkeypatch.setattr(engine, "catalan", lambda m: 0 if m else 1)
    report = run_verify(max_n=6)
    assert not report["ok"]
    assert not report["suites"]["invariants"]["ok"]


def test_merged_components_detected(monkeypatch):
    # one piece for every crossing undercounts the components of split
    # diagrams, which tightens the span and term bounds past what holds
    monkeypatch.setattr(engine, "crossing_pieces", lambda d: [0] * d.n)
    report = run_verify(max_n=6)
    assert not report["ok"]
    assert not report["suites"]["invariants"]["ok"]


@pytest.fixture
def fresh_tables():
    skein._TABLES.clear()
    yield skein._TABLES
    skein._TABLES.clear()


def test_flipped_smoothing_convention_detected_with_warm_tables(monkeypatch, fresh_tables):
    # warm every table the suites use under the true convention; they must
    # not answer for the flipped one, so the cache is keyed on the
    # smoothing class, not on the crossing's over_first flag
    assert run_verify(max_n=6)["ok"]
    original = skein.a_smoothing_class
    monkeypatch.setattr(skein, "a_smoothing_class", lambda k, f: 1 - original(k, f))
    report = run_verify(max_n=6)
    assert not report["ok"]
    assert not report["suites"]["oracle_equivalence"]["ok"]


def test_corrupted_table_entry_detected(fresh_tables):
    compute_bracket(braid_closure([1, 1, 1], 2))
    # the first crossing of a fold meets the empty frontier; point the
    # entry's A-smoothing at the other matching of four points
    table = next(t for key, t in fresh_tables.items() if key[0] == 0)
    table[0] ^= 1 << 3
    report = run_verify(max_n=6)
    assert not report["ok"]


def test_corrupted_window_rule_detected(monkeypatch, fresh_tables):
    # the trefoil's second crossing absorbs points 2 and 3 of (0 3)(1 2),
    # whose partners 1 and 0 lie outside the window; send them to the emitted
    # ends 3 and 2 instead of 2 and 3, so the chords (1 3)(0 2) interleave
    d = braid_closure([1, 1, 1], 2)
    cutting = greedy_cutting(d)
    assert cutting.events[1] == skein.Cross(2, 2, False, 1, cutting.events[1].rot)
    (pairing, _), _ = skein._CROSSINGS[skein.a_smoothing_class(2, False)]
    _, loops = skein._window_rule(pairing, (-1, -1))
    monkeypatch.setitem(skein._RULES, (pairing, (-1, -1)), (((0, 2), (2, 0), (1, 3), (3, 1)), loops))
    with pytest.raises(skein.InvariantViolation):
        fold_cutting(d, cutting, skein.BRACKET)
    idx = basis(4).index_of((3, 2, 1, 0))
    table = next(t for key, t in fresh_tables.items() if key[:3] == (4, 2, 2))
    assert table[2 * idx:2 * idx + 2].tolist() == [-1, -1]
    monkeypatch.undo()
    _, report, _ = fold_cutting(d, cutting, skein.BRACKET)
    assert all(check["ok"] for check in report.values())


def test_corrupted_window_rule_detected_with_every_matching_interned(monkeypatch, fresh_tables):
    # with every matching of g <= 8 interned, each sound output is found in
    # the intern table; the crossing output of the corrupted rule never is,
    # so the check still runs on it and no entry is written
    for g in range(0, 9, 2):
        for m in noncrossing_matchings(g):
            basis(g).index_of(m)
    test_corrupted_window_rule_detected(monkeypatch, fresh_tables)


def test_cup_cap_declared_identity_detected(monkeypatch, capsys, fresh_tables):
    # a crossing's identity smoothing copies the state unchanged; declaring
    # the cup-cap smoothing the identity instead must fail the per-window
    # rule check while the first table is built, before any oracle runs
    def cup_cap(smoothings, k):
        return next((j for j, (pairing, _) in enumerate(smoothings)
                     if k == 2 and pairing == (1, 0, 3, 2)), None)

    oracle_calls = []
    monkeypatch.setattr(skein, "_identity", cup_cap)
    monkeypatch.setattr(verify, "brute_force_bracket", lambda *args: oracle_calls.append(args))
    monkeypatch.setattr(verify, "brute_force_tangle_expansion", lambda *args: oracle_calls.append(args))
    assert cli.main(["verify", "--max-n", "6"]) == cli.EXIT_INTERNAL
    assert "InvariantViolation: identity smoothing (1, 0, 3, 2)" in capsys.readouterr().err
    assert oracle_calls == []


def test_mixed_residues_detected(monkeypatch):
    # an A-smoothing weighted A^3 instead of A adds coefficients whose
    # exponents differ by 2 mod 4; the sums must reach the mod-4 check as
    # mixed residues, not raise out of the fold
    for cls, ((pairing, _), other) in list(skein._CROSSINGS.items()):
        monkeypatch.setitem(skein._CROSSINGS, cls, ((pairing, 3), other))
    report = run_verify(max_n=6)
    assert not report["ok"]
    assert not report["suites"]["invariants"]["ok"]
    assert any("/mod4:" in f for f in report["suites"]["invariants"]["failures"])


def test_undersized_slots_detected(monkeypatch):
    # a widening step that keeps the state as it is never repacks, so the
    # slots stay 64 bits wide while the mass bound outgrows them; the
    # positive variant of T(2,50) overflows them within its 48-crossing run,
    # checked at its end, n=49, and the overflow sets a slot's sign bit
    monkeypatch.setattr(skein.SkeinState, "_widened", lambda state, growth: state)
    d = torus_link(50)
    _, report, _ = fold_cutting(d, greedy_cutting(d), skein.PKBP)
    assert not report["positivity"]["ok"]
    assert report["positivity"]["violations"][0].startswith("nonpositive coefficient at n=49,")


def test_corrupted_run_weight_detected(monkeypatch, fresh_runs):
    # adding 1 to the lowest slot of every run's cup-cap weight, and of
    # every part it is composed from, keeps its residues, so only the values
    # can tell; torus_2_5, torus_2_6, knot_5_2 and other corpus diagrams
    # with n <= 6 fold runs
    original = skein._run_weight

    def corrupted(leaves, negative, memo):
        x, r, Y, b, mass, mixed = original(leaves, negative, memo)
        return x, r, Y + 1, b, mass + 1, mixed

    monkeypatch.setattr(skein, "_run_weight", corrupted)
    report = run_verify(max_n=6)
    assert not report["ok"]
    assert not report["suites"]["oracle_equivalence"]["ok"]


def test_corrupted_memo_entry_detected(fresh_runs):
    # one planted entry of the process-wide run-weight memo: the bracket
    # weight of (A + A^-1 e)^2 with 1 added to its lowest slot, which keeps
    # its residues; every later run of two such crossings, and every longer
    # run composed from that half, reads it instead of composing its own
    leaves = ((1, -1), (1, -1))
    x, r, Y, b, mass, mixed = skein._run_weight(leaves, True, {})
    fresh_runs[True][leaves] = x, r, Y + 1, b, mass + 1, mixed
    report = run_verify(max_n=6)
    assert not report["ok"]
    assert not report["suites"]["oracle_equivalence"]["ok"]


def test_nonpositive_coefficient_detected(monkeypatch):
    # positivity is checked on the positive-variant folds only, so verify
    # must read their diagnostics as well as the bracket folds'
    monkeypatch.setattr(skein.SkeinState, "nonpositive", lambda state: 1)
    report = run_verify(max_n=6)
    assert not report["ok"]
    assert any("/pkbp/positivity:" in f for f in report["suites"]["invariants"]["failures"])


def test_sqrt_bound_violation_detected(monkeypatch):
    # the fold holds every closed diagram to the sqrt girth bound; a bound
    # below girth 4 must turn the invariants suite red
    monkeypatch.setattr(cutorder, "SQRT_BOUND_CONST", 0.5)
    report = run_verify(max_n=6)
    assert not report["ok"]
    assert any("/sqrt_bound:" in f for f in report["suites"]["invariants"]["failures"])
