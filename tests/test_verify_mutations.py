"""The verification suites must detect deliberately broken builds: flipping
the loop value's sign, the smoothing weight assignment, the state-size cap
or the component count each has to turn at least one suite red, and so must
a transition table that answers for the wrong smoothing class or holds a
corrupted entry, a smoothing weight that breaks the mod-4 grading, and
coefficient slots that are too narrow for their values."""

import pytest

import skeinscan.engine as engine
import skeinscan.skein as skein
from skeinscan.construct import braid_closure, torus_link
from skeinscan.cutorder import greedy_cutting
from skeinscan.engine import compute_bracket, fold_cutting
from skeinscan.laurent import DELTA_PLUS, PackedPoly
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
    # bounds that never grow never make a coefficient repack, so it stays in
    # 64-bit slots; the positive variant of T(2,50) outgrows them at n=43,
    # and the overflow sets a slot's sign bit
    add, times_loops = PackedPoly.__add__, PackedPoly.times_loops

    def frozen_add(x, y):
        out = add(x, y)
        out.bound = min(out.bound, max(x.bound, y.bound))
        return out

    def frozen_times_loops(x, shift, loops, sign):
        out = times_loops(x, shift, loops, sign)
        out.bound = min(out.bound, x.bound)
        return out

    monkeypatch.setattr(PackedPoly, "__add__", frozen_add)
    monkeypatch.setattr(PackedPoly, "times_loops", frozen_times_loops)
    d = torus_link(50)
    _, report, _ = fold_cutting(d, greedy_cutting(d), skein.PKBP)
    assert not report["positivity"]["ok"]
