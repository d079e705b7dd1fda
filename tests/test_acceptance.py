"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria:

1. Engine bracket equals the brute-force state sum exactly on every corpus
   diagram (n <= 12, >= 50 diagrams) and tangle expansions agree for
   n <= 10, g <= 8; the whole sweep stays under five minutes.
2. Mod-4 grading: every coefficient at every fold step has one exponent
   residue; at link level the residue matches the checkerboard formula
   w + 2e mod 4 of the light-outer coloring (the dark-outer one gives the
   same residue).
3. Span bounds: per-coefficient span <= 4(n+c) - 2g at every step, positive
   mode total span <= 4(n+c), and every span a multiple of four.
4. Storage bound: peak state entries <= Catalan(girth/2) and per-coefficient
   terms <= n + c - g/2 + 1 throughout (the component count participates;
   the unknot's raw loop value already has two terms at n = 0).
5. Girth: the exact search certifies girth 4 for the standard figure-eight
   diagram; heuristic girth <= ceil((6*sqrt2 + 5*sqrt3) * sqrt(n)) corpus-wide.
6. Scaling: the (2,k) torus family stays at girth 4 with near-linear engine
   time (log-log slope < 1.3 over k in 25..200) while the naive state sum
   is refused past 22 crossings; under two minutes.
7. Invariance: identical Jones output across three diagrams each of the
   trefoil and figure-eight; mirror image conjugates A <-> A^-1; a split
   unknot multiplies the bracket by -A^2 - A^-2.
8. Determinism: two verification runs with the same seed produce identical
   reports modulo timing fields.
"""

import json
import math
import time

import pytest
from grading import span_and_grade

from skeinscan.construct import add_kink, braid_closure, torus_link
from skeinscan.cutorder import SQRT_BOUND_CONST, exact_min_girth
from skeinscan.engine import compute_bracket, compute_jones, compute_pkbp, expand_tangle
from skeinscan.laurent import DELTA
from skeinscan.matchings import catalan
from skeinscan.oracle import TooLarge, brute_force_bracket, brute_force_tangle_expansion
from skeinscan.planar import Diagram, parse_pd
from skeinscan.skein import PKBP
from skeinscan.verify import run_verify, tangle_fixtures


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def fold_results(corpus):
    out = {}
    for name, d in corpus.items():
        if d.n <= 12:
            out[name] = {
                "bracket": compute_bracket(d, order="greedy"),
                "pkbp": compute_pkbp(d, order="greedy"),
            }
    return out


def test_criterion_1_oracle_equivalence(corpus, fold_results):
    t0 = time.perf_counter()
    assert len([d for d in corpus.values() if d.n <= 12]) >= 50
    mismatches = []
    for name, res in fold_results.items():
        if res["bracket"].polynomial != brute_force_bracket(corpus[name]):
            mismatches.append(name)
        if res["pkbp"].polynomial != brute_force_bracket(corpus[name], PKBP):
            mismatches.append(name + "/positive")
    for name, d in tangle_fixtures(0).items():
        if d.n > 10 or d.g > 8:
            continue
        if expand_tangle(d).coeffs != brute_force_tangle_expansion(d):
            mismatches.append("tangle:" + name)
    elapsed = time.perf_counter() - t0
    report(
        "1 oracle-equivalence",
        not mismatches and elapsed < 300,
        f"{len(fold_results)} diagrams + tangles in {elapsed:.1f}s; mismatches: {mismatches}",
    )


@pytest.mark.xfail(reason="offline build: no machine-readable table of all prime"
                          " knots to 9 crossings is available; the corpus carries"
                          " the seven independently published entries instead",
                   strict=False)
def test_criterion_1_full_knot_table_coverage(corpus):
    # 1+1+2+3+7+21+49 = 84 prime knots through nine crossings
    counts = {3: 1, 4: 1, 5: 2, 6: 3, 7: 7, 8: 21, 9: 49}
    named = [n for n in corpus if n.startswith("knot_")]
    report("1b table-coverage", len(named) >= sum(counts.values()),
           f"{len(named)} named table knots of {sum(counts.values())}")


def test_criterion_2_mod4_grading(fold_results):
    bad = []
    for name, res in fold_results.items():
        diag = res["bracket"].diagnostics
        if not diag["mod4"]["ok"] or not diag["mod4_link"]["ok"]:
            bad.append(name)
        if span_and_grade(res["bracket"].raw_polynomial)[1] is None:
            bad.append(name + "/raw")
    report("2 mod4-grading", not bad, f"violations: {bad}")


def test_criterion_3_span_bounds(fold_results):
    bad = []
    for name, res in fold_results.items():
        for mode in ("bracket", "pkbp"):
            diag = res[mode].diagnostics
            if not diag["span"]["ok"] or not diag["total_span"]["ok"]:
                bad.append(f"{name}/{mode}")
        if not res["pkbp"].diagnostics["positivity"]["ok"]:
            bad.append(f"{name}/positivity")
    report("3 span-bounds", not bad, f"violations: {bad}")


def test_criterion_4_storage_bound(fold_results):
    bad = []
    for name, res in fold_results.items():
        for mode in ("bracket", "pkbp"):
            r = res[mode]
            if not r.diagnostics["storage"]["ok"]:
                bad.append(f"{name}/{mode}")
            if r.peak_state_size > catalan(r.girth_used // 2):
                bad.append(f"{name}/{mode}/peak")
    report("4 storage-bound", not bad, f"violations: {bad}")


def test_criterion_5_girth(corpus, fold_results):
    fig8 = parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")
    exact = exact_min_girth(fig8).girth
    bad = []
    for name, res in fold_results.items():
        n = corpus[name].n
        bound = math.ceil(SQRT_BOUND_CONST * math.sqrt(n)) if n else res["bracket"].girth_used
        if res["bracket"].girth_used > bound:
            bad.append(name)
    report("5 girth", exact == 4 and not bad,
           f"figure-eight exact girth {exact}; bound violations: {bad}")


def test_criterion_6_scaling():
    t_start = time.perf_counter()
    ks = [25, 50, 100, 200]
    times = []
    girths = []
    for k in ks:
        d = torus_link(k)
        best = min(
            _timed(lambda: compute_bracket(d, order="greedy")) for _ in range(3)
        )
        times.append(best)
        girths.append(compute_bracket(d).girth_used)
    slope = _loglog_slope(ks, times)
    try:
        brute_force_bracket(torus_link(23))
        naive_refused = False
    except TooLarge:
        naive_refused = True
    elapsed = time.perf_counter() - t_start
    ok = (
        all(g == 4 for g in girths)
        and slope < 1.3
        and naive_refused
        and times[2] < 1.0
        and elapsed < 120
    )
    report(
        "6 scaling",
        ok,
        f"girths {girths}, slope {slope:.2f}, torus(2,100) in {times[2] * 1000:.0f}ms, "
        f"naive refused at 23: {naive_refused}, total {elapsed:.1f}s",
    )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _loglog_slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(xs)
    mx, my = sum(lx) / n, sum(ly) / n
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def test_criterion_7_invariance(corpus, fold_results):
    trefoil = corpus["knot_3_1"]
    fig8 = corpus["knot_4_1"]
    trios = {
        "trefoil": [trefoil, add_kink(trefoil, 1, True), braid_closure([-1] * 3, 2)],
        "fig8": [fig8, add_kink(fig8, 4, False), braid_closure([1, -2, 1, -2], 3)],
    }
    bad = []
    for name, diagrams in trios.items():
        if len({str(compute_jones(x).polynomial) for x in diagrams}) != 1:
            bad.append(name)
    for name, res in fold_results.items():
        d = corpus[name]
        if d.n > 9:
            continue
        if compute_bracket(d.mirrored()).polynomial != res["bracket"].polynomial.mirror():
            bad.append(name + "/mirror")
        aug = Diagram(d.crossings, d.free_loops + 1, d.boundary_arcs)
        if compute_bracket(aug).polynomial != res["bracket"].polynomial * DELTA:
            bad.append(name + "/split-unknot")
    report("7 invariance", not bad, f"violations: {bad}")


def test_criterion_8_determinism():
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items()
                    if k != "timings" and not str(k).endswith("_s")}
        if isinstance(obj, list):
            return [strip(x) for x in obj]
        return obj

    a = json.dumps(strip(run_verify(max_n=12, seed=7)), sort_keys=True)
    b = json.dumps(strip(run_verify(max_n=12, seed=7)), sort_keys=True)
    report("8 determinism", a == b and json.loads(a)["ok"],
           f"report bytes equal: {a == b}")
