"""Verification suites: engine against brute force, structural invariants,
girth bounds, order independence, and the Reidemeister/mirror identities.

Everything here is deterministic given the seed.  The report is a plain
dict so it can be rendered as stable JSON; wall-clock numbers live only
under the ``timings`` keys, which consumers strip before comparing runs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from . import construct
from .cutorder import Cutting, exact_min_girth, greedy_cutting, improve_cutting
from .engine import compute_bracket, compute_jones, compute_pkbp, expand_tangle, failed_checks
from .laurent import DELTA, LaurentPoly
from .oracle import brute_force_bracket, brute_force_tangle_expansion
from .planar import Diagram, parse_pd
from .skein import PKBP

CORPUS = Path(__file__).resolve().parents[2] / "corpus"


def load_corpus() -> dict[str, Diagram]:
    """All .pd files in the bundled corpus, keyed by stem."""
    out: dict[str, Diagram] = {}
    for path in sorted(CORPUS.glob("*.pd")):
        out[path.stem] = parse_pd(path.read_text())
    if not out:
        raise FileNotFoundError(f"no .pd files under {CORPUS}")
    return out


def load_expected() -> dict[str, dict]:
    """The bundled corpus's oracle-verified expected values, by stem."""
    return json.loads((CORPUS / "expected.json").read_text())


def tangle_fixtures(seed: int = 0) -> dict[str, Diagram]:
    """Deterministic tangle set for engine-vs-oracle equivalence (n <= 10, g <= 8)."""
    import random

    rng = random.Random(seed)
    out: dict[str, Diagram] = {
        "single_pos": parse_pd("X[1,2,3,4]o0 B[1,2,3,4]"),
        "single_neg": parse_pd("X[1,2,3,4]o1 B[1,2,3,4]"),
        "r2": construct.braid_tangle([1, -1], 2),
        "r2_rev": construct.braid_tangle([-1, 1], 2),
        "r3_left": construct.braid_tangle([1, 2, 1], 3),
        "r3_right": construct.braid_tangle([2, 1, 2], 3),
        "identity2": construct.braid_tangle([], 2),
        "identity3": construct.braid_tangle([], 3),
        "identity4": construct.braid_tangle([], 4),
    }
    for k in range(1, 7):
        out[f"twist{k}"] = construct.twist_region_tangle(k)
    for i in range(8):
        strands = rng.choice([2, 3, 3, 4])
        length = rng.randint(3, min(10, 2 * strands + 4))
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)]
        out[f"braid_s{strands}_{i}"] = construct.braid_tangle(word, strands)
    return out


def _suite(cases: int, failures: list[str]) -> dict:
    return {"ok": not failures, "cases": cases, "failures": failures}


def run_verify(max_n: int = 12, seed: int = 0) -> dict:
    """Run every suite; the returned report's ``ok`` is the conjunction."""
    t_start = time.perf_counter()
    corpus = load_corpus()
    expected = load_expected()
    report: dict = {"seed": seed, "max_n": max_n, "suites": {}}
    timings: dict[str, float] = {}

    # -- engine vs oracle on every corpus diagram -------------------------
    t0 = time.perf_counter()
    failures: list[str] = []
    checked = 0
    results, folds = {}, []  # the bracket result per diagram; every fold's result
    for name, d in sorted(corpus.items()):
        if d.n > max_n:
            continue
        checked += 1
        res = compute_bracket(d, order="greedy")
        results[name] = res
        oracle = brute_force_bracket(d)
        if res.polynomial != oracle:
            failures.append(f"{name}: engine {res.polynomial} != oracle {oracle}")
        exp = expected.get(name)
        if exp and LaurentPoly.from_json(exp["bracket"]) != res.polynomial:
            failures.append(f"{name}: stored expectation differs from engine result")
        pk = compute_pkbp(d, order="greedy")
        folds += [(name, res), (name, pk)]
        pk_oracle = brute_force_bracket(d, PKBP)
        if pk.polynomial != pk_oracle:
            failures.append(f"{name}: positive-mode engine differs from oracle")
    report["suites"]["oracle_equivalence"] = _suite(checked, failures)
    timings["oracle_equivalence_s"] = time.perf_counter() - t0

    # -- tangle expansions -------------------------------------------------
    t0 = time.perf_counter()
    failures = []
    tangles = tangle_fixtures(seed)
    for name, d in sorted(tangles.items()):
        if d.n > 10 or d.g > 8:
            continue
        exp_engine = expand_tangle(d)
        exp_oracle = brute_force_tangle_expansion(d)
        if exp_engine.coeffs != exp_oracle:
            failures.append(f"tangle {name}: engine expansion differs from oracle")
    report["suites"]["tangle_equivalence"] = _suite(len(tangles), failures)
    timings["tangle_equivalence_s"] = time.perf_counter() - t0

    # -- structural invariants held during every fold ----------------------
    t0 = time.perf_counter()
    failures = []
    for name, res in folds:
        for key, info in failed_checks(res.diagnostics).items():
            failures.append(f"{name}/{res.mode}/{key}: {info['violations'][:2] if 'violations' in info else info}")
    report["suites"]["invariants"] = _suite(len(results), failures)
    timings["invariants_s"] = time.perf_counter() - t0

    # -- girth: exact search agrees on small diagrams (the fold holds the
    # sqrt bound, read by the invariants suite) ---------------------------
    t0 = time.perf_counter()
    failures = []
    for name, d in sorted(corpus.items()):
        if 0 < d.n <= 8:
            ex = exact_min_girth(d)
            gr = greedy_cutting(d)
            if ex.girth > gr.girth:
                failures.append(f"{name}: exact girth {ex.girth} worse than greedy {gr.girth}")
    report["suites"]["girth"] = _suite(len(results), failures)
    timings["girth_s"] = time.perf_counter() - t0

    # -- order independence -------------------------------------------------
    t0 = time.perf_counter()
    failures = []
    cases = 0
    for name, res in sorted(results.items()):
        d = corpus[name]
        if not 0 < d.n <= 9:
            continue
        cases += 1
        base = res.polynomial
        # a seeded local search from the greedy cutting, replayed as an explicit cutting
        improved = improve_cutting(d, res.cutting, seed=seed)
        for label, order in (("improved cutting", improved), ("order exact", "exact")):
            if compute_bracket(d, order=order).polynomial != base:
                failures.append(f"{name}: {label} changed the polynomial")
        roundtrip = Cutting.from_json(res.cutting.to_json())
        alt = compute_bracket(d, order=roundtrip)
        if alt.polynomial != base:
            failures.append(f"{name}: explicit cutting changed the polynomial")
    report["suites"]["order_independence"] = _suite(cases, failures)
    timings["order_independence_s"] = time.perf_counter() - t0

    # -- invariance: R-moves, mirror, split unknot --------------------------
    t0 = time.perf_counter()
    failures = []
    trefoil = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    fig8 = parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")
    trios = {
        "trefoil": [trefoil, construct.add_kink(trefoil, 1, True),
                    construct.braid_closure([-1, -1, -1], 2)],
        "fig8": [fig8, construct.add_kink(fig8, 4, False),
                 construct.braid_closure([1, -2, 1, -2], 3)],
    }
    for name, diagrams in trios.items():
        polys = {str(compute_jones(x).polynomial) for x in diagrams}
        if len(polys) != 1:
            failures.append(f"{name}: Jones differs across R-move diagrams: {sorted(polys)}")
    for name, res in sorted(results.items()):
        d = corpus[name]
        if d.n > 9 or d.n == 0:
            continue
        if compute_bracket(d.mirrored()).polynomial != res.polynomial.mirror():
            failures.append(f"{name}: mirror bracket is not the A -> A^-1 conjugate")
        with_unknot = Diagram(d.crossings, d.free_loops + 1, d.boundary_arcs)
        if compute_bracket(with_unknot).polynomial != res.polynomial * DELTA:
            failures.append(f"{name}: split unknot did not multiply by the loop value")
    report["suites"]["invariance"] = _suite(len(trios) + len(results), failures)
    timings["invariance_s"] = time.perf_counter() - t0

    timings["total_s"] = time.perf_counter() - t_start
    report["timings"] = timings
    report["ok"] = all(s["ok"] for s in report["suites"].values())
    return report


def render_report(report: dict, as_json: bool = False) -> str:
    if as_json:
        return json.dumps(report, indent=2, sort_keys=True)
    lines = []
    for name, suite in report["suites"].items():
        status = "ok" if suite["ok"] else "FAIL"
        lines.append(f"{name:22s} {status:4s} ({suite['cases']} cases)")
        for f in suite["failures"][:10]:
            lines.append(f"    {f}")
    lines.append("verify: " + ("all suites passed" if report["ok"] else "FAILURES present"))
    return "\n".join(lines)
