"""Tests of the benchmark itself:  python3 -m pytest perfbench

They check that tracing changes no answer, that the span accounting adds
up, that the references agree with the program on small inputs, and that
the driver refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import inputs
import run
import worker

worker.import_program()

BENCH = Path(__file__).resolve().parent
SMALL = [inputs.torus_spec(2, 31), inputs.torus_spec(4, 5)]
BATCH = inputs.braid_batch(0)[:12]


def _polys(result: dict) -> list:
    return [(rec["mode"], rec["poly"], rec["ok"]) for rec in result["calls"]]


def test_tracing_changes_no_polynomial():
    for specs, modes in ((SMALL, ["jones"]), (BATCH, ["bracket", "pkbp"])):
        texts = worker.build_inputs(specs)
        plain = worker.run_job(texts, modes, "off")
        traced = worker.run_job(texts, modes, "layers")
        folded = worker.run_job(texts, modes, "fold")
        assert _polys(plain) == _polys(traced) == _polys(folded)
        assert all(ok for _, _, ok in _polys(plain))


def test_wrappers_are_removed_after_a_traced_job():
    from skeinscan import engine, laurent, skein

    before = (engine.make_cutting, skein.SkeinState.cross, laurent.LaurentPoly.__mul__)
    worker.run_job(worker.build_inputs(SMALL[:1]), ["jones"], "layers")
    assert (engine.make_cutting, skein.SkeinState.cross, laurent.LaurentPoly.__mul__) == before


def test_self_times_add_up_to_traced_wall():
    result = worker.run_job(worker.build_inputs(BATCH), ["bracket", "pkbp"], "layers")
    summary = result["trace"]
    assert math.isclose(sum(summary["self_s"].values()), summary["wall_s"], rel_tol=1e-9)
    assert math.isclose(sum(rec["time_s"] for rec in result["calls"]), summary["wall_s"], rel_tol=1e-9)
    # the reported layer times miss only the root span's own glue
    metrics = run.layer_metrics([summary])
    layer_sum = sum(metrics[key][0] for key in run.TIMES)
    assert math.isclose(layer_sum + summary["self_s"]["call"], metrics["trace.wall_s"][0], rel_tol=1e-9)
    assert summary["self_s"]["call"] < 0.01 * summary["wall_s"]


def test_layer_counts_are_exact():
    result = worker.run_job(worker.build_inputs([inputs.torus_spec(2, 31)]), ["jones"], "layers")
    metrics = run.layer_metrics([result["trace"]])
    assert metrics["skein.cross_calls"][0] == 31
    assert metrics["cutorder.events"][0] == 31
    assert metrics["cutorder.girth"][0] == 4
    assert metrics["skein.peak_state"][0] == 2


def test_tail_is_p90_only_with_ten_values_beyond_it():
    values = [float(v) for v in range(1001)]
    assert run.tail(values) == 900.0
    few = values[:41]
    assert sum(v > run.tail(few) for v in few) == 10
    assert run.tail(values[:16]) == run.percentile(values[:16], 0.5) == 7.5


def test_closed_form_matches_known_trefoil():
    # right-handed trefoil: V = t + t^3 - t^4 with t = A^-4
    assert inputs.torus_jones(2, 3) == {"-4": "1", "-12": "1", "-16": "-1"}


def test_closed_form_and_batch_references_agree_with_program():
    texts = worker.build_inputs([inputs.torus_spec(3, 4)])
    result = worker.run_job(texts, ["jones"])
    assert result["calls"][0]["poly"] == inputs.torus_jones(3, 4)
    refs = inputs.batch_references(BATCH, 0)
    result = worker.run_job(worker.build_inputs(BATCH), ["bracket", "pkbp"])
    for i, rec in enumerate(result["calls"]):
        assert run._problem(rec, refs[i // 2]) is None
    assert any(label == "oracle" for ref in refs for label, _ in ref["bracket"])


def test_reference_mismatch_is_a_failure():
    texts = worker.build_inputs([inputs.torus_spec(2, 5)])
    rec = worker.run_job(texts, ["jones"])["calls"][0]
    assert run._problem(rec, {"jones": [("closed_form", inputs.torus_jones(2, 5))]}) is None
    assert run._problem(rec, {"jones": [("closed_form", inputs.torus_jones(2, 7))]})


def _driver(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_driver_fails_without_program_sources(tmp_path: Path):
    # a directory holding only BENCHMARK.json and the benchmark's own files
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _driver("girth16", 0, tmp_path)
    assert proc.returncode != 0
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    assert not last[0].startswith("{")


def test_driver_prints_every_registered_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _driver("torus2_long", trace, BENCH.parent)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in spec[key]}
