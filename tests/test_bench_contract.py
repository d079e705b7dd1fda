"""The benchmark's traced run patches skeinscan names at the place callers
look them up (see perfbench/spans.py), and its worker and references call
others.  A refactor that removes or renames one of them would make every
benchmark sample fail, so each must resolve and compute."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_patched_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    patches = spans.layer_patches(spans.Tracer()) + spans.fold_patches(spans.Tracer())
    assert patches
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in patches if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_braid_batch_calls_agree_with_their_references(monkeypatch):
    # the references call Cutting([], sys.maxsize, order), improve_cutting
    # and oracle.brute_force_bracket; the worker planar.render_pd, parse_pd
    # and compute_<mode>
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "inputs", "worker", "run"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import inputs
    import run
    import worker

    specs = inputs.braid_batch(0)[:8]
    refs = inputs.batch_references(specs, 0)
    assert all(ref["pkbp"][0][0] == "second_cutting" for ref in refs)
    modes = run.WORKLOADS["braid_batch"].modes
    calls = worker.run_job(worker.build_inputs(specs), list(modes))["calls"]
    assert len(calls) == 16
    assert [run._problem(rec, refs[i // len(modes)]) for i, rec in enumerate(calls)] == [None] * 16
