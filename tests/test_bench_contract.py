"""The benchmark's traced run patches skeinscan names at the place callers
look them up (see perfbench/spans.py).  A refactor that removes or renames
one of them would make every benchmark sample fail, so each must resolve."""

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
