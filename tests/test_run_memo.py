"""Every fold in a process shares one run-weight memo per loop sign
(``skein._RUNS``): a fold that meets runs already composed composes
nothing, and folds exactly as it does with an empty memo."""

import sys
from pathlib import Path

import pytest

from skeinscan.construct import braid_closure, torus_link
from skeinscan.cutorder import greedy_cutting
from skeinscan.engine import fold_cutting
from skeinscan.skein import BRACKET, PKBP

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _packed(fold):
    state, report, peak = fold
    return state.g, state.b, state.mass, state.offset, state._packed, report, peak


@pytest.mark.parametrize("mode", [BRACKET, PKBP])
def test_a_second_fold_composes_no_run_weight(mode, fresh_runs, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "inputs", raising=False)
    import inputs

    # T(2,25) folds one run of 23 crossings; braid_batch seed 0's largest
    # closure (60 crossings on 7 strands) folds runs of its twist regions
    word, strands = inputs.braid_batch(0)[-1]
    memo = fresh_runs[mode == BRACKET]
    for d in (torus_link(25), braid_closure(word, strands)):
        cutting = greedy_cutting(d)
        memo.clear()
        first = _packed(fold_cutting(d, cutting, mode))
        composed = dict(memo)
        assert composed
        assert _packed(fold_cutting(d, cutting, mode)) == first
        assert len(memo) == len(composed) and all(memo[key] is w for key, w in composed.items())
        memo.clear()
        assert _packed(fold_cutting(d, cutting, mode)) == first
        assert memo == composed
