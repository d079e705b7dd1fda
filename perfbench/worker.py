"""Benchmark worker: one fresh process per sample, as a CLI user pays.

Protocol, one JSON value per line:

    driver -> worker   job: {"inputs": [[word, strands], ...],
                             "modes": ["jones"] or ["bracket", "pkbp"],
                             "trace": "off" | "layers" | "fold"}
    worker -> driver   {"ready": true}   after imports and input generation
    driver -> worker   "go"
    worker -> driver   the result of run_job

The worker builds each input as the PD text of a braid closure, then times
``parse_pd`` -> ``compute_<mode>`` for every (input, mode) pair, back to
back in this one process.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer, fold_patches, layer_patches, patched

ROOT = Path(__file__).resolve().parent.parent
# The calibration loop takes ~0.1 s on an idle core; it runs around every
# half second of calls, so the driver can scale each call by the machine
# speed of its moment.
CAL_LOOPS = 800_000
CAL_EVERY_S = 0.5


def import_program(root: Path = ROOT):
    """Import skeinscan from the checkout's src/ and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import skeinscan

    if src not in Path(skeinscan.__file__).resolve().parents:
        raise SystemExit(f"skeinscan imported from {skeinscan.__file__}, not from {src}")
    return skeinscan


def build_inputs(specs) -> list[str]:
    from skeinscan import construct, planar

    return [planar.render_pd(construct.braid_closure(list(word), strands))
            for word, strands in specs]


def _compute(text: str, mode: str):
    # looked up at call time, so the traced run sees its wrappers
    from skeinscan import engine, planar

    return getattr(engine, "compute_" + mode)(planar.parse_pd(text))


def run_job(texts: list[str], modes: list[str], trace: str = "off") -> dict:
    """Time parse + compute for every (text, mode) pair, back to back.

    The calibration loop runs before the first call and again whenever the
    calls since the last run of it add up to CAL_EVERY_S, and after the
    last call; each call records the mean of the two runs around it."""
    tracer = Tracer()
    patches = {"off": [], "layers": layer_patches(tracer), "fold": fold_patches(tracer)}[trace]
    calls, segment = [], []
    with patched(tracer, patches):
        cal = first_cal = calibrate()
        for text in texts:
            for mode in modes:
                rec = {"mode": mode}
                fold_before = tracer.total_s.get("engine.fold", 0.0)
                t0 = perf_counter()
                try:
                    if trace == "off":
                        result = _compute(text, mode)
                        rec["time_s"] = perf_counter() - t0
                    else:
                        result, rec["time_s"] = tracer.timed(_compute, text, mode)
                except Exception as exc:  # a failing call is counted; the batch goes on
                    rec.update(time_s=perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
                else:
                    rec.update(
                        ok=result.ok,
                        girth=result.girth_used,
                        n=len(result.cutting.source_order),
                        poly=result.polynomial.to_json(),
                        fold_s=tracer.total_s.get("engine.fold", 0.0) - fold_before,
                    )
                calls.append(rec)
                segment.append(rec)
                if sum(r["time_s"] for r in segment) >= CAL_EVERY_S:
                    cal = _close_segment(segment, cal)
        _close_segment(segment, cal)
    return {
        "calls": calls,
        "wall_s": sum(rec["time_s"] for rec in calls),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "first_cal_s": first_cal,
        "trace": tracer.summary() if trace == "layers" else None,
    }


def _close_segment(segment: list[dict], cal_before: float) -> float:
    cal_after = calibrate()
    for rec in segment:
        rec["cal_s"] = (cal_before + cal_after) / 2
    segment.clear()
    return cal_after


def calibrate() -> float:
    """Time a fixed loop of plain Python (dict stores, integer arithmetic)
    that touches no skeinscan code: the machine's current speed."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(CAL_LOOPS):
        table[i & 1023] = acc
        acc += i * i % 7
    return perf_counter() - t0


def _send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    import_program()
    job = json.loads(sys.stdin.readline())
    texts = build_inputs(job["inputs"])
    _send({"ready": True})
    if json.loads(sys.stdin.readline()) != "go":
        return 1
    _send(run_job(texts, job["modes"], job["trace"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
