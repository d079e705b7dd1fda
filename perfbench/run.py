"""Benchmark driver for skeinscan.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the program from ./src.
Each sample is a fresh worker process (perfbench/worker.py), started and
timed by this driver; at most one worker runs at a time.

--trace 0 measures the end-to-end metrics.  --trace 1 alternates untraced
and traced samples, reports per-layer self times and counts from the traced
ones, and fits the fold's scaling against n * Catalan(girth / 2).

Human-readable lines start with '#'; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable
from pathlib import Path
from time import perf_counter

import inputs
from worker import import_program

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# no sample starts after HARD_LIMIT_S and no worker outlives KILL_S, both
# counted from the first sample, so a run ends inside the 180 s it may take
HARD_LIMIT_S = 140.0
KILL_S = 160.0
# Reported times are scaled to the speed at which the worker's calibration
# loop takes this long (its time on an idle core of the 2-cpu Xeon VM where
# the benchmark was defined).  That host's speed drifts by 20-50% over
# seconds to minutes as neighbouring load comes and goes; the loop, timed
# around every half second of calls, drifts with it, and dividing it out
# steadies run medians.  Raw medians are in the report.
CAL_REF_S = 0.1


class WorkerFailed(RuntimeError):
    """A worker crashed, hung or broke the protocol."""


@dataclass(frozen=True)
class Workload:
    specs: Callable        # seed -> list of (word, strands)
    modes: tuple[str, ...]
    references: Callable   # (specs, seed) -> per diagram {mode: [(label, poly or None)]} or None


def _torus(p: int, q: int) -> Workload:
    return Workload(
        specs=lambda seed: [inputs.torus_spec(p, q)],
        modes=("jones",),
        references=lambda specs, seed: [{"jones": [("closed_form", inputs.torus_jones(p, q))]}],
    )


WORKLOADS = {
    # large n at girth 4: ~1000-term coefficients; laurent and cutorder work
    "torus2_long": _torus(2, 1001),
    # girth 16, 1430-matching states with short coefficients; surgery work
    "girth16": _torus(8, 9),
    # ~120 small calls in one process: per-call fixed costs and warm caches
    "braid_batch": Workload(
        specs=inputs.braid_batch,
        modes=("bracket", "pkbp"),
        references=inputs.batch_references,
    ),
}


def spawn(job: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker on job; return (setup seconds, result).  Setup runs
    from process start to the worker's ready line: interpreter start,
    imports and input generation."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.flush()
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        if not ready:
            raise WorkerFailed("worker exited before it was ready")
        out, _ = proc.communicate(json.dumps("go") + "\n", timeout=max(1.0, deadline - perf_counter()))
        if proc.returncode != 0 or not out.strip():
            raise WorkerFailed(f"worker exited with code {proc.returncode}")
        return setup, json.loads(out.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, BrokenPipeError) as exc:
        raise WorkerFailed(str(exc)) from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


class Run:
    """Samples of one workload, with every output checked as it arrives."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.specs = workload.specs(seed)
        self.refs = workload.references(self.specs, seed)
        self.started = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def job(self, trace: str) -> dict:
        return {"inputs": self.specs, "modes": list(self.workload.modes), "trace": trace}

    def sample(self, trace: str = "off") -> tuple[float, dict] | None:
        """One worker sample; None once a worker has failed."""
        n_calls = len(self.specs) * len(self.workload.modes)
        try:
            setup, result = spawn(self.job(trace), self.deadline())
        except WorkerFailed as exc:
            self.attempted += n_calls
            self._fail(n_calls, f"worker failed: {exc}")
            return None
        for i, rec in enumerate(result["calls"]):
            self.attempted += 1
            refs = self.refs[i // len(self.workload.modes)]
            problem = _problem(rec, refs)
            if problem:
                self._fail(1, f"call {i} ({rec['mode']}): {problem}")
        return setup, result

    def _fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.failures) < 5:
            self.failures.append(why)

    def deadline(self) -> float:
        return self.started + KILL_S

    def out_of_time(self, seconds: float) -> bool:
        elapsed = perf_counter() - self.started
        return elapsed >= seconds or elapsed >= HARD_LIMIT_S


def _problem(rec: dict, refs) -> str | None:
    if "error" in rec:
        return rec["error"]
    if not rec["ok"]:
        return "runtime checks failed"
    if refs is None:
        return "no reference could be computed"
    for label, poly in refs[rec["mode"]]:
        if poly is None:
            return f"reference {label} failed its own checks"
        if rec["poly"] != poly:
            return f"disagrees with reference {label}"
    return None


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list[float]) -> float:
    """p90, or with fewer than 100 values the highest percentile that still
    has ten values beyond it, and never less than the median: a tail
    percentile of a few samples measures only the host's noise."""
    return percentile(values, max(0.5, min(0.9, 1 - 10 / len(values))))


def normalized(result: dict) -> list[float]:
    """Each call's time at the reference machine speed: scaled by CAL_REF_S
    over the calibration loop's time around that call."""
    return [rec["time_s"] * CAL_REF_S / rec["cal_s"] for rec in result["calls"]]


def scaled(summary: dict, scale: float) -> dict:
    """A trace summary with every time multiplied by scale."""
    out = dict(summary)
    for kind in ("self_s", "total_s"):
        out[kind] = {name: t * scale for name, t in summary[kind].items()}
    out["wall_s"] = summary["wall_s"] * scale
    return out


def measure(run: Run, seconds: float) -> dict:
    """--trace 0: cold samples until the run's time is up."""
    setups, raw, walls, rss, call_times = [], [], [], [], []
    while True:
        got = run.sample()
        if got is None:
            break
        setup, result = got
        times = normalized(result)
        # the first calibration runs right after setup
        setups.append(setup * CAL_REF_S / result["first_cal_s"])
        raw.append(result["wall_s"])
        walls.append(sum(times))
        rss.append(result["rss_mb"])
        call_times += times
        if run.out_of_time(seconds):
            break
    if not walls:
        return {}
    _report("raw wall_s", raw)
    _report("wall_s", walls)
    _report("setup_s", setups)
    _report("call_s", call_times)
    _report("peak_rss_mb", rss)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "call_p50_s": (statistics.median(call_times), "s"),
        "call_p90_s": (tail(call_times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def fold_slope(run: Run) -> float | None:
    """Log-log slope of fold time against n * Catalan(girth / 2) over the
    scaling family, from one worker that traces only the fold."""
    specs = inputs.scaling_specs()
    try:
        _, result = spawn({"inputs": specs, "modes": ["bracket"], "trace": "fold"}, run.deadline())
    except WorkerFailed as exc:
        run.attempted += len(specs)
        run._fail(len(specs), f"scaling worker failed: {exc}")
        return None
    xs, ys = [], []
    for rec in result["calls"]:
        run.attempted += 1
        if "error" in rec or not rec["ok"]:
            run._fail(1, f"scaling call failed: {rec.get('error', 'runtime checks failed')}")
            continue
        work = rec["n"] * math.comb(rec["girth"], rec["girth"] // 2) // (rec["girth"] // 2 + 1)
        xs.append(math.log(work))
        ys.append(math.log(rec["fold_s"]))
        print(f"# scaling n={rec['n']} girth={rec['girth']} n*Catalan={work} fold_s={rec['fold_s']:.4f}")
    if len(xs) < 2:
        return None
    return statistics.linear_regression(xs, ys).slope


def trace(run: Run, seconds: float) -> dict:
    """--trace 1: the scaling fit, then untraced and traced samples in turn."""
    slope = fold_slope(run)
    plain, traced, summaries = [], [], []
    while True:
        got = run.sample()
        if got is None:
            break
        plain.append(sum(normalized(got[1])))
        got = run.sample("layers")
        if got is None:
            break
        wall = sum(normalized(got[1]))
        traced.append(wall)
        summaries.append(scaled(got[1]["trace"], wall / got[1]["wall_s"]))
        if run.out_of_time(seconds):
            break
    if not summaries or slope is None:
        return {}
    metrics = layer_metrics(summaries)
    metrics["engine.fold_ncat_slope"] = (slope, "slope")
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    _report("untraced wall_s", plain)
    _report("traced wall_s", traced)
    _report_layers(summaries)
    return metrics


# span names whose self times make up each reported time
TIMES = {
    "cutorder.cutting_s": ("cutorder.cutting",),
    "laurent.mul_s": ("laurent.mul",),
    "laurent.add_s": ("laurent.add",),
    "laurent.div_s": ("laurent.div",),
    "skein.cross_s": ("skein.cross",),
    # births, caps and seam rotations are rare (none at all on the torus
    # workloads), so they share one time with the event dispatch
    "skein.other_s": ("skein.apply", "skein.birth", "skein.cap", "skein.rotate"),
    "matchings.noncrossing_s": ("matchings.noncrossing",),
    "matchings.basis_s": ("matchings.basis",),
    "engine.check_s": ("engine.fold",),
    "engine.mod4_link_s": ("engine.mod4_link",),
    "engine.compute_s": ("engine.compute",),
    "planar.parse_s": ("planar.parse",),
    # the writhe runs only in jones mode, so it is not timed on its own
    "planar.geometry_s": ("planar.faces", "planar.checkerboard", "planar.writhe"),
}
CALLS = {
    "laurent.mul_calls": "laurent.mul",
    "laurent.add_calls": "laurent.add",
    "skein.cross_calls": "skein.cross",
    "skein.birth_calls": "skein.birth",
    "skein.cap_calls": "skein.cap",
    "skein.rotate_calls": "skein.rotate",
    "matchings.noncrossing_calls": "matchings.noncrossing",
    "matchings.basis_calls": "matchings.basis",
}


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics, each a mean per sample (one diagram on the torus
    workloads, one whole batch on braid_batch)."""
    k = len(summaries)

    def total(kind: str, name: str) -> float:
        return sum(s[kind].get(name, 0) for s in summaries)

    m = {key: (sum(total("self_s", n) for n in names) / k, "s") for key, names in TIMES.items()}
    m.update({key: (total("calls", name) / k, "count") for key, name in CALLS.items()})
    m["engine.fold_s"] = (total("total_s", "engine.fold") / k, "s")
    m["cutorder.girth"] = (total("counts", "cutorder.girth_sum") / total("counts", "cutorder.cuttings"), "points")
    m["cutorder.events"] = (total("counts", "cutorder.events") / k, "count")
    m["skein.peak_state"] = (total("counts", "skein.peak_sum") / total("counts", "engine.folds"), "count")
    m["skein.entries_in"] = (total("counts", "skein.entries_in") / k, "count")
    m["skein.merge_ratio"] = (total("counts", "skein.keys_out") / total("counts", "skein.surgery_out"), "ratio")
    for name in ("laurent.max_terms", "laurent.max_coeff_bits"):
        m[name] = (max(s["maxima"].get(name, 0) for s in summaries), "count" if name.endswith("terms") else "bits")
    m["trace.wall_s"] = (sum(s["wall_s"] for s in summaries) / k, "s")
    return m


def _report(name: str, values: list[float]) -> None:
    q1, q2, q3 = (percentile(values, q) for q in (0.25, 0.5, 0.75))
    print(f"# {name}: median {q2:.6g}  quartiles {q1:.6g} .. {q3:.6g}  "
          f"p90 {percentile(values, 0.9):.6g}  samples {len(values)}")
    if len(values) <= 100:
        print(f"# {name} samples: " + " ".join(f"{v:.6g}" for v in values))


def _report_layers(summaries: list[dict]) -> None:
    """Self-time share of every span and layer, from the traced samples."""
    self_s: dict[str, float] = {}
    for s in summaries:
        for name, t in s["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + t
    wall = sum(s["wall_s"] for s in summaries)
    layers: dict[str, float] = {}
    for name, t in sorted(self_s.items(), key=lambda kv: -kv[1]):
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + t
        print(f"# span {name:24s} {100 * t / wall:6.2f}%")
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"# layer {layer:23s} {100 * t / wall:6.2f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skeinscan" / "__init__.py").is_file():
        print(f"no skeinscan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_program(ROOT)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# python {platform.python_version()} on {platform.machine()}, {os.cpu_count()} cpus")
    t0 = perf_counter()
    run = Run(WORKLOADS[args.workload], args.seed)
    print(f"# {len(run.specs)} diagrams x {len(run.workload.modes)} modes; "
          f"references took {perf_counter() - t0:.2f} s")
    # an untimed worker first, so every timed one finds compiled bytecode
    # and warm file caches
    try:
        spawn({"inputs": [], "modes": [], "trace": "off"}, run.deadline())
    except WorkerFailed as exc:
        print(f"worker cannot start: {exc}", file=sys.stderr)
        return 1
    run.started = perf_counter()
    metrics = trace(run, args.seconds) if args.trace else measure(run, args.seconds)
    for why in run.failures:
        print(f"# FAILED {why}")
    print(f"# failed_frac {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} calls)")
    if not metrics:
        print("no complete sample", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
