#!/usr/bin/env python3
"""Benchmark a change against a parent revision in alternating pairs.

Usage:
    python tools/bench_pairs.py --parent REV --parent-dir DIR --seed N \\
        --pairs braid_batch=10 --pairs girth16=4 [--trace braid_batch] \\
        --out BENCH_<n>.json

The change is this checkout's HEAD commit, and the tree must be clean.
Both sides run from ``git archive`` exports: the parent REV into DIR, and
HEAD into DIR's sibling DIR-head, both outside the checkout (a git
worktree would register itself in the repository): run from the live
checkout, the same commit read about 0.3 MB higher ``peak_rss_mb``.  The
result names both commits.  Each pair runs
``perfbench/run.py --trace 0`` once per side, for the ``run_seconds`` of
this checkout's ``BENCHMARK.json``, the parent first in even pairs and the
change first in odd ones, since the second run of a back to back pair
reads slower.  Before every run the ``__pycache__`` folders of
both trees are deleted and the run gets PYTHONDONTWRITEBYTECODE=1: a run
that finds compiled bytecode skips compiling the program, which lowers its
``setup_s`` and ``peak_rss_mb``.  ``--trace W`` adds one ``--trace 1`` run
of W per side.  The result file holds every run's metrics, and per
workload and metric the change's wins, both medians and both quartiles;
after each workload's pairs the console shows that verdict for every
end-to-end metric of ``BENCHMARK.json``, marked ABOVE PARENT Q3 where the
change's median lies above the parent's third quartile.  The result also
records each side's source size (``source_size``): the line count of
``src/`` and, per module, its lines, its syntax-tree nodes and the peak
memory of compiling it.  Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MARK = ".bench_parent"  # names the revision an export directory holds


def export(rev: str, target: Path) -> str:
    """Export rev into target, replacing an earlier export; returns the
    full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    if target.resolve().is_relative_to(ROOT):
        raise SystemExit(f"{target} lies inside the checkout")
    if target.exists():
        if not (target / MARK).is_file():
            raise SystemExit(f"{target} exists and holds no export")
        shutil.rmtree(target)
    target.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    (target / MARK).write_text(commit + "\n")
    return commit


def run_once(trees: dict, side: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run from trees[side] with no bytecode on disk in
    either tree; its JSON result."""
    for cache in [c for t in trees.values() for c in t.rglob("__pycache__")]:
        shutil.rmtree(cache)
    tree = trees[side]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def source_size(tree: Path) -> dict:
    """The lines of the tree's ``src/``, and per module its lines, its
    ``ast.walk`` nodes and the peak of compiling it, by tracemalloc, in MB."""
    modules = {}
    for path in sorted((tree / "src").rglob("*.py")):
        text = path.read_text()
        tracemalloc.start()
        compile(text, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        modules[str(path.relative_to(tree / "src"))] = {
            "lines": text.count("\n"), "nodes": sum(1 for _ in ast.walk(ast.parse(text))),
            "compile_peak_mb": round(peak / 1e6, 3)}
    return {"src_lines": sum(m["lines"] for m in modules.values()), "modules": modules}


def summarize(pairs: list[dict]) -> dict:
    """Per metric: in how many pairs the change is lower, the medians, the
    quartiles of each side, and the change's median over the parent's."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        mid_p, mid_c = statistics.median(parent), statistics.median(change)
        out[name] = {
            "change_lower_in": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "parent_median": mid_p,
            "change_median": mid_c,
            "median_ratio": mid_c / mid_p if mid_p else None,
            "parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
        }
    out["failed"] = [p[side]["failed"] for p in pairs for side in ("parent", "change")]
    return out


def verdict(workload: str, name: str, unit: str, metric: dict) -> str:
    """One console line from a workload's summary of one metric: the
    change's wins, both medians with their quartiles, the ratio of the
    medians, and a mark when the change's median lies above the parent's
    third quartile."""
    (p1, p3), (c1, c3) = metric["parent_quartiles"], metric["change_quartiles"]
    ratio = "n/a" if metric["median_ratio"] is None else f"{metric['median_ratio']:.3f}"
    mark = "; ABOVE PARENT Q3" if metric["change_median"] > p3 else ""
    return (f"{workload} {name}: change lower in {metric['change_lower_in']} of {metric['pairs']} pairs; "
            f"median parent {metric['parent_median']:.4g} {unit} (quartiles {p1:.4g}-{p3:.4g}), "
            f"change {metric['change_median']:.4g} {unit} (quartiles {c1:.4g}-{c3:.4g}); ratio {ratio}{mark}")


def quartiles(values: list[float]) -> list[float]:
    """The first and third quartile (inclusive method; one value is both)."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--parent-dir", required=True, type=Path, help="export folder, outside the checkout")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--trace", action="append", default=[], metavar="WORKLOAD")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    if dirty:
        raise SystemExit(f"the checkout has uncommitted edits; commit them first:\n{dirty}")
    head_dir = args.parent_dir.with_name(args.parent_dir.name + "-head")
    commit, head = export(args.parent, args.parent_dir), export("HEAD", head_dir)
    trees = {"parent": args.parent_dir, "change": head_dir}
    result = {
        "command": f"perfbench/run.py --workload <name> --seed {args.seed} --seconds {seconds} --trace 0",
        "host": f"{platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}",
        "parent": commit, "change": head,
        "seed": args.seed, "seconds": seconds, "workloads": {}, "trace": {},
        "source": {side: source_size(tree) for side, tree in trees.items()},
    }
    for side, size in result["source"].items():
        name, largest = max(size["modules"].items(), key=lambda item: item[1]["compile_peak_mb"])
        print(f"{side} src/: {size['src_lines']} lines; largest compile peak {name}: {largest['lines']} lines, "
              f"{largest['nodes']} nodes, {largest['compile_peak_mb']} MB", flush=True)
    for spec in args.pairs:
        workload, count = spec.split("=")
        pairs = []
        for i in range(int(count)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"pair": i, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees, side, workload, args.seed, seconds, 0)
            wall = {side: pair[side]["metrics"]["wall_s"]["value"] for side in order}
            print(f"{workload} pair {i}: parent {wall['parent']:.4f} s, change {wall['change']:.4f} s", flush=True)
            pairs.append(pair)
        summary = summarize(pairs)
        for metric in bench["end_to_end"]:
            print(verdict(workload, metric["name"], metric["unit"], summary[metric["name"]]), flush=True)
        result["workloads"][workload] = {"summary": summary, "pairs": pairs}
    for workload in args.trace:
        result["trace"][workload] = {side: run_once(trees, side, workload, args.seed, seconds, 1)
                                     for side in ("parent", "change")}
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
