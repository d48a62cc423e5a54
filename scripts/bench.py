#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics in BENCH_<n>.json.

    python scripts/bench.py --n 41 --parent ../parent

Runs perfbench/run.py once per workload, seed and tree, each run a fresh
process (run.py spawns its own passes), the seeds cycling 1, 2, 3.  The
workloads, the run length and which way each end-to-end metric is better
are read from BENCHMARK.json.  With
--parent, a checkout of the parent commit, each run of this checkout is
paired with one of the parent, the two alternating so that drift in the
host's speed falls on both.  For every tree, workload and metric the file
holds each run's value, the median and the quartiles; for every workload
and metric with a parent, how many pairs this checkout won and the median
change.  Every run's `correct` flag and failure count are kept.  The
environment block names the numpy version, the CPU count, the BLAS library
and the thread pins run.py sets.  perfbench/ is read, never written, apart
from its out/ folder.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HIGHER = {m["name"] for m in SPEC["end_to_end"] if m["better"] == "higher"}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: its env line and its last (metrics) line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "env": json.loads(lines[0])["env"],
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def blas() -> str | None:
    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, help="writes BENCH_<n>.json at the root")
    parser.add_argument("--parent", type=Path, help="a checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10, help="runs per workload and tree")
    args = parser.parse_args()
    seconds, workloads = SPEC["run_seconds"], [w["name"] for w in SPEC["workloads"]]
    trees = {"change": ROOT} | ({"parent": args.parent.resolve()} if args.parent else {})
    runs = {tree: {w: [] for w in workloads} for tree in trees}
    for workload in workloads:
        for i in range(args.pairs):
            seed = i % 3 + 1
            for tree, path in (reversed(trees.items()) if i % 2 else trees.items()):
                run = run_once(path, workload, seed, seconds)
                runs[tree][workload].append(run)
                print(tree, workload, seed, run["correct"], run["metrics"], flush=True)

    env = runs["change"][next(iter(runs["change"]))][0]["env"]
    out = {
        "env": {
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas(),
            "cpu_count": os.cpu_count(), "nproc": env["nproc"], "threads": env["threads"],
            "platform": platform.platform(),
        },
        "command": f"perfbench/run.py --workload W --seed 1..3 --seconds {seconds:g}",
        "trees": list(trees),
        "workloads": {},
    }
    for workload in runs["change"]:
        record = {}
        for tree in trees:
            rows = runs[tree][workload]
            names = rows[0]["metrics"]
            record[tree] = {
                "seeds": [r["seed"] for r in rows],
                "correct": all(r["correct"] for r in rows),
                "failed": sum(r["failed"] for r in rows),
                "metrics": {m: summary([r["metrics"][m] for r in rows]) for m in names},
            }
        if "parent" in trees:
            pairs = list(zip(runs["change"][workload], runs["parent"][workload]))
            record["change_vs_parent"] = {
                m: {
                    "pairs_won": sum((c["metrics"][m] > p["metrics"][m]) == (m in HIGHER)
                                     and c["metrics"][m] != p["metrics"][m] for c, p in pairs),
                    "pairs": len(pairs),
                    "median_change": record["change"]["metrics"][m]["median"]
                    / record["parent"]["metrics"][m]["median"] - 1,
                }
                for m in record["change"]["metrics"]
            }
        out["workloads"][workload] = record
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
