#!/usr/bin/env python3
"""Recompute the locked regression envelope used by the acceptance tests.

Runs the documented grids once, records the observed extreme ratios and the
fitted reciprocal-count exponent, and writes tests/fixtures/locked_constants.json.
The computations are deterministic, so a rerun reproduces the stored values;
regenerate only when a grid or a reference is deliberately changed.

    PYTHONPATH=src python scripts/derive_constants.py          # rewrite the file
    PYTHONPATH=src python scripts/derive_constants.py --check  # compare only

With --check nothing is written: every key whose recomputed value differs
from the file is printed with its old and new value, and the exit status is
1 if any differs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from kforms import verify_lemma_sweeps, verify_thm1_sweep
from kforms.sweeps import DEFAULT_GRIDS

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "locked_constants.json"


def max_ratio(result) -> float:
    return max(r.ratio for r in result.reports if r.ratio is not None)


def lock(value: float) -> float:
    # round the envelope up at the sixth decimal so reruns cannot tip over it
    return math.ceil(value * 10**6) / 10**6


def flatten(payload: dict, prefix: str = "") -> dict:
    """{"a": {"b": 1}} as {"a.b": 1}, so that nested keys compare one by one."""
    out = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def check(payload: dict) -> int:
    """Print every key whose value differs from the locked file; 1 if any does."""
    old = flatten(json.loads(OUT.read_text()))
    new = flatten(json.loads(json.dumps(payload)))  # the values as the file would hold them
    differing = [key for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
    for key in differing:
        print(f"  {key}: {old.get(key, '(absent)')} -> {new.get(key, '(absent)')}")
    print(f"{len(differing)} key(s) differ from {OUT}")
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="compare with the locked file; write nothing"
    )
    args = parser.parse_args()
    t0 = time.perf_counter()
    lemma21 = verify_lemma_sweeps("2.1")
    lemma22 = verify_lemma_sweeps("2.2")
    lemma23 = verify_lemma_sweeps("2.3")
    lemma24 = verify_lemma_sweeps("2.4")
    lemma25 = verify_lemma_sweeps("2.5")
    # the primes in [100, 1000] at L = M = N = floor(sqrt(q)), as
    # `kforms verify-thm1 --q 100..1000 --primes --weights extremal` runs them
    thm1 = verify_thm1_sweep(
        range(100, 1001), "0:sqrt", "0:sqrt", "0:sqrt", mode="extremal", primes=True
    )

    slope = lemma24.fitted_exponent
    # bracket of width <= 0.5 that contains both the observed slope and 2.0
    lo = math.floor(min(slope, 2.0) * 20) / 20 - 0.05
    hi = lo + 0.5
    if hi < max(slope, 2.0):
        raise SystemExit(f"slope {slope} will not fit a width-0.5 bracket around 2.0")

    payload = {
        "locked_utc": "2026-08-10",
        "grids": DEFAULT_GRIDS,
        "c1_fourth_moment_ratio": lock(max_ratio(lemma21)),
        "c2_j2_mod_ratio": lock(max_ratio(lemma23)),
        "c3_energy_ratio": lock(max_ratio(lemma22)),
        "c4_thm1_extremal_ratio": lock(max_ratio(thm1)),
        "c5_average_j_ratio": lock(max_ratio(lemma25)),
        "j2_rational_slope": round(slope, 6),
        "j2_rational_slope_bracket": [round(lo, 3), round(hi, 3)],
        "observed": {
            "lemma21_max_ratio": max_ratio(lemma21),
            "lemma22_max_ratio": max_ratio(lemma22),
            "lemma23_max_ratio": max_ratio(lemma23),
            "lemma25_max_ratio": max_ratio(lemma25),
            "thm1_max_ratio": max_ratio(thm1),
            "thm1_cases": len(thm1.reports),
        },
    }
    if args.check:
        return check(payload)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT} in {time.perf_counter() - t0:.1f}s")
    for key, value in payload.items():
        if key not in ("grids", "observed"):
            print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
