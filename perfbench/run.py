"""Closed-loop benchmark of the kforms sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in a closed loop: each case starts when the previous one has
finished.  Each case makes the calls the kforms CLI makes for it and is
timed with ``time.perf_counter``.  The run makes two passes over the same
cases, each in a fresh interpreter, so that nothing a case leaves in
memory can speed up its second timing: the first pass runs whole rounds
for about half of ``--seconds`` (or until every round has run once), the
second replays the same rounds.  A case's latency is the faster of its
two timings, which discards most of the short slow spells a shared host
imposes.  Each pass checks its outputs after its timed loop, against
values recorded from the reference code; a seeded subsample of small
instances is then checked against the brute-force oracles.  Set-up time is sampled in fresh interpreters between cases,
spread over both passes.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the first pass runs with every public kforms function wrapped
in a span, and the last line reports per-layer metrics.  Spans, the
environment and the last case's report file go to ``perfbench/out``.  See
NOTES.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 16  # set-ups timed per run, half in each pass
PASS_TIMEOUT_S = 170
# KFORMS_THREADS=1 keeps the sweeps sequential; BLAS/OpenMP are pinned too.
THREAD_PINS = {
    "KFORMS_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402  (benchmark modules, standard library only)
from spans import Tracer, layer_metrics, unit_of  # noqa: E402

# One set-up: a fresh interpreter imports kforms and builds the inputs.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import kforms, workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
workloads.load_recorded()
print(time.perf_counter() - t0)
"""


@dataclass
class Outcome:
    case: object
    seconds: float
    out: dict | None
    error: str | None
    report_bytes: int


def import_kforms():
    if not (SRC / "kforms" / "__init__.py").is_file():
        raise SystemExit(f"error: kforms sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import kforms

    if Path(kforms.__file__).resolve().parent != SRC / "kforms":
        raise SystemExit(f"error: imported kforms from {kforms.__file__}, not {SRC}")
    return kforms


def measure_setup(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_CHILD, str(BENCH_DIR), str(SRC), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_case(kf, case, out_path: str) -> Outcome:
    t0 = time.perf_counter()
    try:
        out, error = case.run(kf, out_path), None
    except Exception as exc:  # a refused or crashed case is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    clear_caches()
    size = os.path.getsize(out_path) if error is None and os.path.exists(out_path) else 0
    return Outcome(case, seconds, out, error, size)


def run_pass(kf, rounds, out_path: str, seconds: float, n_rounds=None, tracer=None, setup=None):
    """Whole rounds for about ``seconds``, or ``n_rounds`` of them.

    Without ``n_rounds`` the pass ends after the round whose end, at the
    mean round time so far, lies nearest to ``seconds``, so that a long
    round does not stretch it by a whole round.  A pass runs no round
    twice, so it also ends when every round has run.

    With ``setup`` given, it is called between cases (outside any timing)
    at the start and then every ``seconds / (SETUP_SAMPLES // 2)``, at most
    ``SETUP_SAMPLES // 2`` times.  Returns (outcomes, rounds run, wall
    seconds without the set-ups, set-up times).
    """
    outcomes, setups = [], []
    every = seconds / max(SETUP_SAMPLES // 2, 1)
    paused = 0.0
    start = next_setup = time.perf_counter()
    i = 0
    while True:
        for case in rounds[i]:
            now = time.perf_counter()
            if setup is not None and len(setups) < SETUP_SAMPLES // 2 and now >= next_setup:
                setups.append(setup())
                paused += time.perf_counter() - now
                next_setup = now + every
            if tracer is not None:
                tracer.case = len(outcomes)
            outcomes.append(run_case(kf, case, out_path))
        i += 1
        wall = time.perf_counter() - start - paused
        if n_rounds is not None:
            done = i == n_rounds
        else:
            done = i == len(rounds) or wall * (1 + 0.5 / i) >= seconds
        if done:
            return outcomes, i, wall, setups


def clear_caches() -> None:
    """Empty every functools cache in kforms.

    Run after each case, so that each case starts as in a fresh CLI process
    and the peak RSS does not grow with the number of moduli run so far
    (kforms keeps up to 64 Bluestein kernels, one per modulus).
    """
    for modname, module in list(sys.modules.items()):
        if modname.startswith("kforms."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def check_cases(outcomes, recorded):
    """Returns (failure messages, recorded values compared)."""
    failures, compared = [], 0
    for o in outcomes:
        reason = o.error
        if reason is None:
            want = recorded.get(o.case.key)
            if want is None:
                reason = "no recorded value"
            else:
                compared += 1
                reason = o.case.check(o.out, want)
        if reason:
            failures.append(f"{o.case.key}: {reason}")
    return failures, compared


def check_oracles(kf, oracles):
    failures = []
    for oracle in oracles:
        reason = oracle.check(kf)
        if reason:
            failures.append(f"oracle {oracle.kind} q={oracle.q}: {reason}")
    return failures


def git_commit(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    # A checkout that is not a repository of its own, even inside another, has none.
    if done.returncode or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def environment(kf, args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kforms": kf.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def end_to_end(first, second, setups, rss_mb: float) -> dict:
    """Each case's latency is the faster of its two passes."""
    ms = [min(a[1], b[1]) * 1000 for a, b in zip(first, second) if a[2] and b[2]] or [0.0]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cases_per_s": (1000 * len(ms) / sum(ms) if sum(ms) else 0.0, "1/s"),
        "case_ms_p50": (statistics.median(ms), "ms"),
        "case_ms_p90": (p90, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one pass in this process and print its result.
    parser.add_argument("--pass", dest="pass_no", type=int, choices=(1, 2), help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pass_main(args) -> dict:
    """One pass: pass 1 runs for about half of --seconds (traced with
    --trace 1), pass 2 runs ``args.rounds`` rounds.  Returns its cases as [key,
    seconds, completed], its failures and, for pass 1, its peak RSS."""
    kf = import_kforms()
    wl = workloads.build(args.workload, args.seed)
    recorded = workloads.load_recorded()
    out_path = str(OUT_DIR / f"report-{args.workload}.csv")
    tracer = Tracer() if args.trace and args.pass_no == 1 else None
    setup = None if args.trace else (lambda: measure_setup(args.workload, args.seed))
    if tracer is not None:
        with tracer:
            outcomes, rounds, wall, setups = run_pass(kf, wl.rounds, out_path, args.seconds / 2,
                                                      tracer=tracer)
    else:
        outcomes, rounds, wall, setups = run_pass(kf, wl.rounds, out_path, args.seconds / 2,
                                                  args.rounds, setup=setup)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures, compared = check_cases(outcomes, recorded)
    result = {
        "rounds": rounds, "wall": wall, "setups": setups,
        "peak_rss_mb": peak_mb, "failures": failures, "compared": compared,
        "cases": [[o.case.key, o.seconds, o.error is None] for o in outcomes],
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans, len(outcomes), wall, kf.is_prime)
        layers["reports.bytes"] = sum(o.report_bytes for o in outcomes) / len(outcomes)
        result["layers"] = layers
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl",
                     {"env": environment(kf, args)})
    return result


def spawn_pass(argv: list[str]) -> dict:
    """Runs one pass in a fresh interpreter and returns its result."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: pass exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)
    if args.pass_no:
        print(json.dumps(pass_main(args)))
        return 0

    kf = import_kforms()
    OUT_DIR.mkdir(exist_ok=True)
    env = environment(kf, args)
    print(json.dumps({"env": env}))

    # Two passes over the same rounds, half of --seconds each, each in its
    # own process.  With --trace 1 the first pass is traced.
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    first = spawn_pass(common + ["--pass", "1"])
    second = spawn_pass(common + ["--pass", "2", "--rounds", str(first["rounds"])])
    if [c[0] for c in first["cases"]] != [c[0] for c in second["cases"]]:
        raise SystemExit("error: the second pass did not replay the first pass's cases")
    if args.trace:
        values = first["layers"]
        values["trace.overhead_frac"] = first["wall"] / second["wall"] - 1
        metrics = {name: (v, unit_of(name)) for name, v in values.items()}
    else:
        metrics = end_to_end(first["cases"], second["cases"],
                             first["setups"] + second["setups"], first["peak_rss_mb"])

    wl = workloads.build(args.workload, args.seed)
    failures = first["failures"] + second["failures"] + check_oracles(kf, wl.oracles)
    compared = first["compared"] + second["compared"]
    runs = len(first["cases"]) + len(second["cases"])
    attempted = runs + len(wl.oracles)
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    ok = sum(c[2] for c in first["cases"] + second["cases"])
    print(f"cases: {len(first['cases'])} per pass, {ok} of {runs} runs completed "
          f"in {first['wall'] + second['wall']:.3f} s; recorded values compared: {compared}; "
          f"oracle instances: {len(wl.oracles)}; "
          f"set-ups timed: {len(first['setups']) + len(second['setups'])}")
    print(f"fail_frac = {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and compared > 0 and len(wl.oracles) > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
