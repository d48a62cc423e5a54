"""Command-line front end.

One table, ``COMMANDS``, gives each subcommand's handler, help and flags.
A handler prints a short human summary and returns its reports as a
``SweepResult``; ``main`` alone emits them, when ``--out`` is given (``-``
means stdout), and alone sets the exit code: 0 on success, 1 when a report's
ratio exceeds ``--C``, 2 on usage errors, malformed input and work refused
as too large.  ``main`` also owns the run's clock: it reads
``time.perf_counter()`` once, just before it calls the handler, and passes
that start in, so a one-run report's ``runtime_ms`` spans the whole handler
(a sweep's cells time themselves).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .characters import fourth_moment_reference, moment_identity_check
from .counts import multiplicative_energy, reciprocal_count_rational, reciprocal_moment_identity
from .kloosterman import double_fast, double_naive, single_sum, weil_reference
from .reports import SweepResult, emit_report, make_report
from .ring import IntervalSet, build_ring, mod_inverse
from .sweeps import (
    DEFAULT_GRIDS,
    allowed_exceptions,
    build_instance,
    parse_int_list,
    resolve_interval,
    verify_lemma_sweeps,
    verify_thm1_sweep,
    verify_thm2_sweep,
)
from .trilinear import (
    WEIGHT_MODES, _check_naive_work, _check_trace_work, proof_trace, theorem1_bounds, trilinear_fast,
    trilinear_naive,
)


def _fmt(value) -> str:
    if isinstance(value, complex):
        return f"{value.real:.10g}{value.imag:+.10g}i"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _one_report(t0: float, params: dict, measured: float, reference: float) -> SweepResult:
    report = make_report(params=params, measured=measured, reference=reference, t0=t0)
    return SweepResult(reports=[report])


def cmd_ring_info(args, t0: float) -> None:
    ring = build_ring(args.q)
    # increasing, off the mask, whose read prices the ring before anything is printed
    units = ring.unit_mask.nonzero()[0]
    print(f"q = {ring.q}")
    print(f"phi(q) = {ring.phi}")
    print(f"tau(q) = {ring.tau}")
    print(f"units = {ring.phi} residues; smallest nontrivial unit inverse pairs:")
    for u in units[1:6]:  # units[0] is 1
        print(f"  inv({int(u)}) = {mod_inverse(ring, u)}")


def cmd_ksum(args, t0: float) -> SweepResult:
    ring = build_ring(args.q)
    value = single_sum(ring, args.m, args.n)
    reference = weil_reference(ring, args.m, args.n)
    print(f"K_{args.q}({args.m},{args.n}) = {_fmt(value)}")
    print(f"|K| = {_fmt(abs(value))}   weil_reference = {_fmt(reference)}")
    return _one_report(t0, {"q": args.q, "m": args.m, "n": args.n}, abs(value), reference)


def cmd_ksum2(args, t0: float) -> SweepResult:
    ring = build_ring(args.q)
    fn = double_naive if args.naive else double_fast
    value = fn(ring, args.l, args.m, args.n)
    print(f"K_{args.q}({args.l},{args.m},{args.n}) = {_fmt(value)}")
    print(f"|K| = {_fmt(abs(value))}   trivial = {ring.phi ** 2}")
    params = {"q": args.q, "l": args.l, "m": args.m, "n": args.n,
              "path": "naive" if args.naive else "fast"}
    return _one_report(t0, params, abs(value), float(ring.phi**2))


def cmd_trilinear(args, t0: float) -> SweepResult:
    if args.naive:  # trilinear_naive's price, before any table
        lengths = [resolve_interval(spec, args.q).length for spec in (args.L, args.M, args.N)]
        _check_naive_work(args.q, lengths)
    instance = build_instance(args.q, args.L, args.M, args.N, args.weights, args.seed)
    value = trilinear_naive(instance) if args.naive else trilinear_fast(instance)
    print(f"S_q = {_fmt(value)}   |S_q| = {_fmt(abs(value))}")
    bounds = theorem1_bounds(instance)
    for key in ("bound_b1", "bound_b2", "bound_trivial"):
        print(f"{key} = {_fmt(bounds.params[key])}")
    print(f"ratio vs min bound = {_fmt(bounds.ratio)}")
    params = {**bounds.params, "mode": args.weights, "seed": args.seed,
              "path": "naive" if args.naive else "fast"}
    return _one_report(t0, params, abs(value), bounds.reference)


def cmd_energy(args, t0: float) -> SweepResult:
    a_int = resolve_interval(args.A, args.q)
    b_int = resolve_interval(args.B, args.q)
    count = multiplicative_energy(build_ring(args.q), a_int, b_int)
    print(f"E(A,B) = {count.value}   reference = {_fmt(count.bound_value)}   "
          f"ratio = {_fmt(count.ratio)}")
    params = {"q": args.q, "a_start": a_int.start, "A": a_int.length,
              "b_start": b_int.start, "B": b_int.length}
    return _one_report(t0, params, float(count.value), float(count.bound_value))


def cmd_jr_mod(args, t0: float) -> SweepResult:
    ring = build_ring(args.q)
    identity, count = reciprocal_moment_identity(ring, args.r, args.K)
    print(f"J_{args.r}({args.q};{args.K}) = {count.value}")
    print(f"orthogonality identity = {_fmt(identity)} (exact {count.value})")
    if count.residual is None:
        print("FFT certificate residual = none (no FFT ran; counted by exact tally)")
    else:
        print(f"FFT certificate residual = {_fmt(count.residual)}")
    if count.bound_value is not None:
        print(f"reference = {_fmt(count.bound_value)}   ratio = {_fmt(count.ratio)}")
    params = {"q": args.q, "r": args.r, "K": args.K}
    return _one_report(t0, params, float(count.value), float(count.bound_value or 0.0))


def cmd_jr_rat(args, t0: float) -> SweepResult:
    count = reciprocal_count_rational(args.r, args.K)
    print(f"J_{args.r}({args.K}) = {count.value}   reference = {_fmt(count.bound_value)}"
          f"   ratio = {_fmt(count.ratio)}")
    params = {"r": args.r, "K": args.K}
    return _one_report(t0, params, float(count.value), float(count.bound_value))


def cmd_char_moment(args, t0: float) -> SweepResult:
    ring = build_ring(args.q)
    interval = IntervalSet(args.k, args.H)
    moment, twin = moment_identity_check(ring, interval)
    reference = fourth_moment_reference(args.q, ring.phi, args.H)
    print(f"fourth moment = {_fmt(moment)}   orthogonality twin = {_fmt(twin)}")
    print(f"moment / reference = {_fmt(moment / reference)}")
    params = {"q": args.q, "k": args.k, "H": args.H}
    return _one_report(t0, params, moment, reference)


def cmd_proof_trace(args, t0: float) -> SweepResult:
    _check_trace_work(args.q, resolve_interval(args.M, args.q).length)  # before any table
    instance = build_instance(args.q, args.L, args.M, args.N, args.weights, args.seed)
    trace = proof_trace(instance, args.r)
    gap = abs(trace.total - trace.fast_value)
    holder_max = max(
        (c.holder_ratio for c in trace.cells if c.holder_ratio is not None),
        default=0.0,
    )
    print(f"levels: M-side {trace.decomposition.levels_m}, "
          f"N-side {trace.decomposition.levels_n}; cells: {len(trace.cells)}")
    print(f"reconstruction |sum cells - S_q| = {_fmt(gap)}")
    print(f"max per-cell Hoelder ratio = {_fmt(holder_max)}")
    # every cell's runtime_ms is the whole run so far: build, trace and the
    # cells before it
    reports = [
        make_report(
            params={
                "q": args.q, "r": args.r, "i": cell.i, "sign_x": cell.sign_x,
                "j": cell.j, "sign_y": cell.sign_y,
                "mode": args.weights, "seed": args.seed,
            },
            measured=abs(cell.value),
            reference=cell.holder_bound,
            t0=t0,
        )
        for cell in trace.cells
    ]
    return SweepResult(reports=reports)


def _print_sweep(result: SweepResult, label: str) -> None:
    ratios = [r.ratio for r in result.reports if r.ratio is not None]
    print(f"{label}: {len(result.reports)} reports"
          + (", truncated" if result.truncated else ""))
    if ratios:
        print(f"max ratio = {_fmt(max(ratios))}")
    if result.fitted_exponent is not None:
        print(f"fitted exponent = {_fmt(result.fitted_exponent)}")
    print(f"exceptions = {result.exceptions}")


def cmd_verify_thm1(args, t0: float) -> SweepResult:
    result = verify_thm1_sweep(
        parse_int_list(args.q), args.L, args.M, args.N, mode=args.weights, seed=args.seed,
        threshold=args.C, budget_ms=args.budget_ms, primes=args.primes,
    )
    _print_sweep(result, "thm1 sweep")
    return result


def cmd_verify_thm2(args, t0: float) -> SweepResult:
    result = verify_thm2_sweep(
        args.Q, args.r, args.L, args.M, args.N,
        mode=args.weights, seed=args.seed, epsilon=args.epsilon,
        threshold=args.C, budget_ms=args.budget_ms,
    )
    _print_sweep(result, "thm2 sweep")
    print(f"allowed exceptions ~ Q^(1-2*r*eps) = "
          f"{_fmt(allowed_exceptions(args.Q, args.r, args.epsilon))}")
    return result


def cmd_verify_lemma(args, t0: float) -> SweepResult:
    grid = json.loads(args.grid) if args.grid else None
    result = verify_lemma_sweeps(args.lemma, grid, threshold=args.C, budget_ms=args.budget_ms)
    _print_sweep(result, f"lemma {args.lemma} sweep")
    return result


def _ints(*names: str) -> list:
    return [(name, {"type": int, "required": True}) for name in names]


# argparse reads a negative start given as its own word as a flag
_SPAN = "interval start:length; write a negative start as --%(dest)s=-3:7"


def _instance_flags(default_len: str = "sqrt") -> list:
    return [
        ("--L", {"default": f"0:{default_len}", "help": "weight " + _SPAN}),
        ("--M", {"default": f"0:{default_len}", "help": "M " + _SPAN}),
        ("--N", {"default": f"0:{default_len}", "help": "N " + _SPAN}),
        ("--weights", {"choices": WEIGHT_MODES, "default": "ones"}),
        ("--seed", {"type": int, "default": 0}),
    ]


_R = ("--r", {"type": int, "default": 2})
_NAIVE = ("--naive", {"action": "store_true", "help": "brute-force oracle path"})
_SWEEP = [
    ("--C", {"type": float, "default": math.inf, "help": "ratio threshold"}),
    ("--budget-ms", {"type": int, "default": 60000}),
]
_OUTPUT = [
    ("--format", {"choices": ("csv", "json"), "default": "csv"}),
    ("--out", {"help": "write the reports to this path; '-' = stdout"}),
]

# name: (handler, help, flags)
COMMANDS = {
    "ring-info": (cmd_ring_info, "residue ring summary", _ints("--q")),
    "ksum": (cmd_ksum, "single Kloosterman sum", _ints("--q", "--m", "--n")),
    "ksum2": (cmd_ksum2, "double Kloosterman sum", [*_ints("--q", "--l", "--m", "--n"), _NAIVE]),
    "trilinear": (cmd_trilinear, "weighted trilinear form",
                  [*_ints("--q"), *_instance_flags(), _NAIVE]),
    "energy": (cmd_energy, "multiplicative energy of two intervals", [
        *_ints("--q"),
        ("--A", {"required": True, "help": _SPAN}),
        ("--B", {"required": True, "help": _SPAN}),
    ]),
    "jr-mod": (cmd_jr_mod, "congruent reciprocal-sum count", [*_ints("--q"), _R, *_ints("--K")]),
    "jr-rat": (cmd_jr_rat, "equal reciprocal-sum count over Q", [_R, *_ints("--K")]),
    "char-moment": (cmd_char_moment, "fourth moment of character sums", [
        *_ints("--q"),
        ("--k", {"type": int, "default": 0, "help": "interval offset"}),
        ("--H", {"type": int, "required": True, "help": "interval length"}),
    ]),
    "proof-trace": (cmd_proof_trace, "dyadic cell trace of the fast form",
                    [*_ints("--q"), _R, *_instance_flags(default_len="8")]),
    "verify-thm1": (cmd_verify_thm1, "fixed-modulus bound sweep", [
        ("--q", {"required": True, "help": "moduli as '101,103' or '100..200', mixable"}),
        ("--primes", {"action": "store_true", "help": "keep only prime moduli"}),
        *_instance_flags(), *_SWEEP,
    ]),
    "verify-thm2": (cmd_verify_thm2, "dyadic-range averaged bound sweep", [
        *_ints("--Q"), _R, *_instance_flags(),
        ("--epsilon", {"type": float, "default": 0.05}), *_SWEEP,
    ]),
    "verify-lemma": (cmd_verify_lemma, "moment/count check over its grid", [
        ("--lemma", {"choices": tuple(DEFAULT_GRIDS), "required": True}),
        ("--grid", {"help": "JSON object overriding the default grid"}),
        *_SWEEP,
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kforms",
        description="Exact/fast evaluation and bound verification for double "
        "Kloosterman sums, trilinear forms, and modular counting quantities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        shared = [] if name == "ring-info" else _OUTPUT
        for flag, options in flags + shared:
            sub.add_argument(flag, **options)
        sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # an unwritable --out fails before the run; an existing file keeps its content
        if getattr(args, "out", None) not in (None, "-"):
            open(args.out, "a").close()
    except OSError as exc:
        print(f"error: io error writing report to {args.out}: {exc}", file=sys.stderr)
        return 2
    try:
        result = args.func(args, time.perf_counter())  # the run's clock starts here
        if result is not None and args.out is not None:
            emit_report(result, format=args.format, path=args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if result is not None and result.exceptions else 0


if __name__ == "__main__":
    sys.exit(main())
