"""Command-line front end.

Every subcommand prints a short human summary to stdout; ``--format`` with
``--out`` (default stdout) additionally emits the underlying reports as CSV
or JSON.  Exit codes: 0 on success, 1 when any ratio exceeds the --C
threshold, 2 on usage errors and on work refused as too large.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .characters import moment_identity_check
from .counts import (
    multiplicative_energy,
    reciprocal_count_rational,
    reciprocal_moment_identity,
)
from .kloosterman import double_fast, double_naive, single_sum, weil_reference
from .reports import SweepResult, emit_report, make_report
from .ring import IntervalSet, build_ring, check_work, euler_phi, is_prime
from .sweeps import (
    allowed_exceptions,
    build_instance,
    parse_int_list,
    resolve_interval,
    verify_lemma_sweeps,
    verify_thm1_sweep,
    verify_thm2_sweep,
)
from .trilinear import proof_trace, theorem1_bounds, trilinear_fast, trilinear_naive


def _fmt(value) -> str:
    if isinstance(value, complex):
        return f"{value.real:.10g}{value.imag:+.10g}i"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _maybe_emit(args, result: SweepResult) -> None:
    if args.out != "-" or args.emit:
        emit_report(result, format=args.format, path=args.out)


def _emit_one(args, t0: float, params: dict, measured: float, reference: float) -> int:
    report = make_report(params=params, measured=measured, reference=reference, t0=t0)
    _maybe_emit(args, SweepResult(reports=[report]))
    return 0


def cmd_ring_info(args) -> int:
    ring = build_ring(args.q)
    print(f"q = {ring.q}")
    print(f"phi(q) = {ring.phi}")
    print(f"tau(q) = {ring.tau}")
    print(f"units = {ring.phi} residues; smallest nontrivial unit inverse pairs:")
    shown = 0
    for u in ring.units:
        if u > 1 and shown < 5:
            print(f"  inv({int(u)}) = {int(ring.inv_table[u])}")
            shown += 1
    return 0


def cmd_ksum(args) -> int:
    t0 = time.perf_counter()
    ring = build_ring(args.q)
    value = single_sum(ring, args.m, args.n)
    reference = weil_reference(ring, args.m, args.n)
    print(f"K_{args.q}({args.m},{args.n}) = {_fmt(value)}")
    print(f"|K| = {_fmt(abs(value))}   weil_reference = {_fmt(reference)}")
    return _emit_one(args, t0, {"q": args.q, "m": args.m, "n": args.n}, abs(value), reference)


def cmd_ksum2(args) -> int:
    t0 = time.perf_counter()
    if args.naive:
        check_work(euler_phi(args.q) ** 2, "phi^2")
    ring = build_ring(args.q)
    fn = double_naive if args.naive else double_fast
    value = fn(ring, args.l, args.m, args.n)
    print(f"K_{args.q}({args.l},{args.m},{args.n}) = {_fmt(value)}")
    print(f"|K| = {_fmt(abs(value))}   trivial = {ring.phi ** 2}")
    params = {"q": args.q, "l": args.l, "m": args.m, "n": args.n,
              "path": "naive" if args.naive else "fast"}
    return _emit_one(args, t0, params, abs(value), float(ring.phi**2))


def cmd_trilinear(args) -> int:
    t0 = time.perf_counter()
    if args.naive:
        lengths = [resolve_interval(spec, args.q).length for spec in (args.L, args.M, args.N)]
        check_work(math.prod(lengths) * euler_phi(args.q) ** 2, "L*M*N*phi^2")
    instance = build_instance(args.q, args.L, args.M, args.N, args.weights, args.seed)
    value = trilinear_naive(instance) if args.naive else trilinear_fast(instance)
    print(f"S_q = {_fmt(value)}   |S_q| = {_fmt(abs(value))}")
    bounds = theorem1_bounds(instance)
    for key in ("bound_b1", "bound_b2", "bound_trivial"):
        print(f"{key} = {_fmt(bounds.params[key])}")
    print(f"ratio vs min bound = {_fmt(bounds.ratio)}")
    params = {**bounds.params, "mode": args.weights, "seed": args.seed,
              "path": "naive" if args.naive else "fast"}
    return _emit_one(args, t0, params, abs(value), bounds.reference)


def cmd_energy(args) -> int:
    t0 = time.perf_counter()
    ring = build_ring(args.q)
    a_int = resolve_interval(args.A, args.q)
    b_int = resolve_interval(args.B, args.q)
    count = multiplicative_energy(ring, a_int, b_int)
    print(f"E(A,B) = {count.value}   reference = {_fmt(count.bound_value)}   "
          f"ratio = {_fmt(count.ratio)}")
    params = {"q": args.q, "a_start": a_int.start, "A": a_int.length,
              "b_start": b_int.start, "B": b_int.length}
    return _emit_one(args, t0, params, float(count.value), float(count.bound_value))


def cmd_jr_mod(args) -> int:
    t0 = time.perf_counter()
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
    return _emit_one(args, t0, params, float(count.value), float(count.bound_value or 0.0))


def cmd_jr_rat(args) -> int:
    t0 = time.perf_counter()
    count = reciprocal_count_rational(args.r, args.K)
    print(f"J_{args.r}({args.K}) = {count.value}   reference = {_fmt(count.bound_value)}"
          f"   ratio = {_fmt(count.ratio)}")
    params = {"r": args.r, "K": args.K}
    return _emit_one(args, t0, params, float(count.value), float(count.bound_value))


def cmd_char_moment(args) -> int:
    t0 = time.perf_counter()
    table = build_ring(args.q).characters
    interval = IntervalSet(args.k, args.H)
    moment, twin = moment_identity_check(table, interval)
    print(f"fourth moment = {_fmt(moment)}   orthogonality twin = {_fmt(twin)}")
    print(f"moment / H^2 = {_fmt(moment / args.H ** 2)}")
    params = {"q": args.q, "k": args.k, "H": args.H}
    return _emit_one(args, t0, params, moment, float(args.H**2))


def cmd_proof_trace(args) -> int:
    t0 = time.perf_counter()
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
    _maybe_emit(args, SweepResult(reports=reports))
    return 0


def _print_sweep(result: SweepResult, label: str) -> None:
    ratios = [r.ratio for r in result.reports if r.ratio is not None]
    print(f"{label}: {len(result.reports)} reports"
          + (", truncated" if result.truncated else ""))
    if ratios:
        print(f"max ratio = {_fmt(max(ratios))}")
    if result.fitted_exponent is not None:
        print(f"fitted exponent = {_fmt(result.fitted_exponent)}")
    print(f"exceptions = {result.exceptions}")


def cmd_verify_thm1(args) -> int:
    qs = parse_int_list(args.q)
    if args.primes:
        qs = [q for q in qs if is_prime(q)]
    result = verify_thm1_sweep(
        qs, args.L, args.M, args.N,
        mode=args.weights, seed=args.seed, threshold=args.C,
        budget_ms=args.budget_ms,
    )
    _print_sweep(result, "thm1 sweep")
    _maybe_emit(args, result)
    return 1 if result.exceptions else 0


def cmd_verify_thm2(args) -> int:
    result = verify_thm2_sweep(
        args.Q, args.r, args.L, args.M, args.N,
        mode=args.weights, seed=args.seed, epsilon=args.epsilon,
        threshold=args.C, budget_ms=args.budget_ms,
    )
    _print_sweep(result, "thm2 sweep")
    print(f"allowed exceptions ~ Q^(1-2*r*eps) = "
          f"{_fmt(allowed_exceptions(args.Q, args.r, args.epsilon))}")
    _maybe_emit(args, result)
    return 1 if result.exceptions else 0


def cmd_verify_lemma(args) -> int:
    grid = json.loads(args.grid) if args.grid else None
    result = verify_lemma_sweeps(args.lemma, grid=grid, budget_ms=args.budget_ms)
    _print_sweep(result, f"lemma {args.lemma} sweep")
    ratios = [r.ratio for r in result.reports if r.ratio is not None]
    _maybe_emit(args, result)
    return 1 if ratios and max(ratios) > args.C else 0


def _add_output_flags(sub) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default="-", help="report destination; '-' = stdout")
    sub.add_argument("--emit", action="store_true",
                     help="emit the report even when --out is stdout")


def _add_instance_flags(sub, default_len="sqrt") -> None:
    sub.add_argument("--L", default=f"0:{default_len}", help="weight interval start:length")
    sub.add_argument("--M", default=f"0:{default_len}", help="M interval start:length")
    sub.add_argument("--N", default=f"0:{default_len}", help="N interval start:length")
    sub.add_argument("--weights", choices=("ones", "rademacher", "phase", "extremal"),
                     default="ones")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kforms",
        description="Exact/fast evaluation and bound verification for double "
        "Kloosterman sums, trilinear forms, and modular counting quantities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("ring-info", help="residue ring summary")
    sub.add_argument("--q", type=int, required=True)
    sub.set_defaults(func=cmd_ring_info)

    sub = subs.add_parser("ksum", help="single Kloosterman sum")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_ksum)

    sub = subs.add_parser("ksum2", help="double Kloosterman sum")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--l", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--naive", action="store_true", help="brute-force oracle path")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_ksum2)

    sub = subs.add_parser("trilinear", help="weighted trilinear form")
    sub.add_argument("--q", type=int, required=True)
    _add_instance_flags(sub)
    sub.add_argument("--naive", action="store_true", help="brute-force oracle path")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_trilinear)

    sub = subs.add_parser("energy", help="multiplicative energy of two intervals")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--A", required=True, help="interval start:length")
    sub.add_argument("--B", required=True, help="interval start:length")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_energy)

    sub = subs.add_parser("jr-mod", help="congruent reciprocal-sum count")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--r", type=int, default=2)
    sub.add_argument("--K", type=int, required=True)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_jr_mod)

    sub = subs.add_parser("jr-rat", help="equal reciprocal-sum count over Q")
    sub.add_argument("--r", type=int, default=2)
    sub.add_argument("--K", type=int, required=True)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_jr_rat)

    sub = subs.add_parser("char-moment", help="fourth moment of character sums")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--k", type=int, default=0, help="interval offset")
    sub.add_argument("--H", type=int, required=True, help="interval length")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_char_moment)

    sub = subs.add_parser("proof-trace", help="dyadic cell trace of the fast form")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--r", type=int, default=2)
    _add_instance_flags(sub, default_len="8")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_proof_trace)

    sub = subs.add_parser("verify-thm1", help="fixed-modulus bound sweep")
    sub.add_argument("--q", required=True,
                     help="moduli as '101,103' or '100..200', mixable")
    sub.add_argument("--primes", action="store_true", help="keep only prime moduli")
    _add_instance_flags(sub)
    sub.add_argument("--C", type=float, default=math.inf, help="ratio threshold")
    sub.add_argument("--budget-ms", type=int, default=60000)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_verify_thm1)

    sub = subs.add_parser("verify-thm2", help="dyadic-range averaged bound sweep")
    sub.add_argument("--Q", type=int, required=True)
    sub.add_argument("--r", type=int, default=2)
    _add_instance_flags(sub)
    sub.add_argument("--epsilon", type=float, default=0.05)
    sub.add_argument("--C", type=float, default=math.inf, help="ratio threshold")
    sub.add_argument("--budget-ms", type=int, default=60000)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_verify_thm2)

    sub = subs.add_parser("verify-lemma", help="moment/count check over its grid")
    sub.add_argument("--lemma", choices=("2.1", "2.2", "2.3", "2.4", "2.5"),
                     required=True)
    sub.add_argument("--grid", help="JSON object overriding the default grid")
    sub.add_argument("--C", type=float, default=math.inf, help="ratio threshold")
    sub.add_argument("--budget-ms", type=int, default=60000)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_verify_lemma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
