"""Sweep orchestration: per-modulus bound checks, dyadic-average checks, and
the named lemma grids, all emitting ordered BoundReport lists.

Every sweep is a sequence of zero-argument cells run one after another in a
fixed order by one loop, so a sweep's data columns are reproducible byte for
byte (wall-clock columns excepted).  The loop checks the wall-clock budget
before each cell: once the budget is spent it stops and marks the result
truncated, and a sweep that ran every cell is never truncated.  A cell
already running is not interrupted.  A ring holds no q-long table until
a cell reads one, so a spent budget builds none.
Every Lemma 2.1-2.4 cell is one count run by _count_cell, an exact count
against its reference; a Lemma 2.5 cell is the dyadic average
average_reciprocal_sweep reports itself.  A Lemma 2.1 cell counts the
fourth moment of the character sums as its exact orthogonality twin,
phi(q) times the multiplicative energy of the interval's units, with no
character sum; that count is characters._moment_count, which char-moment's
identity check also reads.  A short interval's energy is tallied over
residues mod q from q's primes alone, and only a cell whose lattice FFT is
the cheaper count builds the ring's unit-group index.  A Lemma 2.2 cell
counts its energy the same way.  The 2.1-2.3 builders build one ring per
modulus as their loop reaches it: cells run one at a time, so the last
modulus's ring and its tables are freed before the next modulus's cells
read any.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time

from .characters import _moment_count
from .counts import (
    average_reciprocal_sweep, multiplicative_energy, reciprocal_count_mod,
    reciprocal_count_rational,
)
from .reports import BoundReport, SweepResult, fit_exponent, make_report
from .ring import IntervalSet, _fft_plan, build_ring, check_work, is_prime
from .trilinear import TrilinearInstance, make_weights, theorem1_bounds, trilinear_fast

DEFAULT_GRIDS = {
    "2.1": {
        "qs": [5, 12, 97, 128, 360, 997, 1536, 1997],
        "ks": [0, 3],
        "Hs": [1, 2, 5, 16, 50, 160, 500, 997, 1997],
    },
    "2.2": {
        "qs": [12, 97, 360, 997, 1997],
        "intervals": [[0, 5], [3, 12], [0, 50], [7, 200], [0, 1997]],
    },
    "2.3": {
        "qs": [10, 97, 360, 499, 997, 1997],
        "Ks": [1, 2, 5, 20, 36, 120, 499, 997, 1997],
    },
    "2.4": {"r": 2, "Ks": [100, 150, 200, 250, 300, 350, 400, 450, 500]},
    "2.5": {"r": 2, "Qs": [50, 100], "Ks": [10, 100]},
}


def parse_int_list(text: str) -> list[int]:
    """Parse '3,5,9' and '100..110' (inclusive) forms, possibly mixed; a range
    is priced before it is expanded."""
    out: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo_text, hi_text = chunk.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty range {chunk!r}")
            # 90 B a modulus measured: this list and the sweep's set and sorted copy
            check_work(14 * (len(out) + hi - lo + 1), "14*moduli list words")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(chunk))
    if not out:
        raise ValueError(f"no integers in {text!r}")
    return out


def stable_seed(root_seed: int, *parts) -> int:
    """Platform-independent derivation of per-case seeds from one root."""
    text = ":".join([str(root_seed), *map(str, parts)])
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def resolve_interval(spec, q: int) -> IntervalSet:
    """Interval from a 'start:length' spec; length 'sqrt' means floor(sqrt(q))."""
    if isinstance(spec, IntervalSet):
        return spec
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return IntervalSet(int(spec[0]), int(spec[1]))
    if isinstance(spec, str):
        if ":" in spec:
            start_text, length_text = spec.split(":", 1)
        else:
            start_text, length_text = "0", spec
        length = math.isqrt(q) if length_text == "sqrt" else int(length_text)
        return IntervalSet(int(start_text), length)
    raise ValueError(f"cannot parse interval spec {spec!r}")


def _fit_or_none(points) -> float | None:
    try:
        return fit_exponent(points)
    except ValueError:
        return None


def _run_sweep(cells, fit_key: str, threshold: float, budget_ms: int | None) -> SweepResult:
    """Run the zero-argument cells in order, checking the budget before each;
    reports with ratio above the threshold are exceptions, and the exponent is
    fitted to (params[fit_key], measured)."""
    t0 = time.monotonic()
    reports: list[BoundReport] = []
    truncated = False
    for cell in cells:
        if budget_ms is not None and (time.monotonic() - t0) * 1000 >= budget_ms:
            truncated = True
            break
        reports.append(cell())
    points = [(r.params[fit_key], r.measured) for r in reports if r.measured > 0]
    return SweepResult(
        reports=reports,
        exceptions=sum(1 for r in reports if r.ratio is not None and r.ratio > threshold),
        fitted_exponent=_fit_or_none(points),
        truncated=truncated,
    )


def build_instance(
    q: int, l_spec, m_spec, n_spec, mode: str = "ones", seed: int = 0
) -> TrilinearInstance:
    """The weighted trilinear instance for modulus q: the three windows from
    their specs, the ring, and weights seeded by stable_seed(seed, q).  The
    window's lattice FFT, one chain of its three operands (a rough axis
    padded to >= 3n) at the 7 words a point of its plan, runs while
    the ring's tables are held, so the two are priced as one sum from
    ring.shape and refused before any table is built.  The window lives on
    its ring, so a sweep, which drops each instance before it builds the
    next, holds one ring and one window at a time."""
    l_int, m_int, n_int = (resolve_interval(spec, q) for spec in (l_spec, m_spec, n_spec))
    ring = build_ring(q)
    check_work(7 * q + _fft_plan(ring.shape, 3)[7], "7*q ring + 7*points FFT words")
    weights = make_weights(
        ring, l_int, mode=mode, seed=stable_seed(seed, q), m_interval=m_int, n_interval=n_int
    )
    return TrilinearInstance(ring, weights, m_int, n_int)


def verify_thm1_sweep(
    q_list,
    l_spec,
    m_spec,
    n_spec,
    mode: str = "ones",
    seed: int = 0,
    threshold: float = math.inf,
    budget_ms: int | None = None,
    primes: bool = False,
) -> SweepResult:
    """Per-modulus check of |S_q| against min of the two fixed-modulus
    envelopes; reports with ratio above the threshold count as exceptions.
    With primes, only the prime moduli run: each is tested as the sweep
    reaches it, so budget_ms also bounds the test."""
    qs = sorted(set(int(q) for q in q_list))
    if any(q < 2 for q in qs):
        raise ValueError("every modulus must be >= 2")

    def case(q: int) -> BoundReport:
        t0 = time.perf_counter()
        report = theorem1_bounds(build_instance(q, l_spec, m_spec, n_spec, mode, seed))
        params = {"mode": mode, "seed": seed, **report.params}
        return make_report(params, report.measured, report.reference, t0)

    cells = (functools.partial(case, q) for q in qs if not primes or is_prime(q))
    return _run_sweep(cells, "q", threshold, budget_ms)


def verify_thm2_sweep(
    Q: int,
    r: int,
    l_spec,
    m_spec,
    n_spec,
    mode: str = "ones",
    seed: int = 0,
    epsilon: float = 0.05,
    threshold: float = math.inf,
    budget_ms: int | None = None,
) -> SweepResult:
    """Dyadic-range check: every q in [Q, 2Q] against the averaged envelope
    (L + L^(1-1/2r) M^(1/2r)) (q^(2-1/2r) + N^(1/2) q^(3/2)).

    The exception count is meant to be compared with Q^(1-2*r*epsilon).
    """
    if Q < 2:
        raise ValueError(f"Q must be >= 2, got {Q}")
    if r < 2:
        raise ValueError(f"the averaged bound needs r >= 2, got {r}")

    def case(q: int) -> BoundReport:
        t0 = time.perf_counter()
        instance = build_instance(q, l_spec, m_spec, n_spec, mode, seed)
        measured = abs(trilinear_fast(instance))
        L = instance.weights.interval.length
        M, N = instance.m_interval.length, instance.n_interval.length
        reference = (L + L ** (1 - 1 / (2 * r)) * M ** (1 / (2 * r))) * (
            q ** (2 - 1 / (2 * r)) + math.sqrt(N) * q**1.5
        )
        params = {
            "q": q, "Q": Q, "r": r, "epsilon": epsilon,
            "L": L, "M": M, "N": N, "mode": mode, "seed": seed,
        }
        return make_report(params=params, measured=measured, reference=reference, t0=t0)

    cells = (functools.partial(case, q) for q in range(Q, 2 * Q + 1))
    return _run_sweep(cells, "q", threshold, budget_ms)


def allowed_exceptions(Q: int, r: int, epsilon: float) -> float:
    """Size allowance Q^(1 - 2*r*epsilon) for the dyadic exceptional set."""
    return Q ** (1 - 2 * r * epsilon)


def _count_cell(params: dict, count, *args) -> BoundReport:
    """count(*args), a CountReport, against its reference."""
    t0 = time.perf_counter()
    report = count(*args)
    return make_report(params, float(report.value), float(report.bound_value), t0)


def _lemma_21_cases(grid):
    for q in grid["qs"]:
        ring = build_ring(q)
        for k in grid["ks"]:
            for H in sorted({min(h, q) for h in grid["Hs"] if h >= 1}):
                count = (_moment_count, ring, IntervalSet(k, H))
                yield functools.partial(_count_cell, {"q": q, "k": k, "H": H}, *count)


def _lemma_22_cases(grid):
    for q in grid["qs"]:
        ring = build_ring(q)
        pairs = [(s, min(ln, q)) for s, ln in grid["intervals"]]
        for sa, la in pairs:
            for sb, lb in pairs:
                params = {"q": q, "a_start": sa, "A": la, "b_start": sb, "B": lb}
                yield functools.partial(
                    _count_cell, params, multiplicative_energy, ring,
                    IntervalSet(sa, la), IntervalSet(sb, lb),
                )


def _lemma_23_cases(grid):
    for q in grid["qs"]:
        ring = build_ring(q)
        for K in sorted({min(k, q) for k in grid["Ks"] if k >= 1}):
            params = {"q": q, "r": 2, "K": K}
            yield functools.partial(_count_cell, params, reciprocal_count_mod, ring, 2, K)


def _lemma_24_cases(grid):
    r = grid["r"]
    for K in grid["Ks"]:
        yield functools.partial(_count_cell, {"r": r, "K": K}, reciprocal_count_rational, r, K)


def _lemma_25_cases(grid):
    r = grid["r"]
    for Q in grid["Qs"]:
        for K in grid["Ks"]:
            if K <= Q:
                yield functools.partial(average_reciprocal_sweep, Q, r, K)


# each lemma's cases and fit key; its grid needs the keys of its DEFAULT_GRIDS entry
_LEMMA_BUILDERS = {
    "2.1": (_lemma_21_cases, "q"),
    "2.2": (_lemma_22_cases, "q"),
    "2.3": (_lemma_23_cases, "q"),
    "2.4": (_lemma_24_cases, "K"),
    "2.5": (_lemma_25_cases, "Q"),
}


def _grid_value_ok(key: str, value) -> bool:
    """r is an int; intervals a list of [start, length] int pairs; every
    other grid value a non-empty list of ints."""
    if key == "r":
        return type(value) is int
    if not isinstance(value, list) or not value:
        return False
    if key == "intervals":
        return all(isinstance(p, list) and [type(x) for x in p] == [int, int] for p in value)
    return all(type(x) is int for x in value)


def verify_lemma_sweeps(
    lemma: str,
    grid: dict | None = None,
    threshold: float = math.inf,
    budget_ms: int | None = None,
) -> SweepResult:
    """Run one of the named moment/count checks over its grid.

    ``grid`` overrides the documented default; each report carries the
    measured count or moment and the check's reference expression, and
    reports with ratio above the threshold count as exceptions.
    """
    if lemma not in _LEMMA_BUILDERS:
        raise ValueError(f"unknown lemma {lemma!r}; pick one of {sorted(_LEMMA_BUILDERS)}")
    builder, fit_key = _LEMMA_BUILDERS[lemma]
    if grid is None:
        grid = DEFAULT_GRIDS[lemma]
    if not isinstance(grid, dict):
        raise ValueError(f"invalid grid for lemma {lemma}: expected a JSON object, got {grid!r}")
    bad = [key for key in DEFAULT_GRIDS[lemma] if not _grid_value_ok(key, grid.get(key))]
    if bad:
        raise ValueError(f"invalid grid for lemma {lemma}: missing or malformed {bad}")

    return _run_sweep(builder(grid), fit_key, threshold, budget_ms)
