"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see them on success)."""

import math
import time

import numpy as np
import pytest

from kforms import (
    IntervalSet,
    TrilinearInstance,
    build_characters,
    build_ring,
    centered_rep,
    double_fast,
    double_naive,
    dyadic_decomposition,
    energy_character_identity,
    fit_exponent,
    make_weights,
    moment_identity_check,
    multiplicative_energy,
    fourth_moment,
    is_prime,
    proof_trace,
    reciprocal_count_mod,
    reciprocal_count_naive,
    reciprocal_count_rational,
    single_sum,
    single_table,
    theorem1_bounds,
    trilinear_fast,
    trilinear_naive,
    verify_lemma_sweeps,
    verify_thm2_sweep,
    window_sums,
)
from conftest import random_interval


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    worst_double = 0.0
    for _ in range(200):
        q = int(rng.integers(2, 2001))
        ring = build_ring(q)
        l, m, n = (int(v) for v in rng.integers(-q, 2 * q, 3))
        gap = abs(double_fast(ring, l, m, n) - double_naive(ring, l, m, n))
        tol = 1e-8 * ring.phi**2
        assert gap <= tol
        worst_double = max(worst_double, gap / tol)

    worst_tri = 0.0
    for _ in range(50):
        q = int(rng.integers(2, 201))
        ring = build_ring(q)
        l_iv = random_interval(rng, q, max_len=10)
        m_iv = random_interval(rng, q, max_len=10)
        n_iv = random_interval(rng, q, max_len=10)
        mode = ("ones", "rademacher", "phase")[int(rng.integers(0, 3))]
        weights = make_weights(ring, l_iv, mode, seed=int(rng.integers(0, 2**31)))
        inst = TrilinearInstance(ring, weights, m_iv, n_iv)
        gap = abs(trilinear_fast(inst) - trilinear_naive(inst))
        tol = 1e-7 * l_iv.length * m_iv.length * n_iv.length * q
        assert gap <= tol
        worst_tri = max(worst_tri, gap / tol)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report(1, f"200 double + 50 trilinear oracle matches "
              f"(worst tol fractions {worst_double:.2e}, {worst_tri:.2e}; {elapsed:.1f}s)")


def test_criterion_2_exact_values():
    assert double_naive(build_ring(12), 0, 0, 0) == pytest.approx(16, abs=1e-9)
    assert double_naive(build_ring(7), 1, 0, 0) == pytest.approx(-6, abs=1e-9)
    assert single_sum(build_ring(5), 1, 1) == pytest.approx(0.3819660, abs=1e-6)
    assert double_naive(build_ring(5), 1, 1, 1) == pytest.approx(
        2.5450850 + 0.5020285j, abs=1e-6
    )
    report(2, "K_12(0,0,0), K_7(1,0,0), K_5(1,1), K_5(1,1,1) at stated tolerances")


def test_criterion_3_parseval():
    for q in (5, 12, 97, 360):
        ring = build_ring(q)
        n = 1  # coprime to every modulus in the list
        total = float(np.sum(np.abs(single_table(ring, n).values) ** 2))
        assert total == pytest.approx(q * ring.phi, rel=1e-6)
    report(3, "table Parseval mass q*phi(q) for q in {5, 12, 97, 360}")


def test_criterion_4_weil_bound_at_primes():
    t0 = time.perf_counter()
    violations = 0
    margins = {}
    for p in (101, 499):
        ring = build_ring(p)
        cap = 2 * math.sqrt(p)
        worst = 0.0
        for n in range(1, p):
            values = single_table(ring, n).values
            worst = max(worst, float(np.max(np.abs(values[1:p]))))
        if worst > cap:
            violations += 1
        margins[p] = cap - worst
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 60
    report(4, f"zero Weil violations at 101, 499 (margins {margins[101]:.3f}, "
              f"{margins[499]:.3f}; {elapsed:.1f}s)")


def test_criterion_5_character_identities():
    table5 = build_characters(build_ring(5))
    assert fourth_moment(table5, IntervalSet(0, 2)) == pytest.approx(24, abs=1e-6)

    rng = np.random.default_rng(55)
    for _ in range(50):
        q = int(rng.integers(2, 301))
        table = build_characters(build_ring(q))
        interval = IntervalSet(int(rng.integers(-q, q)), int(rng.integers(1, q + 1)))
        moment, twin = moment_identity_check(table, interval)
        if twin == 0:
            assert moment <= 1e-6
        else:
            assert moment == pytest.approx(twin, rel=1e-6)

    for _ in range(30):
        q = int(rng.integers(2, 301))
        ring = build_ring(q)
        table = build_characters(ring)
        a = random_interval(rng, q)
        b = random_interval(rng, q)
        energy = energy_character_identity(ring, table, a, b)[0]
        exact = multiplicative_energy(ring, a, b).value
        assert energy == pytest.approx(exact, rel=1e-6, abs=1e-6)
    report(5, "fourth moment 24 at q=5; 50 moment identities; 30 energy identities")


def test_criterion_6_exact_counts():
    assert multiplicative_energy(build_ring(5), IntervalSet(0, 2), IntervalSet(0, 2)).value == 6
    assert reciprocal_count_mod(build_ring(5), 2, 2).value == 6
    assert reciprocal_count_rational(2, 2).value == 6
    assert reciprocal_count_rational(2, 3).value == 15
    assert reciprocal_count_mod(build_ring(10), 1, 10).value == 4

    rng = np.random.default_rng(66)
    cases = [(2, 1, 1), (2, 2, 2), (500, 1, 500), (499, 2, 499)]
    while len(cases) < 24:
        q = int(rng.integers(2, 501))
        cases.append((q, int(rng.integers(1, 3)), int(rng.integers(1, q + 1))))
    for q, r, K in cases:
        ring = build_ring(q)
        assert reciprocal_count_mod(ring, r, K).value == reciprocal_count_naive(ring, r, K)
    report(6, "exact counts and convolution == naive tally on 24 cases, r in {1,2}")


def test_criterion_7_lemma_ratio_envelopes(locked):
    result21 = verify_lemma_sweeps("2.1")
    max21 = max(r.ratio for r in result21.reports)
    assert max21 <= locked["c1_fourth_moment_ratio"]

    result23 = verify_lemma_sweeps("2.3")
    max23 = max(r.ratio for r in result23.reports)
    assert max23 <= locked["c2_j2_mod_ratio"]

    result22 = verify_lemma_sweeps("2.2")
    max22 = max(r.ratio for r in result22.reports)
    assert max22 <= locked["c3_energy_ratio"]

    result25 = verify_lemma_sweeps("2.5")
    max25 = max(r.ratio for r in result25.reports)
    assert max25 <= locked["c5_average_j_ratio"]
    report(7, f"lemma ratios within locked envelopes "
              f"(C1 {max21:.6g} <= {locked['c1_fourth_moment_ratio']}, "
              f"C2 {max23:.6g} <= {locked['c2_j2_mod_ratio']}, "
              f"C3 {max22:.6g} <= {locked['c3_energy_ratio']})")


def test_criterion_8_rational_count_exponent(locked):
    points = [
        (K, reciprocal_count_rational(2, K).value) for K in range(100, 501, 50)
    ]
    slope = fit_exponent(points)
    lo, hi = locked["j2_rational_slope_bracket"]
    assert hi - lo <= 0.5
    assert lo <= 2.0 <= hi
    assert lo <= slope <= hi
    assert 1.8 <= slope <= 2.3
    report(8, f"J_2(K) slope {slope:.4f} inside locked bracket [{lo}, {hi}]")


def test_criterion_9_trace_reconstruction_and_partition():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        q = int(rng.integers(4, 301))
        ring = build_ring(q)
        l_iv = random_interval(rng, q, max_len=6)
        m_iv = IntervalSet(int(rng.integers(-q, q)), int(rng.integers(1, min(q, 7))))
        n_iv = IntervalSet(int(rng.integers(-q, q)), int(rng.integers(1, min(q, 7))))
        mode = ("ones", "rademacher", "phase")[int(rng.integers(0, 3))]
        weights = make_weights(ring, l_iv, mode, seed=int(rng.integers(0, 999)))
        inst = TrilinearInstance(ring, weights, m_iv, n_iv)
        r = int(rng.integers(1, 4))
        trace = proof_trace(inst, r)
        tol = 1e-7 * l_iv.length * m_iv.length * n_iv.length * q
        gap = abs(trace.total - trilinear_naive(inst))
        assert gap <= tol
        worst = max(worst, gap / tol)
        for cell in trace.cells:
            if cell.holder_ratio is not None:
                assert cell.holder_ratio <= 1 + 1e-9

    for q in range(2, 501):
        ring = build_ring(q)
        expected = np.sort(np.asarray(centered_rep(ring, ring.units)))
        for m_len in (1, 2, 3, max(1, q // 2), q):
            dec = dyadic_decomposition(ring, m_len, 1)
            pieces = [v for v in dec.q_sets.values() if v.size]
            combined = np.sort(np.concatenate(pieces))
            assert np.array_equal(combined, expected)
    report(9, f"20 trace reconstructions (worst tol fraction {worst:.2e}); "
              f"partition exact for all q <= 500; Hoelder never violated")


def test_criterion_10_theorem_harnesses(locked):
    worst_ratio = 0.0
    checked = 0
    for q in range(100, 1001):
        if not is_prime(q):
            continue
        ring = build_ring(q)
        side = IntervalSet(0, math.isqrt(q))
        weights = make_weights(ring, side, "extremal", m_interval=side, n_interval=side)
        inst = TrilinearInstance(ring, weights, side, side)
        value = trilinear_fast(inst)
        total = float(np.sum(np.abs(window_sums(ring, side, side, side))))
        # equality by construction, up to accumulated rounding
        assert abs(abs(value) - total) <= 1e-9 * max(total, 1.0)
        rep = theorem1_bounds(inst)
        assert rep.ratio <= locked["c4_thm1_extremal_ratio"]
        worst_ratio = max(worst_ratio, rep.ratio)
        checked += 1
    assert checked == 143  # primes in [100, 1000]

    counts = {}
    for Q in (50, 100):
        runs = [
            verify_thm2_sweep(Q, 2, "0:5", "0:5", "0:5", mode="phase", seed=1,
                              threshold=1.0).exceptions
            for _ in range(2)
        ]
        assert runs[0] == runs[1]  # report-only, but deterministic
        counts[Q] = runs[0]
    report(10, f"thm1 extremal equality + ratio <= C4 ({worst_ratio:.6g}) on 143 primes; "
               f"thm2 exception counts {counts} stable across reruns")
