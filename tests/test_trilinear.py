import gc
import itertools
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import kforms.ring
import kforms.sweeps
import kforms.trilinear
from kforms import (
    IntervalSet,
    TrilinearInstance,
    WeightVector,
    build_ring,
    centered_rep,
    double_fast,
    double_naive,
    dyadic_decomposition,
    make_weights,
    proof_trace,
    theorem1_bounds,
    trilinear_fast,
    trilinear_naive,
    verify_thm1_sweep,
    verify_thm2_sweep,
    window_sums,
)
from kforms.cli import main
from kforms.trilinear import _unit_window, _window_gather
from conftest import random_interval

WEIGHT_TOL = 1e-12


def small_instance(q, l_iv, m_iv, n_iv, mode="ones", seed=0):
    ring = build_ring(q)
    weights = make_weights(ring, l_iv, mode, seed=seed, m_interval=m_iv, n_interval=n_iv)
    return TrilinearInstance(ring, weights, m_iv, n_iv)


class TestMakeWeights:
    def test_ones_supported_on_units(self):
        ring = build_ring(12)
        weights = make_weights(ring, IntervalSet(0, 12), "ones")
        members = weights.interval.members()
        for member, w in zip(members, weights.weights):
            expected = 1.0 if math.gcd(int(member), 12) == 1 else 0.0
            assert w == expected
        weights.validate(ring)

    def test_rademacher_values(self):
        ring = build_ring(30)
        weights = make_weights(ring, IntervalSet(0, 30), "rademacher", seed=9)
        for member, w in zip(weights.interval.members(), weights.weights):
            if math.gcd(int(member), 30) == 1:
                assert w in (-1, 1)
            else:
                assert w == 0
        weights.validate(ring)

    def test_phase_unit_modulus(self):
        ring = build_ring(23)
        weights = make_weights(ring, IntervalSet(0, 23), "phase", seed=3)
        mags = np.abs(weights.weights[ring.unit_mask[weights.interval.members() % 23]])
        assert np.allclose(mags, 1)

    def test_deterministic_given_seed(self):
        ring = build_ring(101)
        a = make_weights(ring, IntervalSet(5, 40), "phase", seed=77)
        b = make_weights(ring, IntervalSet(5, 40), "phase", seed=77)
        c = make_weights(ring, IntervalSet(5, 40), "phase", seed=78)
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_extremal_attains_window_total(self):
        side = IntervalSet(0, 9)
        # 360 puts 7 of the 9 weights on non-units, where they are zero
        for q in (97, 360):
            inst = small_instance(q, side, side, side, mode="extremal")
            on_units = inst.ring.unit_mask[side.members() % q]
            total = np.sum(np.abs(window_sums(inst.ring, side, side, side))[on_units])
            value = trilinear_fast(inst)
            assert abs(value) == pytest.approx(total, rel=1e-9)
            assert abs(value.imag) <= 1e-9 * max(total, 1)

    def test_extremal_needs_windows(self):
        ring = build_ring(11)
        with pytest.raises(ValueError, match="extremal"):
            make_weights(ring, IntervalSet(0, 5), "extremal")

    def test_unknown_mode(self):
        ring = build_ring(11)
        with pytest.raises(ValueError, match="weight mode"):
            make_weights(ring, IntervalSet(0, 5), "gaussian")


class TestTrilinearEvaluation:
    def test_single_cell_is_double_sum(self):
        inst = small_instance(5, IntervalSet(0, 1), IntervalSet(0, 1), IntervalSet(0, 1))
        expected = 2.5450850 + 0.5020285j
        assert trilinear_naive(inst) == pytest.approx(expected, abs=1e-6)
        assert trilinear_fast(inst) == pytest.approx(expected, abs=1e-6)

    def test_zero_weights(self):
        ring = build_ring(19)
        weights = WeightVector(IntervalSet(0, 6), np.zeros(6, dtype=complex))
        inst = TrilinearInstance(ring, weights, IntervalSet(0, 4), IntervalSet(0, 4))
        assert trilinear_naive(inst) == 0
        assert trilinear_fast(inst) == 0

    def test_full_residue_window_vanishes(self):
        q = 13
        inst = small_instance(q, IntervalSet(0, 5), IntervalSet(0, q), IntervalSet(2, 4),
                              mode="phase", seed=5)
        assert abs(trilinear_fast(inst)) <= 1e-9 * 5 * q * 4
        assert abs(trilinear_naive(inst)) <= 1e-9 * 5 * q * 4

    def test_fast_matches_naive_random(self):
        rng = np.random.default_rng(61)
        for _ in range(12):
            q = int(rng.integers(2, 200))
            l_iv = random_interval(rng, q, max_len=min(q, 8))
            m_iv = random_interval(rng, q, max_len=min(q, 8))
            n_iv = random_interval(rng, q, max_len=min(q, 8))
            mode = ("ones", "rademacher", "phase")[int(rng.integers(0, 3))]
            inst = small_instance(q, l_iv, m_iv, n_iv, mode=mode, seed=int(rng.integers(0, 999)))
            gap = abs(trilinear_fast(inst) - trilinear_naive(inst))
            assert gap <= 1e-7 * l_iv.length * m_iv.length * n_iv.length * q

    def test_linearity(self):
        q = 89
        ring = build_ring(q)
        l_iv, m_iv, n_iv = IntervalSet(0, 10), IntervalSet(3, 7), IntervalSet(-4, 9)
        alpha = make_weights(ring, l_iv, "phase", seed=1)
        beta = make_weights(ring, l_iv, "rademacher", seed=2)
        mixed = WeightVector(l_iv, 0.5 * alpha.weights + 0.5 * beta.weights)
        s_mixed = trilinear_fast(TrilinearInstance(ring, mixed, m_iv, n_iv))
        s_alpha = trilinear_fast(TrilinearInstance(ring, alpha, m_iv, n_iv))
        s_beta = trilinear_fast(TrilinearInstance(ring, beta, m_iv, n_iv))
        assert s_mixed == pytest.approx(0.5 * s_alpha + 0.5 * s_beta, abs=1e-8 * q)
        scaled = WeightVector(l_iv, 0.25j * alpha.weights)
        assert trilinear_fast(TrilinearInstance(ring, scaled, m_iv, n_iv)) == pytest.approx(
            0.25j * s_alpha, abs=1e-8 * q
        )

    def test_conjugation_via_reflected_double_sums(self):
        q = 31
        ring = build_ring(q)
        l_iv, m_iv, n_iv = IntervalSet(0, 5), IntervalSet(1, 4), IntervalSet(-2, 6)
        weights = make_weights(ring, l_iv, "phase", seed=8)
        inst = TrilinearInstance(ring, weights, m_iv, n_iv)
        direct = np.conj(trilinear_fast(inst))
        rebuilt = 0j
        for l, alpha in zip(l_iv.members(), weights.weights):
            block = 0j
            for m in m_iv.members():
                for n in n_iv.members():
                    block += double_fast(ring, q - int(l) % q, int(m), int(n))
            rebuilt += np.conj(alpha) * block
        assert direct == pytest.approx(rebuilt, abs=1e-7 * q)


class TestWindowSums:
    def test_twists_fold_into_weights(self):
        # a non-unit l is served by the O(phi) gather, whose weights carry
        # the twists e_q(m*inv(x)) and e_q(n*inv(y)) of the M and N windows
        rng = np.random.default_rng(62)
        for _ in range(10):
            q = int(rng.integers(3, 200))
            ring = build_ring(q)
            l = int(rng.choice(np.flatnonzero(~ring.unit_mask))) + q * int(rng.integers(-2, 3))
            m_iv, n_iv = (IntervalSet(int(rng.integers(-q, q)), int(rng.integers(1, 4)))
                          for _ in range(2))
            folded = window_sums(ring, IntervalSet(l - 1, 1), m_iv, n_iv)[0]
            oracle = sum(double_naive(ring, l, int(m), int(n))
                         for m in m_iv.members() for n in n_iv.members())
            assert folded == pytest.approx(oracle, abs=1e-8 * 9 * ring.phi**2)

    @pytest.mark.parametrize("q", [97, 360, 1009, 2310])
    def test_kloosterman_sum_is_the_one_point_window(self, q):
        # K_q(l, m, n) is W_l at M = {m}, N = {n}: double_fast against the
        # unit window (a unit l) or the gather (a non-unit l), with each of
        # l, m and n a unit or not, shifted off [0, q) as well
        ring = build_ring(q)
        rng = np.random.default_rng(q)
        pools = (ring.units, np.flatnonzero(~ring.unit_mask))
        for kinds in np.ndindex(2, 2, 2):
            for _ in range(2):
                l, m, n = (int(rng.choice(pools[k])) + q * int(rng.integers(-1, 2))
                           for k in kinds)
                window = window_sums(ring, *(IntervalSet(x - 1, 1) for x in (l, m, n)))[0]
                assert abs(double_fast(ring, l, m, n) - window) <= 1e-9 * ring.phi**2


    def test_non_unit_gathers_priced_before_they_run(self, monkeypatch):
        # ~600,000 non-units at q = 10^6, each an O(phi) gather of 6.5-7 ms:
        # len(ls)*phi ~ 2.4e11 elements are refused before the first one, and
        # before the unit window's lattice FFT
        ring = build_ring(10**6)
        monkeypatch.setattr(kforms.trilinear, "_lattice_convolution", None)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"dimension too large: len\(ls\)\*phi gather"):
            window_sums(ring, IntervalSet(0, 10**6), IntervalSet(0, 10), IntervalSet(0, 10))
        assert time.perf_counter() - t0 < 1

class TestDyadicDecomposition:
    def test_documented_level_sets(self):
        ring = build_ring(100)
        dec = dyadic_decomposition(ring, 10, 10)
        assert dec.levels_m == 2  # ceil(log 5)
        assert sorted(dec.q_sets[(0, 1)].tolist()) == [1, 3, 7, 9]

    def test_tight_window(self):
        ring = build_ring(7)
        dec = dyadic_decomposition(ring, 7, 7)
        assert sorted(dec.q_sets[(0, 1)].tolist()) == [1]

    def test_short_windows_collapse_to_level_zero(self):
        ring = build_ring(101)
        for length in (1, 2):
            dec = dyadic_decomposition(ring, length, length)
            assert dec.levels_m == 0
            combined = np.concatenate([dec.q_sets[(0, 1)], dec.q_sets[(0, -1)]])
            assert combined.size == ring.phi

    def test_partition_is_exact(self):
        rng = np.random.default_rng(63)
        for _ in range(40):
            q = int(rng.integers(2, 500))
            ring = build_ring(q)
            m_len = int(rng.integers(1, q + 1))
            dec = dyadic_decomposition(ring, m_len, 1)
            pieces = [v for v in dec.q_sets.values() if v.size]
            combined = np.concatenate(pieces) if pieces else np.array([], dtype=int)
            expected = np.sort(np.asarray(centered_rep(ring, ring.units)))
            assert np.array_equal(np.sort(combined), expected)

    def test_bad_lengths(self):
        with pytest.raises(ValueError, match="lengths"):
            dyadic_decomposition(build_ring(10), 0, 5)


class TestProofTrace:
    def test_reconstruction_against_naive(self):
        inst = small_instance(101, IntervalSet(0, 10), IntervalSet(0, 10), IntervalSet(0, 10))
        trace = proof_trace(inst, 2)
        oracle = trilinear_naive(inst)
        assert abs(trace.total - oracle) <= 1e-7 * 10 * 10 * 10 * 101
        assert abs(trace.total - trace.fast_value) <= 1e-9 * 101 * 10

    def test_holder_never_violated(self):
        rng = np.random.default_rng(64)
        for r in (1, 2, 3):
            q = int(rng.integers(20, 250))
            inst = small_instance(
                q,
                random_interval(rng, q, max_len=8),
                IntervalSet(int(rng.integers(-q, q)), int(rng.integers(1, min(q, 12)))),
                IntervalSet(int(rng.integers(-q, q)), int(rng.integers(1, min(q, 12)))),
                mode="phase",
                seed=r,
            )
            trace = proof_trace(inst, r)
            for cell in trace.cells:
                if cell.holder_ratio is not None:
                    assert cell.holder_ratio <= 1 + 1e-9
                else:
                    assert abs(cell.value) <= 1e-9

    def test_one_ratio_rule_at_negative_references(self, monkeypatch):
        # a moment check and every trace cell take their ratio from
        # reports._ratio: with every reference negated, every ratio is None
        assert kforms.trilinear._moment_check(3.0, -2.0).ratio is None
        assert kforms.trilinear._moment_check(3.0, 2.0).ratio == 1.5
        ratio = kforms.trilinear._ratio
        monkeypatch.setattr(kforms.trilinear, "_ratio", lambda value, ref: ratio(value, -ref))
        inst = small_instance(97, IntervalSet(0, 8), IntervalSet(0, 8), IntervalSet(0, 8))
        trace = proof_trace(inst, 2)
        assert trace.cells and all(cell.holder_ratio is None for cell in trace.cells)
        checks = [*trace.first_moments.values(), *trace.second_moments.values()]
        assert all(check.ratio is None for check in checks)

    def test_moment_references_positive(self):
        inst = small_instance(97, IntervalSet(0, 8), IntervalSet(0, 8), IntervalSet(0, 8))
        trace = proof_trace(inst, 2)
        for check in trace.first_moments.values():
            assert check.reference == 97 * 8
        for check in trace.y_moments.values():
            assert check.reference > 0
            assert check.value >= 0

    def test_collision_sums_hold_no_pair_array(self):
        # an array of L x |level set| entries would take ~90 MB here.  The
        # peak is tracemalloc's, which does not see numpy's FFT scratch (one
        # length-10^6+3 ifft raises ru_maxrss from 56 to 186 MB for a 16 MB
        # output); the (48 + 4*levels)*q trace price still covers that
        ring = build_ring(10007)
        side = IntervalSet(0, 100)
        weights = make_weights(ring, IntervalSet(0, 1000), "phase", seed=1)
        inst = TrilinearInstance(ring, weights, side, side)
        tracemalloc.start()
        try:
            proof_trace(inst, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_reciprocal_phase_maps_are_not_kept(self):
        # the T stack, one row per M-side level set, plus a fixed number of
        # length-q arrays, not one more per N-side level set: a tracemalloc
        # peak, blind to numpy's FFT scratch, which the (48 + 4*levels)*q
        # trace price still covers
        q = 30011
        ring = build_ring(q)
        side = IntervalSet(0, 173)
        inst = TrilinearInstance(ring, make_weights(ring, IntervalSet(0, 50)), side, side)
        tracemalloc.start()
        try:
            trace = proof_trace(inst, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.y_moments) == 12
        assert peak <= (len(trace.first_moments) + 16) * 16 * q

    def test_collision_sums_held_at_the_units(self):
        # T vanishes off the units, so the T stack is phi wide: at q = 97,200
        # (phi = 25,920) its 14 rows take 5.8 MB, and q-wide rows (21.8 MB)
        # would exceed the bound, the stack plus 12 length-q arrays
        q = 97200
        side = IntervalSet(0, 311)
        inst = small_instance(q, side, side, side, mode="phase", seed=1)
        tracemalloc.start()
        try:
            trace = proof_trace(inst, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * (len(trace.first_moments) * inst.ring.phi + 12 * q)

    def test_unsupported_r(self):
        inst = small_instance(11, IntervalSet(0, 3), IntervalSet(0, 3), IntervalSet(0, 3))
        with pytest.raises(ValueError, match="r unsupported"):
            proof_trace(inst, 4)

    def test_windows_longer_than_q_refused(self):
        inst = small_instance(11, IntervalSet(0, 3), IntervalSet(0, 12), IntervalSet(0, 3))
        with pytest.raises(ValueError, match="trace needs M, N <= q"):
            proof_trace(inst, 2)

    def test_reciprocal_count_over_budget_refused_before_the_t_maps(self, monkeypatch):
        # J_3's rows take one FFT of 7 words a padded point (the axis padded
        # to >= 3q); a budget one word short of that refuses it, and the trace
        # stops there before any T-map convolution runs.  The trace's own
        # (48 + 4*levels)*q price is larger, so it is let through here
        q = 400009
        side = IntervalSet(0, 632)
        inst = small_instance(q, IntervalSet(0, 10), side, side, mode="phase", seed=1)

        def unexpected(*args, **kwargs):
            raise AssertionError("a T map was convolved")

        points = math.prod(kforms.ring._fft_plan((q,), 3)[0])
        monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", 7 * points - 1)
        monkeypatch.setattr(kforms.trilinear, "check_work", lambda work, label: None)
        monkeypatch.setattr(kforms.trilinear, "_lattice_convolution", unexpected)
        with pytest.raises(ValueError, match=r"7\*points FFT words"):
            proof_trace(inst, 3)

    def test_r3_trace_with_a_j3_total_past_2_52(self):
        # J_3 at the top level counts K = 166,466 units, whose total K^3
        # passes 2^52: its FFT is certified entry by entry, and the trace runs
        q = 170003
        side = IntervalSet(0, 412)
        inst = small_instance(q, side, side, side, mode="phase", seed=1)
        trace = proof_trace(inst, 3)
        assert abs(trace.total - trace.fast_value) <= 1e-9 * 412**3

    def test_alpha_transformed_once_at_a_small_prime(self, monkeypatch):
        # sweep_small's heavy size: at q = 2503 the 10 level sets of the M side
        # are the rows of one kernel call with alpha, whose spectrum is taken
        # once: one fftn of alpha and one per block of rows, one ifftn a
        # block; the 5 U maps are one cyclic_dft of a (5, q) stack
        q = 2503
        side = IntervalSet(0, 50)
        inst = small_instance(q, IntervalSet(0, 50), side, IntervalSet(4, 50), mode="phase", seed=3)
        trilinear_fast(inst)  # the window, cached, is not the trace's to count
        kernel, dft = kforms.trilinear._lattice_convolution, kforms.trilinear.cyclic_dft
        shapes, stacks = [], []
        monkeypatch.setattr(kforms.trilinear, "_lattice_convolution", lambda operands, shape: (
            shapes.append([np.shape(x) for x in operands]) or kernel(operands, shape)))
        monkeypatch.setattr(kforms.trilinear, "cyclic_dft", lambda ring, f: (
            stacks.append(np.shape(f)) or dft(ring, f)))
        calls = fft_calls(monkeypatch)
        trace = proof_trace(inst, 2)
        assert shapes == [[(q - 1,), (10, q - 1)]] and stacks == [(5, q)]
        assert calls.count("ifftn") >= 1 and calls.count("fftn") == calls.count("ifftn") + 1
        assert abs(trace.total - trace.fast_value) <= 1e-9 * 50**3 * q

    def test_one_transform_per_level(self, monkeypatch):
        # U_{j,-} is conj U_{j,+}: one length-q DFT per N-side level, not
        # one per (level, sign)
        q = 30011
        calls = []
        transform = kforms.trilinear.cyclic_dft

        def counted(ring, f):
            calls.append(ring.q)
            return transform(ring, f)

        monkeypatch.setattr(kforms.trilinear, "cyclic_dft", counted)
        inst = small_instance(q, IntervalSet(0, 50), IntervalSet(3, 173), IntervalSet(-7, 120),
                              mode="phase", seed=2)
        trace = proof_trace(inst, 2)
        assert calls == [q] * (trace.decomposition.levels_n + 1)
        assert abs(trace.total - trace.fast_value) <= 1e-9 * 50 * 173 * 120

    @pytest.mark.parametrize("q", [3, 4, 97, 360, 2003])
    def test_mirrored_levels_share_their_moment(self, q):
        inst = small_instance(q, IntervalSet(0, min(q, 9)), IntervalSet(1, min(q, 7)),
                              IntervalSet(-2, min(q, 11)), mode="phase", seed=q)
        trace = proof_trace(inst, 2)
        for j in range(trace.decomposition.levels_n + 1):
            assert trace.y_moments[(j, -1)] == trace.y_moments[(j, 1)]

    def test_q2_has_no_negative_level(self):
        # the one unit mod 2 is its own negative and sits on the + side
        inst = small_instance(2, IntervalSet(0, 2), IntervalSet(0, 1), IntervalSet(0, 1))
        trace = proof_trace(inst, 2)
        assert trace.decomposition.r_sets[(0, -1)].size == 0
        assert trace.y_moments[(0, -1)].value == 0
        assert trace.y_moments[(0, 1)].value > 0
        minus = [cell for cell in trace.cells if cell.sign_y == -1]
        assert minus and all(cell.value == 0 for cell in minus)
        assert abs(trace.total - trilinear_naive(inst)) <= 1e-12


class TestTheorem1Bounds:
    def test_zero_weights_zero_ratios(self):
        ring = build_ring(53)
        weights = WeightVector(IntervalSet(0, 5), np.zeros(5, dtype=complex))
        report = theorem1_bounds(TrilinearInstance(ring, weights, IntervalSet(0, 5), IntervalSet(0, 5)))
        assert report.measured == 0
        assert report.ratio == 0
        assert report.params["ratio_b1"] == 0
        assert report.params["ratio_trivial"] == 0

    def test_triangle_inequality(self):
        q = 29
        ring = build_ring(q)
        l_iv = IntervalSet(0, 4)
        m_iv, n_iv = IntervalSet(0, 3), IntervalSet(1, 3)
        weights = make_weights(ring, l_iv, "phase", seed=10)
        inst = TrilinearInstance(ring, weights, m_iv, n_iv)
        cap = 0.0
        for l, alpha in zip(l_iv.members(), weights.weights):
            for m in m_iv.members():
                for n in n_iv.members():
                    cap += abs(alpha) * abs(double_fast(ring, int(l), int(m), int(n)))
        assert abs(trilinear_fast(inst)) <= cap + 1e-9

    def test_bound_columns_present(self):
        inst = small_instance(41, IntervalSet(0, 5), IntervalSet(0, 5), IntervalSet(0, 5))
        report = theorem1_bounds(inst)
        b1, b2 = report.params["bound_b1"], report.params["bound_b2"]
        assert report.reference == min(b1, b2)
        assert report.params["bound_trivial"] == 5 * 5 * 5 * 41
        assert report.ratio == pytest.approx(report.measured / min(b1, b2))


def window_kernel_calls(monkeypatch):
    """A list that grows by one at each of the window's kernel calls from here
    on: the calls of trilinear's _lattice_convolution on operands shaped as
    the lattice (the trace's T-map calls carry rows)."""
    kernel, calls = kforms.trilinear._lattice_convolution, []

    def counted(operands, shape):
        if all(x.shape == tuple(shape) for x in operands):
            calls.append(shape)
        return kernel(operands, shape)

    monkeypatch.setattr(kforms.trilinear, "_lattice_convolution", counted)
    return calls


class TestOneWindowPerInstance:
    """Every caller on one instance shares one unit-group window."""

    def test_extremal_thm1_case(self, monkeypatch):
        calls = window_kernel_calls(monkeypatch)
        verify_thm1_sweep([101], "0:10", "0:10", "0:10", mode="extremal")
        assert len(calls) == 1

    def test_cli_trilinear_extremal(self, monkeypatch):
        calls = window_kernel_calls(monkeypatch)
        argv = ["trilinear", "--q", "101", "--L", "0:10", "--M", "0:10", "--N", "0:10",
                "--weights", "extremal"]
        assert main(argv) == 0
        assert len(calls) == 1

    def test_cli_proof_trace(self, monkeypatch):
        calls = window_kernel_calls(monkeypatch)
        argv = ["proof-trace", "--q", "101", "--r", "2", "--L", "0:8", "--M", "0:8",
                "--N", "0:8"]
        assert main(argv) == 0
        assert len(calls) == 1

    def test_hand_built_instance_frees_its_ring(self):
        # the window lives on its ring, so dropping the instance frees both
        ring = build_ring(10007)
        side = IntervalSet(0, 100)
        weights = make_weights(ring, side, "extremal", m_interval=side, n_interval=side)
        instance = TrilinearInstance(ring, weights, side, side)
        trilinear_fast(instance)
        ref = weakref.ref(ring)
        del ring, weights, instance
        assert ref() is None, "the ring outlived its instance"

    def test_sweeps_hold_one_ring_at_a_time(self, monkeypatch):
        # each instance's window lives on its ring, and a sweep drops the last
        # instance before it builds the next ring
        refs, build = [], kforms.sweeps.build_ring

        def tracked(q):
            gc.collect()
            assert sum(ref() is not None for ref in refs) == 0, f"a ring is alive at q = {q}"
            ring = build(q)
            refs.append(weakref.ref(ring))
            return ring

        monkeypatch.setattr(kforms.sweeps, "build_ring", tracked)
        verify_thm1_sweep([1009, 1013, 1019], "0:sqrt", "0:sqrt", "0:sqrt", mode="extremal")
        verify_thm2_sweep(20, 2, "0:3", "0:3", "0:3")
        assert len(refs) == 3 + 21


def windows_by_branch(monkeypatch, ring, l_iv, m_iv, n_iv, costs):
    """_unit_window under each _DOT_COST in costs, with the number of
    _dots_at calls each made: two on the dots route, one a channel."""
    dots_at = kforms.trilinear._dots_at
    calls = []
    monkeypatch.setattr(
        kforms.trilinear, "_dots_at", lambda *args: calls.append(1) or dots_at(*args)
    )
    out = []
    for cost in costs:
        monkeypatch.setattr(kforms.trilinear, "_DOT_COST", cost)
        calls.clear()
        out.append((fresh_window(ring, l_iv, m_iv, n_iv), len(calls)))
    return out


def fresh_window(ring, l_iv, m_iv, n_iv):
    """_unit_window computed anew: the window the ring holds is dropped first."""
    vars(ring).pop("_unit_window", None)
    return _unit_window(ring, l_iv, m_iv, n_iv)


def assert_match_gather(ring, windows, l_iv, m_iv, n_iv, rtol):
    """Each window within rtol * max|W| of the gather at every unit member,
    0 at the rest, and read-only."""
    members = l_iv.members()
    units = ring.unit_mask[members % ring.q]
    gathered = _window_gather(ring, members[units], m_iv, n_iv)
    for window in windows:
        assert np.max(np.abs(window[units] - gathered)) <= rtol * np.max(np.abs(window))
        assert np.all(window[~units] == 0) and not window.flags.writeable


class TestUnitWindowAtScale:
    @pytest.mark.parametrize("q", [100003, 10**6 + 3])
    def test_both_branches_match_gather_on_every_member(self, q, monkeypatch):
        # 48 members from q-2 through 0 (a non-unit) to 45: the default rule
        # reads them by dots, and the priced-out dots send them to the FFT
        ring = build_ring(q)
        side = math.isqrt(q)
        l_iv, m_iv, n_iv = IntervalSet(q - 3, 48), IntervalSet(-5, side), IntervalSet(17, side)
        costs = (kforms.trilinear._DOT_COST, math.inf)
        (dots, dot_calls), (fft, fft_calls) = windows_by_branch(
            monkeypatch, ring, l_iv, m_iv, n_iv, costs
        )
        assert (dot_calls, fft_calls) == (2, 0)  # the even and the odd channel
        assert_match_gather(ring, (dots, fft), l_iv, m_iv, n_iv, 1e-13)

    @pytest.mark.parametrize("q, length, dot_calls", [
        (100003, 316, 1),  # 316 reads of two channels of n/2 = 50001, as at thm1_large's 10^5 primes
        (1459, 38, 0),  # 38 reads at n = 1458, 5-smooth: the chain's unpadded FFT is cheaper
        (2999, 54, 0),  # 54 reads mod n/2 = 1499: the per-read cost keeps the chain
    ])
    def test_default_rule_routes_the_reads(self, q, length, dot_calls, monkeypatch):
        # the test above pins the dots at q = 10^6+3 (48 reads of n/2 = 500001);
        # the dots route reads each channel by one _dots_at call
        ring = build_ring(q)
        side = math.isqrt(q)
        l_iv, m_iv, n_iv = IntervalSet(17, length), IntervalSet(-5, side), IntervalSet(0, side)
        costs = (kforms.trilinear._DOT_COST,)
        [(window, calls)] = windows_by_branch(monkeypatch, ring, l_iv, m_iv, n_iv, costs)
        assert calls == 2 * dot_calls
        assert_match_gather(ring, [window], l_iv, m_iv, n_iv, 1e-13)

    @pytest.mark.parametrize("q, dot_calls", [(2 * 3**7, 1), (2310, 0)])
    def test_non_units_read_zero(self, q, dot_calls, monkeypatch):
        # 4374 has a one-axis unit lattice, where a cost of -inf forces the
        # dots (at 0 the unpadded chain over Z_1458 prices lower than the
        # channels); 2310 a five-axis one, which never takes them; L wraps
        # past 0
        ring = build_ring(q)
        l_iv, m_iv, n_iv = IntervalSet(-7, 60), IntervalSet(3, 40), IntervalSet(-20, 50)
        branches = windows_by_branch(monkeypatch, ring, l_iv, m_iv, n_iv, (-math.inf, math.inf))
        assert [calls for _, calls in branches] == [2 * dot_calls, 0]
        assert_match_gather(ring, [w for w, _ in branches], l_iv, m_iv, n_iv, 1e-13)
        members = l_iv.members()
        off_units = ~ring.unit_mask[members % q]
        assert np.allclose(
            window_sums(ring, l_iv, m_iv, n_iv)[off_units],
            _window_gather(ring, members[off_units], m_iv, n_iv),
        )


def fft_calls(monkeypatch):
    """The names of the np.fft functions called from here on, in order."""
    calls = []
    for name in ("rfftn", "irfftn", "fftn", "ifftn", "rfft", "irfft", "fft", "ifft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, _f=transform, _name=name, **kwargs: (
            calls.append(_name) or _f(*args, **kwargs)))
    return calls


def two_step_window(monkeypatch, ring, l_iv, m_iv, n_iv):
    """The window as two kernel calls, r1 = cas mu * cas nu and then
    r1 * cas e_q, which the window reads at the units, in place of the one
    chained call."""
    chained = kforms.ring._lattice_convolution

    def two_steps(operands, shape):
        r1, _ = chained(operands[:2], shape)
        return chained((r1, operands[2]), shape)

    monkeypatch.setattr(kforms.trilinear, "_lattice_convolution", two_steps)
    window = fresh_window(ring, l_iv, m_iv, n_iv)
    monkeypatch.setattr(kforms.trilinear, "_lattice_convolution", chained)
    return window


class TestLatticeOrderWindow:
    """The operands are evaluated at the units in lattice order, with no
    log_index and no scatter."""

    @pytest.mark.parametrize("q", [
        3, 4, 8, 12,
        1009, 1019,  # primes 1 and 3 mod 4
        2062, 338,  # 2p and 2p^2: one axis, the generator lifted to an odd unit
        4124,  # 4p: (2, 1030), -1 on both axes
        307200,  # (2, 1024, 2, 20): a leading axis of length 2, -1 off the <5> axis
    ])
    @pytest.mark.parametrize("same", [True, False])
    def test_both_routes_match_the_gather(self, q, same, monkeypatch):
        ring = build_ring(q)
        side = max(1, math.isqrt(q))
        l_iv, m_iv = IntervalSet(q - 9, min(q, 40)), IntervalSet(-5, side)
        n_iv = m_iv if same else IntervalSet(17, side)
        dots, chain = windows_by_branch(monkeypatch, ring, l_iv, m_iv, n_iv, (0.0, math.inf))
        assert chain[1] == 0
        assert_match_gather(ring, (dots[0], chain[0]), l_iv, m_iv, n_iv, 2e-15)

    def test_theorem1_builds_no_log_index(self):
        # the thm1 path reads the unit mask alone of the ring's q-long tables
        instance = kforms.sweeps.build_instance(1000003, "0:48", "-5:1000", "1000:1000", "extremal")
        theorem1_bounds(instance)
        assert "log_index" not in instance.ring.__dict__
        assert "units" not in instance.ring.__dict__ and "inv_table" not in instance.ring.__dict__


class TestChannelWindow:
    """On a one-axis lattice of even order n the dots route convolves the
    even channel cyclically and the odd one negacyclically, at n/2."""

    @pytest.mark.parametrize("q", [
        4, 1009, 1019, 2062, 4374,
        1018081,  # 1009^2
        100003, 10**6 + 3,
    ])
    @pytest.mark.parametrize("same", [True, False])
    def test_channels_match_the_gather(self, q, same, monkeypatch):
        # a cost of -inf forces the dots wherever the lattice has one axis;
        # L wraps through 0
        ring = build_ring(q)
        side, length = math.isqrt(q), min(q, 48)
        l_iv, m_iv = IntervalSet(-(length // 2), length), IntervalSet(-5, side)
        n_iv = m_iv if same else IntervalSet(1000, side)
        [(window, calls)] = windows_by_branch(monkeypatch, ring, l_iv, m_iv, n_iv, (-math.inf,))
        assert calls == 2
        assert_match_gather(ring, [window], l_iv, m_iv, n_iv, 1e-13)


class TestChainedWindow:
    """The window is one kernel call on (cas mu, cas nu, cas e_q)."""

    @pytest.mark.parametrize("q", [
        97200, 204120, 300000,  # multi-axis 5-smooth lattices, unpadded
        100003,  # (100002,): one rough axis, padded to >= 3n, the dots priced out
        235,  # (4, 46): a small multi-axis lattice with a rough axis
        24,  # (2, 2, 2): every axis of length 2, one of them left to numpy
    ])
    @pytest.mark.parametrize("same", [True, False])
    def test_matches_the_two_step_window_and_the_gather(self, q, same, monkeypatch):
        monkeypatch.setattr(kforms.trilinear, "_DOT_COST", math.inf)
        ring = build_ring(q)
        side = math.isqrt(q)
        l_iv, m_iv = IntervalSet(q - 9, 24), IntervalSet(-5, side)
        n_iv = m_iv if same else IntervalSet(17, side)
        chained = fresh_window(ring, l_iv, m_iv, n_iv)
        two_step = two_step_window(monkeypatch, ring, l_iv, m_iv, n_iv)
        assert np.max(np.abs(chained - two_step)) <= 1e-13 * np.max(np.abs(chained))
        assert_match_gather(ring, (chained, two_step), l_iv, m_iv, n_iv, 1e-13)

    @pytest.mark.parametrize("same, transforms", [(True, 2), (False, 3)])
    def test_one_transform_per_distinct_operand_and_one_inverse(
        self, same, transforms, monkeypatch
    ):
        # 97200's lattice (2, 4, 162, 20) has four axes, so no dots: equal M and
        # N intervals are one operand given twice
        ring = build_ring(97200)
        m_iv = IntervalSet(-5, 311)
        n_iv = m_iv if same else IntervalSet(17, 311)
        calls = fft_calls(monkeypatch)
        fresh_window(ring, IntervalSet(3, 20), m_iv, n_iv)
        assert calls == ["rfft", "fftn"] * transforms + ["ifftn", "irfft"]

    def test_million_primes_keep_the_first_product_and_dots(self, monkeypatch):
        # thm1_large's 10^6 primes at L = 48: mu * nu as its even and odd
        # channels of n/2 points, each one FFT product, read against e_q's
        # part by one _dots_at call a channel, not chained at 3n
        q = 10**6 + 3
        ring = build_ring(q)
        side = math.isqrt(q)
        dots_at = kforms.trilinear._dots_at
        dots = []
        monkeypatch.setattr(
            kforms.trilinear, "_dots_at", lambda *args: dots.append(args[3]) or dots_at(*args)
        )
        calls = fft_calls(monkeypatch)
        fresh_window(ring, IntervalSet(17, 48), IntervalSet(0, side), IntervalSet(7, side))
        assert dots == [1, -1]
        # the four-step's column transforms run a block of rows a call
        runs = [name for name, _ in itertools.groupby(calls)]
        assert runs == (["rfft", "fftn"] * 2 + ["ifftn", "irfft"]) * 2

    @pytest.mark.parametrize("q, side", [(100003, 316), (10**6 + 3, 1000)])
    def test_numpy_transforms_no_axis_past_the_four_step_rows_or_columns(self, q, side, monkeypatch):
        # the padded axis is R rows of P2 columns, and numpy's FFT runs
        # along no longer axis: no scratch of the whole padded length
        ring = build_ring(q)
        lengths = []
        for name in ("rfft", "irfft", "fft", "ifft"):
            transform = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda a, n=None, axis=-1, *args, _f=transform, **kwargs: (
                lengths.append(n or np.shape(a)[axis]) or _f(a, n, axis, *args, **kwargs)))
        for name in ("fftn", "ifftn"):
            transform = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda a, s=None, axes=None, *args, _f=transform, **kwargs: (
                lengths.extend(s) or _f(a, s, axes, *args, **kwargs)))
        for m_iv, n_iv in ((IntervalSet(0, side), IntervalSet(0, side)),
                           (IntervalSet(-5, side), IntervalSet(1000, side))):
            fresh_window(ring, IntervalSet(17, 48), m_iv, n_iv)
        plans = [kforms.ring._fft_plan(ring.shape, k) for k in (2, 3)]
        assert all(plan[6] > 1 for plan in plans) and lengths
        assert max(lengths) <= max(max(plan[5]) for plan in plans) < 4096


class TestOwnPrices:
    def test_naive_paths_refuse_where_the_cli_exits_2(self, monkeypatch, capsys):
        # the oracles price themselves, so a library call under a lowered
        # budget refuses where the CLI does: 4*L*M*N*phi^2 = 1,080,000 and
        # 4*phi^2 = 40,000 words at q = 101
        instance = small_instance(101, IntervalSet(0, 3), IntervalSet(0, 3), IntervalSet(0, 3))
        ring = instance.ring
        monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", 39_999)
        with pytest.raises(ValueError, match=r"4\*L\*M\*N\*phi\^2 = 1080000"):
            trilinear_naive(instance)
        with pytest.raises(ValueError, match=r"4\*phi\^2 double_naive words = 40000"):
            double_naive(ring, 1, 2, 3)
        argv = ["--q", "101", "--L", "0:3", "--M", "0:3", "--N", "0:3", "--naive"]
        assert main(["trilinear", *argv]) == 2
        assert "4*L*M*N*phi^2 = 1080000" in capsys.readouterr().err
        assert main(["ksum2", "--q", "101", "--l", "1", "--m", "2", "--n", "3", "--naive"]) == 2
        assert "4*phi^2 double_naive words = 40000" in capsys.readouterr().err
        monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", 40_000)
        assert main(["ksum2", "--q", "101", "--l", "1", "--m", "2", "--n", "3", "--naive"]) == 0


class TestInstanceValidation:
    def test_off_unit_and_oversized_weights_refused(self):
        # 12 has units 1, 5, 7, 11 among the members 1..8
        ring = build_ring(12)
        l_iv, m_iv, n_iv = IntervalSet(0, 8), IntervalSet(1, 3), IntervalSet(-2, 4)
        on_units = ring.unit_mask[l_iv.members() % 12]
        alphas = np.where(on_units, np.exp(1j * np.arange(8)), 0)
        inst = TrilinearInstance(ring, WeightVector(l_iv, alphas), m_iv, n_iv)
        assert abs(trilinear_fast(inst) - trilinear_naive(inst)) <= 1e-9 * 8 * 3 * 4 * 12
        stray = alphas.copy()
        stray[3] = 0.5  # l = 4 is not a unit mod 12
        with pytest.raises(ValueError, match="vanish off units"):
            TrilinearInstance(ring, WeightVector(l_iv, stray), m_iv, n_iv)
        with pytest.raises(ValueError, match=r"\|w\| <= 1"):
            TrilinearInstance(ring, WeightVector(l_iv, 1.5 * alphas), m_iv, n_iv)
        for bad in (np.inf, np.nan):  # at l = 5, a unit; a NaN compares False with 1
            weights = np.where(l_iv.members() == 5, bad, alphas)
            with pytest.raises(ValueError, match=r"\|w\| <= 1"):
                TrilinearInstance(ring, WeightVector(l_iv, weights), m_iv, n_iv)
        with pytest.raises(ValueError, match="align with the interval"):
            TrilinearInstance(ring, WeightVector(l_iv, alphas[:7]), m_iv, n_iv)
