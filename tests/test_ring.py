import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from kforms import (
    IntervalSet,
    NotAUnitError,
    build_ring,
    centered_dist,
    centered_rep,
    cyclic_dft,
    eq_eval,
    interval_phase_sum,
    mod_inverse,
)
import kforms.characters
import kforms.cli
import kforms.kloosterman
import kforms.ring
from kforms.ring import (
    MAX_MODULUS, _certified, _dft_naive, _fft_plan, _lattice_convolution, _lattice_tally,
    _primitive_root, _reduce, _rough, _sin_half_turns, _smooth_length, _twiddle, factorize, is_prime,
)
from kforms.characters import interval_character_sums
from kforms.kloosterman import _unit_dft
from kforms.trilinear import _dots_at


def brute_phi(q):
    return sum(1 for x in range(q) if math.gcd(x, q) == 1)


class TestBuildRing:
    def test_prime_modulus(self):
        ring = build_ring(7)
        assert ring.phi == 6
        assert ring.units.tolist() == [1, 2, 3, 4, 5, 6]
        assert ring.tau == 2

    def test_composite_modulus(self):
        ring = build_ring(12)
        assert ring.phi == 4
        assert ring.units.tolist() == [1, 5, 7, 11]
        assert ring.tau == 6

    def test_totient_against_gcd_count(self):
        # independent totient oracle: direct gcd count
        ring = build_ring(360)
        assert ring.phi == 96
        assert brute_phi(360) == 96
        for q in (2, 9, 97, 128, 210):
            assert build_ring(q).phi == brute_phi(q)

    def test_small_moduli_rejected(self):
        for q in (1, 0, -5):
            with pytest.raises(ValueError, match="modulus too small"):
                build_ring(q)

    def test_unit_mask_consistency(self):
        ring = build_ring(90)
        for x in range(90):
            assert bool(ring.unit_mask[x]) == (math.gcd(x, 90) == 1)
        assert int(ring.unit_mask.sum()) == ring.phi

    @pytest.mark.parametrize("q", [3, 4, 9, 2503, 3**7, 2 * 3**5, 8, 360, 2310, 100003])
    def test_log_index_is_the_crt_index_and_read_only(self, q):
        # each unit's digits, read off the flat index in C order, rebuild it
        # mod every prime power from its factors' generators; non-units read -1
        ring = build_ring(q)
        table = ring
        assert table.log_index.dtype == np.int64
        assert not table.log_index.flags.writeable
        assert np.all(table.log_index[~ring.unit_mask] == -1)
        flat = table.log_index[ring.units]
        assert np.array_equal(np.sort(flat), np.arange(ring.phi))
        digits = np.unravel_index(flat, table.shape)
        rebuilt = {}
        for f, t in zip(table.factors, digits):
            power = np.array([pow(f.generator, k, f.modulus) for k in range(f.order)])
            rebuilt[f.modulus] = rebuilt.get(f.modulus, 1) * power[t] % f.modulus
        for pe, units_mod_pe in rebuilt.items():
            assert np.array_equal(units_mod_pe, ring.units % pe), (q, pe)

    def test_unit_group_built_on_first_read_once(self, monkeypatch):
        # build_ring keeps the factors alone; the first read of log_index
        # builds it, once per ring (inv_table walks the units without it)
        built, build = [], kforms.ring._unit_group
        monkeypatch.setattr(
            kforms.ring, "_unit_group", lambda q, *a: built.append(q) or build(q, *a)
        )
        ring = build_ring(360)
        assert built == [] and ring.shape == (2, 2, 6, 4)
        assert ring.inv_table[7] == 103 and ring.log_index is ring.log_index
        assert built == [360]
        assert build_ring(360).log_index is not ring.log_index and built == [360, 360]

    @staticmethod
    def build_peak(q):
        """build_ring(q) with its unit-group index read, and the tracemalloc
        peak in bytes."""
        tracemalloc.start()
        try:
            ring = build_ring(q)
            ring.log_index  # built on this first read
            return ring, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_build_peak_at_a_prime(self):
        # a one-factor group writes log_index a block of generator powers at a
        # time, so the peak is the 17 B per residue the ring keeps
        # (log_index, units, unit_mask) and no length-q temporary
        ring, peak = self.build_peak(1000003)
        assert ring.phi == 1000002
        assert peak <= 33 * ring.q

    def test_build_peak_at_a_power_of_two(self):
        # the 2-adic group writes log_index from lifted powers of -1 and 5, a
        # block at a time, with no per-factor table and no gather over the
        # units: 13 B per residue kept (log_index, units, unit_mask) and ~16
        # at the peak, where the per-factor tables peaked at 41
        ring, peak = self.build_peak(2**20)
        assert ring.phi == 2**19
        assert peak <= 24 * ring.q

    def test_build_peak_at_two_large_factors(self):
        # the leading factor's 1008 units times the last factor's one block
        # of 1012 powers is all of phi, so the leading units are taken a
        # chunk at a time and no phi-sized block is held
        ring, peak = self.build_peak(1009 * 1013)
        assert ring.phi == 1008 * 1012
        assert peak <= 24 * ring.q

    @pytest.mark.parametrize("q", [100003, 3**10, 2 * 5**7, 2**17])
    def test_log_index_matches_stepwise_powers(self, q):
        # powers stepped one multiplication at a time mod q: on a cyclic group
        # g^k -> k, with g lifted to an odd unit mod 2*5^7; mod 2^e, 5^t -> t
        # and -5^t -> the flat index of the tuple (1, t)
        table = build_ring(q)
        last = table.factors[-1]
        base, order = last.generator, last.order
        if q == 2 * last.modulus and base % 2 == 0:
            base += last.modulus
        powers = np.empty(order, dtype=np.int64)
        x = 1
        for k in range(order):
            powers[k], x = x, x * base % q
        expected = np.full(q, -1, dtype=np.int64)
        expected[powers] = np.arange(order)
        if q % 4 == 0:
            expected[q - powers] = order + np.arange(order)
        assert np.array_equal(table.log_index, expected)


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(build_ring(7), 3) == 5
        assert mod_inverse(build_ring(5), 2) == 3

    def test_not_a_unit(self):
        with pytest.raises(NotAUnitError):
            mod_inverse(build_ring(10), 4)

    def test_involution(self):
        ring = build_ring(462)
        for x in ring.units:
            assert ring.inv_table[ring.inv_table[x]] == x
            assert (int(x) * int(ring.inv_table[x])) % 462 == 1

    def test_against_single_shot_inversion(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            q = int(rng.integers(2, 3000))
            ring = build_ring(q)
            x = int(ring.units[rng.integers(0, ring.phi)])
            assert mod_inverse(ring, x) == pow(x, -1, q)

    def test_inverse_table_built_on_first_read(self):
        ring = build_ring(1000)
        assert "inv_table" not in vars(ring)
        assert mod_inverse(ring, 3) == 667
        assert "inv_table" not in vars(ring)  # one inverse reads no table
        assert ring.inv_table[3] == 667
        assert "inv_table" in vars(ring)
        assert ring.inv_table is ring.inv_table

    def test_inverses_at_large_moduli(self):
        # a prime, a smooth composite and the 2-adic and 3-adic groups
        rng = np.random.default_rng(7)
        for q in (1000003, 10**6, 2**20, 3**12):
            ring = build_ring(q)
            for u in ring.units[rng.integers(0, ring.phi, size=200)].tolist():
                inv = int(ring.inv_table[u])
                assert u * inv % q == 1
                assert int(ring.inv_table[inv]) == u


class TestEqEval:
    def test_examples(self):
        assert eq_eval(build_ring(4), 1) == pytest.approx(1j)
        assert eq_eval(build_ring(2), 1) == pytest.approx(-1)
        assert eq_eval(build_ring(5), 15) == pytest.approx(1)

    def test_reduction_before_evaluation(self):
        ring = build_ring(97)
        for z in (5, -5, 17):
            assert eq_eval(ring, z + 97 * 10**12) == eq_eval(ring, z)

    def test_array_form(self):
        ring = build_ring(8)
        vals = eq_eval(ring, np.arange(16))
        assert np.allclose(vals[:8], vals[8:])

    @pytest.mark.parametrize("q", [2, 97, 360, 1009, 30011, 10**6 + 3, 10**6 + 37])
    def test_values_within_4_ulps_of_the_exact_value(self, q):
        # per component, against mpmath (np.exp of the rounded angle is
        # itself up to ~3.4 ulps off at these q); scalars too
        ring = build_ring(q)
        z = np.random.default_rng(q).integers(-3 * q, 3 * q, size=2000)
        got = eq_eval(ring, z)
        scalars = [eq_eval(ring, k) for k in z[:100].tolist()] + [eq_eval(ring, z[0])]
        with mpmath.workdps(30):
            exact = [mpmath.expjpi(mpmath.mpf(2 * (k % q)) / q) for k in z[:300].tolist()]
        for value, want in zip(got[:300].tolist() + scalars, exact + exact[:100] + exact[:1]):
            assert abs(value.real - float(want.real)) <= 4 * np.finfo(float).eps
            assert abs(value.imag - float(want.imag)) <= 4 * np.finfo(float).eps
        assert np.max(np.abs(got - np.exp(2j * np.pi * (z % q) / q))) <= 8 * np.finfo(float).eps


def test_single_value_queries_build_no_table(monkeypatch, capsys):
    rings = []
    monkeypatch.setattr(kforms.cli, "build_ring", lambda q: rings.append(build_ring(q)) or rings[-1])
    assert kforms.cli.main(["ring-info", "--q", "1009"]) == 0
    assert "inv(2) = 505" in capsys.readouterr().out
    (ring,) = rings
    assert mod_inverse(ring, 7) == pow(7, -1, 1009)
    assert eq_eval(ring, 5) == pytest.approx(np.exp(10j * np.pi / 1009))
    assert np.allclose(eq_eval(ring, np.arange(-3, 3)), np.exp(2j * np.pi * np.arange(-3, 3) / 1009))
    assert "inv_table" not in vars(ring)
    # a fresh ring answers the same queries, and a non-unit's refusal, from q alone
    fresh = build_ring(1009)
    assert mod_inverse(fresh, 7) == pow(7, -1, 1009) and eq_eval(fresh, 5) == eq_eval(ring, 5)
    assert np.array_equal(eq_eval(fresh, np.arange(-3, 3)), eq_eval(ring, np.arange(-3, 3)))
    with pytest.raises(NotAUnitError, match="gcd = 1009"):
        mod_inverse(fresh, 2018)
    assert not any(isinstance(v, np.ndarray) for v in vars(fresh).values()), vars(fresh)


class TestCentered:
    def test_examples(self):
        ring = build_ring(10)
        assert centered_dist(ring, 7) == 3
        assert centered_dist(ring, 15) == 5
        assert centered_dist(ring, 20) == 0

    def test_symmetries(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            q = int(rng.integers(2, 1000))
            u = int(rng.integers(-10 * q, 10 * q))
            ring = build_ring(q)
            d = centered_dist(ring, u)
            assert d == centered_dist(ring, u % q) == centered_dist(ring, -u)
            assert 0 <= d <= q / 2

    def test_centered_rep_window(self):
        ring = build_ring(12)
        reps = centered_rep(ring, np.arange(12))
        assert reps.min() > -6 and reps.max() <= 6


class TestCyclicDft:
    def test_delta_to_ones(self):
        ring = build_ring(11)
        f = np.zeros(11, dtype=complex)
        f[0] = 1
        assert np.allclose(cyclic_dft(ring, f), np.ones(11))

    def test_ones_to_scaled_delta(self):
        ring = build_ring(30)
        out = cyclic_dft(ring, np.ones(30))
        expected = np.zeros(30, dtype=complex)
        expected[0] = 30
        assert np.allclose(out, expected, atol=1e-9 * 30)

    def test_parseval(self):
        rng = np.random.default_rng(11)
        for q in (17, 96, 255):
            ring = build_ring(q)
            f = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            F = cyclic_dft(ring, f)
            assert np.sum(np.abs(F) ** 2) == pytest.approx(q * np.sum(np.abs(f) ** 2))

    def test_exponential_orthogonality(self):
        # sum_lam e_q(lam*t) = q when q | t else 0; the all-ones forward DFT
        # evaluates every t at once
        for q in range(2, 501):
            ring = build_ring(q)
            out = cyclic_dft(ring, np.ones(q))
            assert abs(out[0] - q) <= 1e-9 * q
            assert np.max(np.abs(out[1:])) <= 1e-9 * q

    def test_fft_matches_naive_reference(self):
        rng = np.random.default_rng(13)
        for q in (2, 3, 5, 31, 64, 65, 100, 243, 641, 1000, 2048, 4093, 4096):
            ring = build_ring(q)
            f = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            fast = cyclic_dft(ring, f)
            ref = _dft_naive(f, q, np.exp(2j * np.pi * np.arange(q) / q))
            assert np.max(np.abs(fast - ref)) <= 1e-9 * q * np.max(np.abs(f))

    def test_length_mismatch(self):
        ring = build_ring(9)
        with pytest.raises(ValueError, match="length mismatch"):
            cyclic_dft(ring, np.ones(8))
        with pytest.raises(ValueError, match="length mismatch"):
            cyclic_dft(ring, np.ones((3, 8)))

    def test_rows_are_transformed_one_by_one(self):
        rng = np.random.default_rng(17)
        ring = build_ring(641)
        rows = rng.standard_normal((3, 641)) + 1j * rng.standard_normal((3, 641))
        stacked = cyclic_dft(ring, rows)
        assert stacked.shape == (3, 641)
        for row, out in zip(rows, stacked):
            assert np.array_equal(out, cyclic_dft(ring, row))


class TestIntervalPhaseSum:
    def test_zero_frequency_gives_length(self):
        ring = build_ring(11)
        assert interval_phase_sum(ring, IntervalSet(4, 7), 0) == pytest.approx(7)
        assert interval_phase_sum(ring, IntervalSet(4, 7), 22) == pytest.approx(7)

    def test_small_example(self):
        ring = build_ring(4)
        # interval {1, 2}: e_4(1) + e_4(2) = i - 1
        assert interval_phase_sum(ring, IntervalSet(0, 2), 1) == pytest.approx(-1 + 1j)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            q = int(rng.integers(2, 500))
            ring = build_ring(q)
            interval = IntervalSet(int(rng.integers(-q, q)), int(rng.integers(1, q + 1)))
            x = int(rng.integers(0, q))
            direct = complex(np.sum(eq_eval(ring, interval.members() * x)))
            closed = interval_phase_sum(ring, interval, x)
            assert abs(closed - direct) <= 1e-10 * interval.length

    def test_magnitude_bound(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 10_000:
            q = int(rng.integers(2, 2000))
            ring = build_ring(q)
            interval = IntervalSet(int(rng.integers(-q, q)), int(rng.integers(1, q + 1)))
            xs = rng.integers(0, q, size=min(64, q))
            table = dict(zip(xs.tolist(), interval_phase_sum(ring, interval, xs)))
            for x in xs:
                dist = centered_dist(ring, int(x))
                cap = interval.length if dist == 0 else min(interval.length, q / dist)
                assert abs(table[int(x)]) <= cap + 1e-9
                checked += 1

    def test_table_matches_scalar(self):
        ring = build_ring(37)
        interval = IntervalSet(-5, 12)
        table = interval_phase_sum(ring, interval, np.arange(37))
        for x in range(37):
            assert table[x] == pytest.approx(interval_phase_sum(ring, interval, x))

    def test_array_evaluation_memory(self):
        # in place: besides the result, about one result's size of
        # temporaries (the reduced argument, the numerator, the phase)
        ring = build_ring(100003)
        units = ring.units  # the ring's tables, built before the trace
        tracemalloc.start()
        try:
            out = interval_phase_sum(ring, IntervalSet(-5, 316), units)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * out.nbytes

    @pytest.mark.parametrize("q", [2, 7, 10**6 + 3, 2**31 - 1])
    def test_sine_within_2_ulps_of_mpmath_in_any_order(self, q):
        # scrambled input, with the folds' edges (0, q/2, q, 3q/2) among it:
        # each value within 2 ulps relative of sin(pi*h/q), exactly 0 at 0 and
        # q, and a permuted input gives the permuted output
        rng = np.random.default_rng(q)
        edges = np.array([0, 1, 2, q // 2, (q + 1) // 2, q - 1, q, q + 1, q + q // 2, 2 * q - 1])
        h = rng.permutation(np.concatenate((rng.integers(0, 2 * q, 2000), edges[edges < 2 * q])))
        got = _sin_half_turns(h.copy(), q)
        with mpmath.workdps(30):
            want = np.array([float(mpmath.sinpi(mpmath.mpf(int(x)) / q)) for x in h.tolist()])
        assert np.all(np.abs(got - want) <= 2 * np.finfo(float).eps * np.abs(want))
        order = rng.permutation(h.size)
        assert np.array_equal(_sin_half_turns(h[order], q), got[order])

    def test_far_start_and_modulus_bound(self):
        # a start far past int64 products, and q = MAX_MODULUS, where an
        # unreduced product of two residues would pass 2^63
        ring = build_ring(101)
        near, far = IntervalSet(10, 10), IntervalSet(10**17, 10)  # 10^17 = 10 mod 101
        xs = np.arange(101)
        gap = interval_phase_sum(ring, far, xs) - interval_phase_sum(ring, near, xs)
        assert np.max(np.abs(gap)) <= 1e-9
        q = MAX_MODULUS
        big = build_ring(q)  # holds no table; interval_phase_sum reads only q
        interval = IntervalSet(q - 7, 5)  # members -6..-2 mod q
        for x in (1, 2, q - 1, q // 2 + 3, 10**30 + 1):
            direct = sum(np.exp(2j * np.pi * ((m * x) % q) / q) for m in range(-6, -1))
            assert abs(interval_phase_sum(big, interval, x) - direct) <= 1e-12
            vec = interval_phase_sum(big, interval, np.array([x % q]))
            assert abs(vec[0] - direct) <= 1e-12

    def test_relative_precision_near_half_and_full_turns(self):
        # x near q/2 and q puts both sines near pi or 2*pi; at x = q // 2 the
        # value is ~1.6e-3 out of 1000 unit terms, so the reference sums in
        # 30 digits, from exactly reduced integers
        q = 10**6 + 3
        ring = build_ring(q)
        interval = IntervalSet(-5, 1000)
        for x in (1, q // 2, q - 2, q - 1):
            with mpmath.workdps(30):
                direct = mpmath.fsum(mpmath.expjpi(mpmath.mpf(2 * (m * x % q)) / q)
                                     for m in interval.members().tolist())
            for value in (interval_phase_sum(ring, interval, x),
                          interval_phase_sum(ring, interval, np.array([x]))[0]):
                assert abs(mpmath.mpc(value) - direct) <= 1e-14 * abs(direct)


class TestIntervalSet:
    def test_members(self):
        iv = IntervalSet(3, 4)
        assert iv.members().tolist() == [4, 5, 6, 7]
        assert 4 in iv and 7 in iv and 3 not in iv

    def test_residues_at_any_start(self):
        # the start is reduced mod q before any int64 arithmetic; members()
        # refuses a range that leaves int64 rather than wrap it
        for start in (-10**30, -2**63 - 3, -5, 0, 3, 2**63 - 8, 2**63, 10**30):
            iv = IntervalSet(start, 50)
            expected = [(start + k) % 101 for k in range(1, 51)]
            assert iv.residues(101).tolist() == expected
            if -2**63 <= start + 1 and start + 50 < 2**63:
                assert np.array_equal(np.mod(iv.members(), 101), iv.residues(101))
            else:
                with pytest.raises(ValueError, match="outside int64"):
                    iv.members()

    def test_length_validated(self):
        with pytest.raises(ValueError, match="length"):
            IntervalSet(0, 0)

    def test_residues_hold_one_word_a_member(self):
        # check_work charges the residues one word a member: the arange is
        # shifted and reduced in place
        iv = IntervalSet(-5, 10**6)
        tracemalloc.start()
        try:
            residues = iv.residues(10**6 + 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residues[0] == 10**6 - 1 and residues[5] == 1
        assert peak <= 9 * 10**6


class TestReduce:
    @pytest.mark.parametrize(
        "n, q", [(0, 7), (1000, 2503), ((1 << 16) + 3, 10**6 + 3), (300_000, 3)]
    )
    def test_matches_remainder_in_place(self, n, q):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, q, n) * rng.integers(0, q, n)
        expected = keys % q
        assert _reduce(keys, q) is keys and np.array_equal(keys, expected)
        block = rng.integers(0, 2**62, (4, 50))
        assert np.array_equal(_reduce(block.copy(), q), block % q)

    @pytest.mark.parametrize("view", [
        lambda x: x[:20].reshape(4, 5).T,  # one block, not contiguous
        lambda x: x[: 300 * 300].reshape(300, 300).T,  # past one block, not contiguous
        lambda x: x[::3],  # a strided 1-D view past one block
        lambda x: -np.abs(x[:1000]),  # negative keys
        lambda x: x[:1],
        lambda x: x[: 1 << 16],
        lambda x: x[: (1 << 16) + 1],
    ], ids=["transposed", "transposed-blocks", "strided", "negative", "1", "2^16", "2^16+1"])
    @pytest.mark.parametrize("q", [7, 10**6 + 3])
    def test_matches_mod_in_any_layout(self, view, q):
        keys = view(np.random.default_rng(q).integers(-(2**62), 2**62, 300_000))
        expected = np.mod(keys, q)
        assert np.array_equal(_reduce(keys, q), expected)

    @pytest.mark.parametrize("n", [1, 40, 500, 1000, 5000])
    @pytest.mark.parametrize("q", [2503, 10**6 + 3])
    def test_small_arrays_of_either_sign(self, n, q):
        # the one-step floor-division form from one key to a few thousand
        # gives % in place on keys of either sign
        keys = np.random.default_rng(n).integers(-(q**2), q**2, n)
        keys[0] = -1
        expected = keys % q
        assert _reduce(keys, q) is keys and np.array_equal(keys, expected)


class TestRough:
    def test_ladder(self):
        ladder = (1, 2, 7, 11, 98, 1009, 10**6 + 2)
        assert [_rough(n) for n in ladder] == [False, False, False, True, False, True, True]

    @pytest.mark.parametrize("q, dft_words, sum_words", [
        (10007, 27, 14), (9999, 27, 7), (100003, 27, 14), (2**20, 14, 7), (10**6 + 3, 27, 14),
    ])
    def test_transform_prices_read_no_padding(self, q, dft_words, sum_words, monkeypatch):
        # numpy takes a rough length by Bluestein whatever the lattice's
        # padding rule: with _fft_plan padding no axis, wherever a module
        # binds it, _unit_dft and interval_character_sums keep their prices
        # and refuse one word below them; a 7-smooth packed lattice's sums
        # are priced by the ring's own 7 words
        for module in (kforms.ring, kforms.kloosterman, kforms.characters):
            if hasattr(module, "_fft_plan"):
                monkeypatch.setattr(module, "_fft_plan", lambda shape, k=2: (shape, None))
        ring = build_ring(q)
        sum_label = "ring and character-sum" if sum_words == 14 else "ring"
        for words, label, call in [
            (dft_words, "ring and transform", lambda: _unit_dft(ring, np.negative)),
            (sum_words, sum_label, lambda: interval_character_sums(ring, IntervalSet(0, 5))),
        ]:
            monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", words * q - 1)
            with pytest.raises(ValueError, match=rf"{words}\*q {label} words = {words * q} "):
                call()


class TestModulusBound:
    def test_bound_keeps_products_in_int64(self):
        assert MAX_MODULUS**2 < 2**63 <= (MAX_MODULUS + 1) ** 2

    def test_oversized_modulus_refused_before_allocating(self, monkeypatch):
        # build_ring refuses only q past MAX_MODULUS and allocates nothing;
        # the unit mask's first read prices the ring's 7*q words before its
        # table
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated a table")

        for name in ("arange", "zeros", "ones", "empty", "full"):
            monkeypatch.setattr(np, name, no_alloc)
        for q in (MAX_MODULUS + 1, 10**12):
            with pytest.raises(ValueError, match="modulus too large"):
                build_ring(q)
        for q in (2_000_000_011, MAX_MODULUS):
            ring = build_ring(q)
            with pytest.raises(ValueError, match=r"dimension too large: 7\*q ring words"):
                ring.unit_mask
            assert "unit_mask" not in vars(ring)


class TestBatchedKernel:
    """Operands holding rows, shaped (b,) + shape: row i of the result is the
    convolution of their rows i with the operands that hold none."""

    SHAPES = [
        (22,),  # one rough axis (2 * 11), padded and folded
        (2, 6),  # an axis of length 2, by butterflies
        (4, 6, 11),  # three axes, the rough one padded
    ]

    @staticmethod
    def draw(rng, shape, kind, density):
        support = rng.random(shape) < density
        if kind == "int":
            return rng.integers(0, 5, shape) * support
        if kind == "float":
            return rng.standard_normal(shape) * support
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * support

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kind", ["int", "float", "complex"])
    def test_rows_match_per_row_calls(self, shape, kind):
        rng = np.random.default_rng(len(shape) * 10 + len(kind))
        fixed = self.draw(rng, shape, kind, 0.7)
        # dense rows take the FFT, sparse ones the tally, an empty one too
        rows = np.stack([self.draw(rng, shape, kind, d) for d in (0.9, 0.1, 0.6, 0.0, 1.0)])
        for operands in ((fixed, rows), (rows, fixed, rows), (rows, rows), (fixed, fixed, rows)):
            got, _ = _lattice_convolution(operands, shape)
            assert got.shape == rows.shape
            for i, row in enumerate(got):
                alone = [x[i] if x is rows else x for x in operands]
                want, _ = _lattice_convolution(alone, shape)
                if kind == "int":
                    assert got.dtype == np.int64 and np.array_equal(row, want)
                else:
                    scale = math.prod(np.abs(x).sum() for x in alone) or 1.0
                    assert np.max(np.abs(row - want)) <= 1e-13 * scale

    def test_blocks_of_rows_give_the_same_rows(self, monkeypatch):
        # one row a block (_FFT_BLOCK below the padded points) or all in one
        rng = np.random.default_rng(3)
        fixed = rng.standard_normal((4, 6, 11)) + 1j * rng.standard_normal((4, 6, 11))
        rows = rng.standard_normal((7, 4, 6, 11))
        together, _ = _lattice_convolution((fixed, rows), (4, 6, 11))
        monkeypatch.setattr(kforms.ring, "_FFT_BLOCK", 1)
        apart, _ = _lattice_convolution((fixed, rows), (4, 6, 11))
        assert np.max(np.abs(together - apart)) <= 1e-13 * np.abs(together).max()

    def test_the_operand_without_rows_is_transformed_once(self, monkeypatch):
        # 5 rows of 2 * 22 padded points each fit one block: one forward
        # transform of the fixed operand, one of the block, one inverse
        rng = np.random.default_rng(4)
        fixed, rows = rng.standard_normal(22), rng.standard_normal((5, 22))
        calls = []
        for name in ("rfft", "irfft"):
            transform = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *args, _f=transform, _name=name, **kwargs: (
                calls.append((_name, args[0].shape)) or _f(*args, **kwargs)))
        _lattice_convolution((fixed, rows), (22,))
        assert [name for name, _ in calls] == ["rfft", "rfft", "irfft"]
        assert calls[0][1] == (22,) and calls[1][1] == (5, 22)
        # blocks of 2 rows (90 points, 45 a row; 23 in the half spectrum): still
        # one transform of `fixed`, then one forward and one inverse a block
        calls.clear()
        monkeypatch.setattr(kforms.ring, "_FFT_BLOCK", 90)
        _lattice_convolution((fixed, rows), (22,))
        blocks = [(2, 22), (2, 23)] * 2 + [(1, 22), (1, 23)]
        assert [shape for _, shape in calls] == [(22,)] + blocks

    def test_a_failed_certificate_recounts_that_row_alone(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 1009  # rough: padded to >= 2n and folded
        fixed = rng.integers(0, 3, n)
        rows = np.zeros((4, n), dtype=np.int64)
        rows[0, :4] = 1  # sparse: tallied by price
        rows[1] = rng.integers(0, 3, n)  # dense, small counts: the FFT, a small residual
        rows[2, 7] = 2
        rows[3] = rng.integers(0, 3, n) * 10**5  # dense, large counts: a larger residual
        certified, residual = _lattice_convolution((fixed, rows), (n,))
        small, large = (_lattice_convolution((fixed, rows[i]), (n,))[1] for i in (1, 3))
        assert 0 < small < large == residual < 0.25
        tally = kforms.ring._lattice_tally
        tallied = []
        monkeypatch.setattr(kforms.ring, "_lattice_tally", lambda arrays, shape: (
            tallied.append(np.count_nonzero(arrays[1])) or tally(arrays, shape)))
        # a limit between the two residuals fails row 3 alone
        monkeypatch.setattr(kforms.ring, "_RESIDUAL_LIMIT", (small + large) / 2)
        recounted, residual = _lattice_convolution((fixed, rows), (n,))
        assert np.array_equal(recounted, certified) and residual == small
        assert tallied == [4, 1, np.count_nonzero(rows[3])]
        # a limit of 0 fails every row taken by the FFT
        tallied.clear()
        monkeypatch.setattr(kforms.ring, "_RESIDUAL_LIMIT", 0.0)
        recounted, residual = _lattice_convolution((fixed, rows), (n,))
        assert np.array_equal(recounted, certified) and residual is None
        assert tallied == [4, 1, np.count_nonzero(rows[1]), np.count_nonzero(rows[3])]

    def test_each_distinct_operand_is_counted_once_a_call(self, monkeypatch):
        # the proof trace's T-map call at q = 2503: alpha and a block of 10
        # level sets' rows; the supports are one count_nonzero an operand,
        # not one a row and operand
        shape = build_ring(2503).shape
        rng = np.random.default_rng(7)
        alpha = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rows = rng.standard_normal((10,) + shape) * (rng.random((10,) + shape) < 0.3)
        ints = rng.integers(0, 3, shape)
        want = [_lattice_convolution((alpha, row), shape)[0] for row in rows]
        calls, count = [], np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda *args, **kwargs: (
            calls.append(args[0].shape) or count(*args, **kwargs)))
        got, _ = _lattice_convolution((alpha, rows), shape)
        assert calls == [(1, alpha.size), (10, alpha.size)]
        calls.clear()
        _lattice_convolution((ints, ints, rng.integers(0, 3, (2,) + shape)), shape)
        assert calls == [(1, alpha.size), (2, alpha.size)]  # ints given twice: one call
        monkeypatch.undo()
        assert np.max(np.abs(got - np.stack(want))) <= 1e-12 * np.abs(got).max()

    def test_totals_are_checked_row_by_row(self):
        big = np.zeros((2, 4), dtype=np.int64)
        big[1, 0] = 2**40
        with pytest.raises(ValueError, match="exceeds int64"):
            _lattice_convolution((big, np.array([2**30, 0, 0, 0])), (4,))


def padded_convolution(operands, shape):
    """The cyclic convolution by numpy's n-D transform, the longest rough
    axis zero-padded to a 5-smooth length >= k*n and folded back: the
    kernel's transform before the four-step."""
    k, axes = len(operands), tuple(range(-len(shape), 0))
    size, axis = list(shape), _fft_plan(shape, k)[1]
    size[axis] = _smooth_length(k * shape[axis])
    spectra = [np.fft.fftn(x, s=size, axes=axes) for x in operands]
    product = spectra[0]
    for f in spectra[1:]:
        product = product * f
    out = np.fft.ifftn(product, axes=axes)
    a = out.ndim - len(shape) + axis
    out = np.moveaxis(out, a, 0)[: k * shape[axis]]
    out = np.moveaxis(out.reshape((k, shape[axis]) + out.shape[1:]).sum(axis=0), 0, a)
    return out if any(np.iscomplexobj(x) for x in operands) else out.real


class TestFourStep:
    """The padded axis from _four_step's threshold on: R rows of P2 columns,
    transformed as rows, twiddles, then columns."""

    @pytest.mark.parametrize("shape, k, kind, rows", [
        ((30010,), 2, "float", 0),  # 30010 = 2 * 5 * 3001
        ((14002,), 3, "complex", 0),  # 2 * 7001
        ((24006,), 2, "float", 3),  # the proof trace's T maps: rows
        ((21014,), 2, "complex", 2),
        ((2, 3, 20011), 2, "float", 0),  # an axis of length 2, the padded axis last
        ((20011, 6), 3, "complex", 2),  # the padded axis first
        ((1000002,), 2, "float", 0),  # q - 1 = 2 * 3 * 166667 at q = 10^6 + 3
    ])
    def test_matches_the_padded_transform(self, shape, k, kind, rows):
        split = _fft_plan(shape, k)[6]
        assert split > 1
        rng = np.random.default_rng(sum(shape) + k)
        draw = lambda lead: (rng.standard_normal(lead + shape) + (
            1j * rng.standard_normal(lead + shape) if kind == "complex" else 0))
        operands = [draw((rows,) if rows and j == k - 1 else ()) for j in range(k)]
        got, residual = _lattice_convolution(operands, shape)
        want = padded_convolution(operands, shape)
        assert residual is None and got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", [(20011,), (4, 20011)])
    def test_certified_integer_rows_equal_the_tally(self, shape):
        # a dense count and rows of sparse ones: pairs the price gives the
        # FFT, few enough for the tally to recount in the test
        rng = np.random.default_rng(shape[-1])
        dense = rng.integers(0, 4, shape)
        rows = rng.integers(0, 3, (3,) + shape) * (rng.random((3,) + shape) < 40 / dense.size)
        assert _fft_plan(shape)[6] > 1
        got, residual = _lattice_convolution((dense, rows), shape)
        assert got.dtype == np.int64 and residual is not None and 0 <= residual < 0.25
        for row, want in zip(got, rows):
            assert np.array_equal(row, _lattice_tally((dense, want), shape))

    @pytest.mark.parametrize("block", [1 << 15, 1000])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_block_twiddles_within_4_ulps_of_np_exp(self, block, sign, monkeypatch):
        # the 10^6 + 3 window's plan: 1024 rows of 2000, the real half's
        # 513 rows twiddled, 16 (or 1) a block
        monkeypatch.setattr(kforms.ring, "_FFT_BLOCK", block)
        size, _, _, _, _, s, split, _ = _fft_plan((1000002,), 2)
        assert (split, s[0], size[0]) == (1024, 2000, 2048000)
        y = np.ones((split // 2 + 1, s[0]), dtype=np.complex128)
        _twiddle(y, 0, size[0], sign)
        e = np.multiply.outer(np.arange(split // 2 + 1), np.arange(s[0]))
        want = np.exp(sign * 2j * np.pi * e / size[0])
        eps = np.finfo(float).eps
        assert np.max(np.abs(y.real - want.real)) <= 4 * eps
        assert np.max(np.abs(y.imag - want.imag)) <= 4 * eps

    def test_plan_and_threshold(self):
        # below the threshold R = 1 and the axis is today's 5-smooth length;
        # from it on P = R * P2 >= k*n, R a power of 2 next to sqrt(P)
        assert _fft_plan((7001,), 2)[0::6] == ((_smooth_length(14002),), 1)
        for n, k in ((20011, 2), (1000002, 2), (1000002, 3), (10000018, 3), (2**20 + 7, 2)):
            size, axis, _, _, axes, s, split, _ = _fft_plan((n,), k)
            assert k * n >= kforms.ring._FOUR_STEP and axis == 0
            assert size[0] == split * s[0] >= k * n and s[0] == _smooth_length(s[0])
            assert split & (split - 1) == 0 and split ** 2 <= 4 * size[0] <= 16 * split ** 2
            assert axes == (1, 0) and s[-1] == split


class TestDotsAt:
    @pytest.mark.parametrize("h", [1, 3, 11, 500])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_the_cyclic_and_negacyclic_kernels(self, h, sign):
        # the periodic reads are the cyclic convolution over Z_h, the
        # antiperiodic ones the negacyclic one
        rng = np.random.default_rng(h)
        a, b = rng.standard_normal(h), rng.standard_normal(h)
        full, _ = _lattice_convolution((a, b), (h,), sign < 0)
        k = np.unique(np.concatenate([rng.integers(0, h, 7), [0, h - 1]]))
        assert np.max(np.abs(_dots_at(a, b, k, sign) - full[k])) <= 1e-12 * np.abs(a).sum()
        assert _dots_at(a, b, k[:0], sign).shape == (0,)


class TestNegacyclicKernel:
    """x^h = -1: the kernel's fold along a padded axis with alternating signs."""

    @pytest.mark.parametrize("h", [1, 2, 7, 1009, 1024, 7143, 500001])
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_the_antiperiodic_doubling(self, h, k):
        # (a, -a) * (b, -b) * ... on Z_2h is 2^(k-1) times the negacyclic
        # product on its first half: 1024 is 5-smooth, so padded for the
        # fold alone; 7143 pads below the four-step, 500001 past it
        rng = np.random.default_rng(h + k)
        operands = [rng.standard_normal(h) for _ in range(k)]
        got, residual = _lattice_convolution(operands, (h,), True)
        doubled, _ = _lattice_convolution([np.concatenate((x, -x)) for x in operands], (2 * h,))
        want = doubled[:h] / 2 ** (k - 1)
        assert residual is None and got.shape == (h,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_small_lengths_against_the_definition(self):
        # c(x) = sum over x_1 + x_2 = x mod h of the products, negated where
        # the sum wraps; sparse operands take the FFT, not the cyclic tally
        rng = np.random.default_rng(5)
        for h in (1, 2, 5, 12):
            a, b = rng.standard_normal(h) * (rng.random(h) < 0.5), rng.standard_normal(h)
            want = np.zeros(h)
            for i, j in np.ndindex(h, h):
                want[(i + j) % h] += a[i] * b[j] * (-1 if i + j >= h else 1)
            assert np.allclose(_lattice_convolution((a, b), (h,), True)[0], want, atol=1e-13)

    def test_plan_pads_a_smooth_axis(self):
        assert _fft_plan((1024,), 2)[1] is None and _fft_plan((1024,), 2, True)[:2] == ((2048,), 0)

    def test_integer_operands_refused(self):
        with pytest.raises(ValueError, match="negacyclic convolution takes float operands"):
            _lattice_convolution((np.arange(4), np.arange(4)), (4,), True)


class TestSmoothLength:
    @staticmethod
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    def test_matches_a_stepwise_search(self):
        for n in range(1, 5000):
            m = n
            while not self.smooth(m):
                m += 1
            assert _smooth_length(n) == m

    def test_large_lengths_match_the_least_exponent_triple(self):
        rng = np.random.default_rng(7)
        ns = [2 * MAX_MODULUS, 2 * MAX_MODULUS - 1, 2**33, 5**14 + 1,
              *rng.integers(5000, 2 * MAX_MODULUS, 40).tolist()]
        triples = [2**a * 3**b * 5**c for a in range(36) for b in range(23) for c in range(16)]
        for n in ns:
            assert _smooth_length(n) == min(m for m in triples if m >= n)


class TestIsPrime:
    def test_matches_factorize(self):
        for n in range(-2, 30000):
            assert is_prime(n) == (n >= 2 and factorize(n) == [(n, 1)]), n

    def test_strong_pseudoprimes_and_carmichael_numbers(self):
        # strong pseudoprimes to base 2 (2047 ...), to bases 2, 3, 5 (25326001),
        # Carmichael numbers, and 3215031751 = 151*751*28351, the first strong
        # pseudoprime to 2, 3, 5 and 7, which trial division settles
        for n in (2047, 3277, 4033, 4681, 8321, 1373653, 25326001, 561, 1105, 1729,
                  2465, 2821, 6601, 8911, 3215031751):
            assert not is_prime(n), n
        assert is_prime(3037000493) and not is_prime(MAX_MODULUS)  # 3037000493: largest prime

    def test_range_near_the_modulus_bound(self):
        # 102 primes, counted by trial division
        assert sum(map(is_prime, range(2999900000, 2999902001))) == 102


class TestFactorize:
    @pytest.mark.parametrize("n", [0, -3])
    def test_below_one_refused(self, n):
        with pytest.raises(ValueError, match=f"cannot factorize {n}"):
            factorize(n)

    def test_primitive_root_lift(self):
        # 5, the least primitive root mod p = 40487, has 5^(p-1) = 1 mod p^2,
        # so mod p^e it lifts to 5 + p, of order p(p-1); no admitted ring is
        # large enough to reach this lift
        p = 40487
        assert _primitive_root(p, 1) == 5 and pow(5, p - 1, p * p) == 1
        g = _primitive_root(p, 2)
        assert g == 40492
        order = p * (p - 1)
        assert pow(g, order, p * p) == 1
        assert all(pow(g, order // r, p * p) != 1 for r, _ in factorize(order))


class TestCertified:
    def test_rounds_and_checks_the_totals(self):
        c = np.array([[1.1, 2.0, -0.05], [3.0, 0.2, 0.0]])
        counts, residual = _certified(c.copy(), [3, 3], axis=1)
        assert counts.tolist() == [[1, 2, 0], [3, 0, 0]]
        assert residual == pytest.approx(0.2)
        assert _certified(c.copy(), [3, 4], axis=1) is None  # a total is off
        assert _certified(c.copy(), 6)[1] == pytest.approx(0.2)
        assert _certified(np.array([0.3, 1.0]), 1) is None  # residual 0.3 >= 1/4
