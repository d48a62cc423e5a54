import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import kforms
from kforms import (
    IntervalSet,
    average_reciprocal_sweep,
    build_characters,
    build_ring,
    energy_character_identity,
    multiplicative_energy,
    reciprocal_count_mod,
    reciprocal_count_naive,
    reciprocal_count_rational,
    reciprocal_moment_identity,
)
from kforms.cli import main
from kforms.counts import (
    _inverse_table, _product_counts, _product_energy, _reciprocal_counts, _sum_of_squares,
    _unit_inverses, _unit_inverses_upto, _unit_members,
)
from kforms.ring import _lattice_convolution, cyclic_dft, factorize
from conftest import random_interval


def brute_energy(q, a_interval, b_interval):
    # quadruple enumeration oracle
    a_vals = [int(a) % q for a in a_interval.members() if math.gcd(int(a), q) == 1]
    b_vals = [int(b) % q for b in b_interval.members() if math.gcd(int(b), q) == 1]
    count = 0
    for a1, b1, a2, b2 in itertools.product(a_vals, b_vals, a_vals, b_vals):
        if (a1 * b1 - a2 * b2) % q == 0:
            count += 1
    return count


class TestMultiplicativeEnergy:
    def test_small_example(self):
        report = multiplicative_energy(build_ring(5), IntervalSet(0, 2), IntervalSet(0, 2))
        assert report.value == 6
        assert report.bound_value == pytest.approx(16 / 5 + 4)
        assert brute_energy(5, IntervalSet(0, 2), IntervalSet(0, 2)) == 6

    def test_singletons(self):
        assert multiplicative_energy(build_ring(9), IntervalSet(0, 1), IntervalSet(0, 1)).value == 1

    def test_non_unit_factor_kills_count(self):
        assert multiplicative_energy(build_ring(4), IntervalSet(1, 1), IntervalSet(0, 1)).value == 0

    def test_matches_quadruple_enumeration(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            q = int(rng.integers(2, 100))
            a = random_interval(rng, q, max_len=min(q, 12))
            b = random_interval(rng, q, max_len=min(q, 12))
            assert multiplicative_energy(build_ring(q), a, b).value == brute_energy(q, a, b)

    def test_monotone_under_extension(self):
        ring = build_ring(97)
        a, b = IntervalSet(3, 10), IntervalSet(-5, 8)
        wider = IntervalSet(3, 20)
        assert (
            multiplicative_energy(ring, wider, b).value
            >= multiplicative_energy(ring, a, b).value
        )

    def test_diagonal_lower_bound(self):
        ring = build_ring(60)
        a, b = IntervalSet(0, 30), IntervalSet(7, 21)
        a_units = sum(1 for x in a.members() if math.gcd(int(x), 60) == 1)
        b_units = sum(1 for x in b.members() if math.gcd(int(x), 60) == 1)
        assert multiplicative_energy(ring, a, b).value >= a_units * b_units


BINS = "q/2 bin + 2*keyed pair words"


def tally_prices(monkeypatch, q, k, H, segment_cost=None):
    """The energy of IntervalSet(k, H) with itself mod q, with the work each
    check_work call of the count priced, by label."""
    prices = {}

    def price(work, label):
        prices[label] = work

    monkeypatch.setattr(kforms.counts, "check_work", price)
    if segment_cost is not None:
        monkeypatch.setattr(kforms.counts, "_SEGMENT_COST", segment_cost)
    interval = IntervalSet(k, H)
    return _product_energy(build_ring(q), interval, interval)[0], prices


class TestProgressionTally:
    @pytest.mark.parametrize("q, k, H, keyed_rows", [
        # rows of step <= 1000 wrap at most once: all but the ~250 shortest walk
        (10**6 + 3, 0, 1000, range(200, 300)),
        # steps near q/3 wrap every third member: every row keyed
        (10**6 + 3, (10**6 + 3) // 3, 1000, range(1000, 1001)),
        # rows from q - 1000 up walk down by at most 1000
        (999983, 999983 - 1001, 1000, range(200, 300)),
    ])
    def test_rows_walk_or_key_by_price(self, q, k, H, keyed_rows, monkeypatch):
        value, prices = tally_prices(monkeypatch, q, k, H)
        assert (prices[BINS] - q // 2) // (2 * H) in keyed_rows
        assert tally_prices(monkeypatch, q, k, H, segment_cost=math.inf)[0] == value

    def test_sparse_products_take_the_sort(self, monkeypatch):
        # 10^5 pairs, q > 8 bins a pair: the keys are sorted, no bins held
        _, prices = tally_prices(monkeypatch, 1000033, 3, 316)
        assert "3*pairs sort words" in prices and BINS not in prices

    def test_walked_tally_holds_only_its_bins(self):
        # 10^6 int32 bins (3.8 MiB) and the short keyed rows; keying every
        # row held 15.4 MiB with int64 bins
        interval, ring = IntervalSet(0, 1000), build_ring(10**6 + 3)
        tracemalloc.start()
        try:
            _product_energy(ring, interval, interval)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("q, a, b", [
        (1009, IntervalSet(-3000, 30), IntervalSet(-3000, 30)),
        (1009, IntervalSet(500, 30), IntervalSet(-2019, 28)),  # rows near q/2
        (2310, IntervalSet(-5000, 100), IntervalSet(-5000, 100)),  # non-units fall in
        (2310, IntervalSet(1100, 100), IntervalSet(-4000, 110)),
    ])
    @pytest.mark.parametrize("cost", [0, math.inf])
    def test_every_row_walked_or_keyed_matches_pair_enumeration(self, q, a, b, cost, monkeypatch):
        # these energies are tallied in q bins (no table is read); a zero
        # slice price walks every row, an infinite one keys every row
        monkeypatch.setattr(kforms.counts, "_SEGMENT_COST", cost)
        units = [[x % q for x in iv.members().tolist() if math.gcd(x, q) == 1] for iv in (a, b)]
        products = Counter(x * y % q for x in units[0] for y in units[1])
        ring = build_ring(q)
        assert _product_energy(ring, a, b)[0] == sum(c * c for c in products.values())
        assert "unit_mask" not in vars(ring)


    @pytest.mark.parametrize("q, start", [(2, 0), (7, -10), (12, 5), (30, -61), (97, 40)])
    @pytest.mark.parametrize("periods", [1, 2, 5])
    def test_interval_with_itself_past_q_walks_from_each_next_member(
        self, q, start, periods, monkeypatch
    ):
        # members repeat their residues once the interval passes q, so each
        # row's walk starts at its member's index, not at its residue's offset
        interval = IntervalSet(start, periods * q + 3)
        ra = _unit_members(interval, q, factorize(q))
        keyed = _product_counts(ra, ra.copy(), q)  # not rb is ra: every ordered pair keyed
        monkeypatch.setattr(kforms.counts, "_SEGMENT_COST", 0)  # every row walked
        assert np.array_equal(_product_counts(ra, ra, q, interval, factorize(q)), keyed)


class TestEnergyCharacterIdentity:
    def test_small_example(self):
        ring = build_ring(5)
        table = build_characters(ring)
        energy, principal, remainder = energy_character_identity(
            ring, table, IntervalSet(0, 2), IntervalSet(0, 2)
        )
        assert energy == pytest.approx(6, rel=1e-9)
        assert principal == pytest.approx(4)
        assert remainder == pytest.approx(2, rel=1e-9)

    def test_singleton(self):
        ring = build_ring(11)
        table = build_characters(ring)
        energy, principal, remainder = energy_character_identity(
            ring, table, IntervalSet(0, 1), IntervalSet(0, 1)
        )
        assert energy == pytest.approx(1, rel=1e-9)
        assert principal == pytest.approx(1 / ring.phi)
        assert remainder == pytest.approx(1 - 1 / ring.phi, rel=1e-9)

    def test_decomposition_is_exact(self):
        rng = np.random.default_rng(52)
        for _ in range(12):
            q = int(rng.integers(2, 300))
            ring = build_ring(q)
            table = build_characters(ring)
            a = random_interval(rng, q)
            b = random_interval(rng, q)
            energy, principal, remainder = energy_character_identity(ring, table, a, b)
            assert energy == principal + remainder
            assert energy == pytest.approx(
                multiplicative_energy(ring, a, b).value, rel=1e-6, abs=1e-6
            )


class TestReciprocalCountMod:
    def test_diagonal_pairs(self):
        assert reciprocal_count_mod(build_ring(10), 1, 10).value == 4

    def test_small_example(self):
        assert reciprocal_count_mod(build_ring(5), 2, 2).value == 6

    def test_k_equals_one(self):
        for q in (2, 7, 30):
            for r in (1, 2, 3):
                assert reciprocal_count_mod(build_ring(q), r, 1).value == 1
        # at K=1 the r=2 reference is 1 + q^(-1/2), so the ratio stays below 1
        report = reciprocal_count_mod(build_ring(30), 2, 1)
        assert report.bound_value == pytest.approx(1 + 30**-0.5)
        assert report.ratio is not None and report.ratio <= 1

    def test_k_out_of_range(self):
        ring = build_ring(20)
        with pytest.raises(ValueError, match="K out of range"):
            reciprocal_count_mod(ring, 2, 21)
        with pytest.raises(ValueError, match="K out of range"):
            reciprocal_count_mod(ring, 2, 0)

    def test_bad_r(self):
        with pytest.raises(ValueError, match="r must be"):
            reciprocal_count_mod(build_ring(5), 0, 2)

    def test_convolution_matches_naive_tally(self):
        rng = np.random.default_rng(53)
        cases = [(2, 1, 1), (10, 1, 10), (5, 2, 5), (30, 2, 30)]
        while len(cases) < 24:
            q = int(rng.integers(2, 500))
            r = int(rng.integers(1, 3))
            cases.append((q, r, int(rng.integers(1, q + 1))))
        for q, r, K in cases:
            ring = build_ring(q)
            assert reciprocal_count_mod(ring, r, K).value == reciprocal_count_naive(ring, r, K)

    @pytest.mark.parametrize("q", [2, 97, 210, 1009, 2503])
    def test_rows_of_k_match_the_naive_tally(self, q):
        # one kernel call whose rows are the indicators, largest K first as the
        # proof trace asks; dense rows take the FFT and sparse ones the tally
        ring = build_ring(q)
        for r, top in ((1, q), (2, 400), (3, 60)):  # the naive tally is O(K^r)
            ks = [1, max(1, q // 200), max(1, min(q, top // 3)), min(q, top), 1]
            values, _ = _reciprocal_counts(ring, r, ks)
            assert values == {K: reciprocal_count_naive(ring, r, K) for K in ks}, (q, r)
            assert values == {K: reciprocal_count_mod(ring, r, K).value for K in ks}

    def test_rows_of_k_are_one_kernel_call(self, monkeypatch):
        # one row per distinct K, largest first, every row tallied before any FFT
        calls, tallied = [], []
        kernel, tally = kforms.counts._lattice_convolution, kforms.ring._lattice_tally
        monkeypatch.setattr(kforms.counts, "_lattice_convolution", lambda operands, shape: (
            calls.append([np.shape(x) for x in operands]) or kernel(operands, shape)))
        monkeypatch.setattr(kforms.ring, "_lattice_tally", lambda arrays, shape: (
            tallied.append(np.count_nonzero(arrays[0])) or tally(arrays, shape)))
        values, residual = _reciprocal_counts(build_ring(1009), 2, [30, 1009, 5, 400, 30])
        assert calls == [[(4, 1009), (4, 1009)]] and residual < 0.25
        assert list(values) == [1009, 400, 30, 5] and tallied == [30, 5]

    def test_monotone_in_k(self):
        ring = build_ring(101)
        values = [reciprocal_count_mod(ring, 2, K).value for K in range(1, 102, 10)]
        assert values == sorted(values)

    def test_diagonal_lower_bound(self):
        ring = build_ring(60)
        K = 45
        units_below = sum(1 for x in range(1, K + 1) if math.gcd(x, 60) == 1)
        for r in (1, 2):
            assert reciprocal_count_mod(ring, r, K).value >= units_below**r


class TestReciprocalMomentIdentity:
    def test_matches_exact_count(self):
        identity, count = reciprocal_moment_identity(build_ring(5), 2, 2)
        assert count.value == 6
        assert identity == pytest.approx(6, rel=1e-6)
        identity, count = reciprocal_moment_identity(build_ring(10), 1, 10)
        assert count.value == 4
        assert identity == pytest.approx(4, rel=1e-6)

    def test_random_inputs(self):
        rng = np.random.default_rng(54)
        for _ in range(25):
            q = int(rng.integers(2, 400))
            r = int(rng.integers(1, 3))
            K = int(rng.integers(1, q + 1))
            identity, count = reciprocal_moment_identity(build_ring(q), r, K)
            assert count.value >= 1  # x = 1 is always a unit, so the diagonal is nonempty
            assert identity == pytest.approx(count.value, rel=1e-6)

    @pytest.mark.parametrize("q", [2, 12, 97, 2310, 10007])
    def test_twin_equals_the_inverse_indicator_formula(self, q):
        # the twin reads _unit_dft; the indicator of the inverses of the units
        # in [1, K] through cyclic_dft gives the same floats, bit for bit
        ring = build_ring(q)
        for r, K in itertools.product((1, 2, 3), [K for K in sorted({1, 7, q}) if K <= q]):
            v = np.bincount(_unit_inverses_upto(ring, K), minlength=q)
            expected = np.sum(np.abs(cyclic_dft(ring, v)) ** (2 * r)) / q
            assert reciprocal_moment_identity(ring, r, K)[0] == expected


class TestReciprocalCountRational:
    def test_r1_is_diagonal_only(self):
        assert reciprocal_count_rational(1, 7).value == 7

    def test_small_examples(self):
        assert reciprocal_count_rational(2, 2).value == 6
        assert reciprocal_count_rational(2, 3).value == 15

    def test_matches_fraction_enumeration(self):
        K, r = 6, 2
        tally = {}
        for combo in itertools.product(range(1, K + 1), repeat=r):
            key = sum(Fraction(1, x) for x in combo)
            tally[key] = tally.get(key, 0) + 1
        expected = sum(c * c for c in tally.values())
        assert reciprocal_count_rational(r, K).value == expected

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="dimension too large"):
            reciprocal_count_rational(3, 1000)

    def test_largest_admitted_keys_fit_int64(self):
        # the largest K the work budget admits for each r the bound admits
        for r in range(1, 64):
            K = round((kforms.ring.DEFAULT_WORK_BUDGET / 8) ** (1 / r)) + 1
            while 8 * K**r > kforms.ring.DEFAULT_WORK_BUDGET:
                K -= 1
            with pytest.raises(ValueError, match="dimension too large"):
                reciprocal_count_rational(r, K + 1)
            states = K**r
            assert r * states * (states + 1) + states < 2**63, (r, K)
        with pytest.raises(ValueError, match="dimension too large"):
            reciprocal_count_rational(64, 1)

    def test_monotone_in_k(self):
        values = [reciprocal_count_rational(2, K).value for K in range(1, 12)]
        assert values == sorted(values)


class TestAverageReciprocalSweep:
    def test_trivial_k1(self):
        report = average_reciprocal_sweep(40, 1, 1)
        assert report.measured == pytest.approx((40 + 1) / 40)
        assert report.reference == pytest.approx(1 / 40 + 1)

    def test_small_sweep_is_exact_and_deterministic(self):
        first = average_reciprocal_sweep(50, 2, 10)
        again = average_reciprocal_sweep(50, 2, 10)
        assert first.measured == again.measured
        assert first.params["sum_total"] == again.params["sum_total"]
        # spot-check three moduli against the naive tally
        total_checked = 0
        for q in (50, 77, 100):
            ring = build_ring(q)
            total_checked += reciprocal_count_naive(ring, 2, 10)
            assert reciprocal_count_mod(ring, 2, 10).value == reciprocal_count_naive(ring, 2, 10)
        assert first.params["sum_total"] >= total_checked

    def test_k_above_q_rejected(self):
        with pytest.raises(ValueError, match="K <= Q"):
            average_reciprocal_sweep(10, 2, 11)

    @pytest.mark.parametrize("r", [0, -2, 64])
    def test_r_out_of_range_rejected(self, r):
        with pytest.raises(ValueError, match=r"r must be >= 1|r = 64 exceeds 63"):
            average_reciprocal_sweep(10, r, 5)

    @staticmethod
    def per_modulus_total(Q, r, K):
        # q = 1: every x is a unit, every sum is congruent, so J_r = K^(2r)
        return sum(
            reciprocal_count_mod(build_ring(q), r, K).value if q > 1 else K ** (2 * r)
            for q in range(Q, 2 * Q + 1)
        )

    @pytest.mark.parametrize("Q", [1, 2, 3, 17, 64])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_batch_matches_the_per_modulus_counts(self, Q, r):
        for K in sorted({1, -(-Q // 2), Q}):
            report = average_reciprocal_sweep(Q, r, K)
            assert report.params["sum_total"] == self.per_modulus_total(Q, r, K), (Q, r, K)

    def test_highly_composite_rows(self):
        # q in [210, 420] holds 210, 240, 252, 300, 330, 360, 390 and 420
        for r, K in ((2, 105), (3, 30)):
            total = average_reciprocal_sweep(210, r, K).params["sum_total"]
            assert total == self.per_modulus_total(210, r, K)

    def test_routing_between_batch_and_per_modulus_tally(self, monkeypatch):
        # the r = 10 reference, modulus by modulus by the kernel's tally alone
        expected = sum(
            _sum_of_squares(kforms.ring._lattice_tally(
                [np.bincount(_unit_inverses_upto(build_ring(q), 40), minlength=q)] * 10, (q,)))
            for q in range(40, 81)
        )
        calls = []
        tally = kforms.counts._lattice_tally

        def spy(arrays, shape):
            calls.append(shape[0])
            return tally(arrays, shape)

        def unexpected(operands, shape):
            raise AssertionError("Lemma 2.5 calls the lattice kernel")

        monkeypatch.setattr(kforms.counts, "_lattice_tally", spy)
        monkeypatch.setattr(kforms.counts, "_lattice_convolution", unexpected)
        # units^10 passes 2^52 at the ten primes, but every entry stays below
        # it: the block takes the batched FFT, which certifies the same total
        report = average_reciprocal_sweep(40, 10, 40)
        assert report.params["sum_total"] == expected and calls == []
        units = [sum(math.gcd(x, q) == 1 for x in range(1, 41)) for q in range(40, 81)]
        assert sum(n**10 > 2**52 for n in units) == 10
        # dense rows go through the batched FFT alone
        average_reciprocal_sweep(64, 2, 64)
        assert calls == []
        # three units a row at q ~ 2400: the per-modulus tally prices lower
        report = average_reciprocal_sweep(1200, 2, 3)
        assert calls == list(range(1200, 2401))
        expected = 0
        for q in range(1200, 2401):
            inverses = [pow(x, -1, q) for x in range(1, 4) if math.gcd(x, q) == 1]
            sums = Counter((a + b) % q for a in inverses for b in inverses)
            expected += sum(c * c for c in sums.values())
        assert report.params["sum_total"] == expected

    def test_total_past_int64_rejected(self):
        # q = 11 holds all ten x <= 10 as units: 10^20 > 2^63
        with pytest.raises(ValueError, match="exceeds int64"):
            average_reciprocal_sweep(10, 20, 10)

    def test_inverses_match_pow_and_gcd(self):
        qs = np.arange(1, 301, dtype=np.int64)
        inverses, units = _unit_inverses(qs[:, None], _inverse_table(300), 300)
        for q in range(1, 301):
            for x in range(1, q + 1):
                unit = math.gcd(x, q) == 1
                assert units[q - 1, x - 1] == unit, (q, x)
                if unit:
                    assert inverses[q - 1, x - 1] == pow(x, -1, q), (q, x)


class TestExactConvolution:
    CASES = [(1009, 2, 500), (1009, 3, 40), (1536, 2, 700), (97, 2, 97)]

    def test_certified_fft_reports_its_residual(self):
        for q, r, K in self.CASES:
            report = reciprocal_count_mod(build_ring(q), r, K)
            assert report.residual is not None and 0 <= report.residual < 0.25
        # sparse supports are tallied, and r = 1 convolves nothing
        assert reciprocal_count_mod(build_ring(1009), 2, 5).residual is None
        assert reciprocal_count_mod(build_ring(1009), 1, 500).residual is None
        energy = multiplicative_energy(build_ring(1009), IntervalSet(0, 1009), IntervalSet(5, 800))
        assert energy.residual < 0.25
        # 2520's lattice (2, 2, 6, 4, 6) takes its two axes of length 2 by butterflies
        energy = multiplicative_energy(build_ring(2520), IntervalSet(0, 2520), IntervalSet(5, 800))
        assert energy.residual < 0.25

    def test_forced_fallback_gives_the_same_counts(self, monkeypatch):
        ring = build_ring(1009)
        a, b = IntervalSet(-3, 1500), IntervalSet(40, 700)
        certified = [reciprocal_count_mod(build_ring(q), r, K).value for q, r, K in self.CASES]
        energy = multiplicative_energy(ring, a, b).value
        monkeypatch.setattr(kforms.ring, "_RESIDUAL_LIMIT", 0.0)
        tallied = [reciprocal_count_mod(build_ring(q), r, K) for q, r, K in self.CASES]
        assert [t.value for t in tallied] == certified
        assert all(t.residual is None for t in tallied)
        assert multiplicative_energy(ring, a, b).value == energy
        assert [reciprocal_count_naive(build_ring(q), r, K) for q, r, K in self.CASES[1:]] == (
            certified[1:]
        )

    @pytest.mark.parametrize("q, K", [
        (1009, 40),  # (1009,): one rough axis, padded to >= 3n and folded
        (1536, 60),  # (1536,): 5-smooth, unpadded
        (2310, 300),  # (2310,): rough (2*3*5*7*11), padded, 62 units
    ])
    def test_chained_j3_matches_the_naive_and_pairwise_counts(self, q, K, monkeypatch):
        # J_3 is one kernel call on (v, v, v), v the indicator of the inverses:
        # one forward transform, cubed, one inverse
        ring = build_ring(q)
        chained = reciprocal_count_mod(ring, 3, K)
        assert chained.residual is not None and chained.residual < 0.25
        v = np.bincount(_unit_inverses_upto(ring, K), minlength=q)
        pairwise = _lattice_convolution((_lattice_convolution((v, v), (q,))[0], v), (q,))[0]
        assert chained.value == _sum_of_squares(pairwise) == reciprocal_count_naive(ring, 3, K)
        # a failed certificate is recounted by the tally, two operands at a time
        tally = kforms.ring._lattice_tally
        steps = []
        monkeypatch.setattr(kforms.ring, "_lattice_tally", lambda arrays, shape: (
            steps.append(len(arrays)) or tally(arrays, shape)))
        monkeypatch.setattr(kforms.ring, "_RESIDUAL_LIMIT", 0.0)
        recounted = reciprocal_count_mod(ring, 3, K)
        assert (recounted.value, recounted.residual, steps) == (chained.value, None, [3])

    def test_one_spectrum_raised_to_the_r_th_power(self, monkeypatch):
        calls = []
        for name in ("rfft", "irfft"):
            transform = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *args, _f=transform, _name=name, **kwargs: (
                calls.append(_name) or _f(*args, **kwargs)))
        for r in (2, 3, 4):
            calls.clear()
            count = reciprocal_count_mod(build_ring(1009), r, 100)
            assert calls == ["rfft", "irfft"] and count.residual is not None, r

    def test_entries_past_the_limit_are_recounted_by_the_tally(self, monkeypatch):
        # every entry of a * b is ~2^55 > 2^52, on supports the cost model
        # gives the FFT: _certified refuses its rounded result, and the tally
        # recounts the row
        n = 64
        a = np.full(n, 2**24, dtype=np.int64)
        b = np.arange(n, dtype=np.int64) * 2**20
        linear = np.convolve(a, b)
        oracle = linear[:n].copy()
        oracle[: n - 1] += linear[n:]
        assert oracle.min() > 2**52
        calls = []
        transform, tally = np.fft.rfft, kforms.ring._lattice_tally
        monkeypatch.setattr(np.fft, "rfft", lambda *args, **kwargs: (
            calls.append("rfft") or transform(*args, **kwargs)))
        monkeypatch.setattr(kforms.ring, "_lattice_tally", lambda arrays, shape: (
            calls.append("tally") or tally(arrays, shape)))
        got, residual = _lattice_convolution((a, b), (n,))
        assert residual is None and np.array_equal(got, oracle)
        assert calls == ["rfft", "rfft", "tally"]
        with pytest.raises(ValueError, match="exceeds int64"):
            _lattice_convolution((np.array([2**40]), np.array([2**40])), (1,))

    @pytest.mark.parametrize("q", [1009, 10007, 100003, 170003])
    @pytest.mark.parametrize("r", [2, 3])
    def test_j_r_over_all_units_matches_the_closed_form(self, q, r):
        # at a prime q, c(z), the number of r-tuples of nonzero residues with
        # sum z, is ((q-1)^r + (-1)^r (q-1))/q at 0 and ((q-1)^r - (-1)^r)/q
        # elsewhere; J_3's total (q-1)^3 passes 2^52 at q = 170,003
        zero, other = ((q - 1) ** r + (-1) ** r * (q - 1)) // q, ((q - 1) ** r - (-1) ** r) // q
        report = reciprocal_count_mod(build_ring(q), r, q)
        assert report.value == zero**2 + (q - 1) * other**2
        assert report.residual is not None and report.residual < 0.25

    def test_j3_with_a_total_past_2_52_matches_two_certified_halves(self):
        # J_3(200,003; 180,000) has total 180,000^3 > 2^52; the reference is
        # (x * x) * h over two disjoint halves h of x, each total below 2^52
        q, K = 200003, 180000
        ring = build_ring(q)
        x = np.bincount(_unit_inverses_upto(ring, K), minlength=q)
        square, residual = _lattice_convolution((x, x), (q,))
        assert residual is not None
        first = np.zeros_like(x)
        first[np.flatnonzero(x)[: K // 2]] = 1
        cubes = [_lattice_convolution((square, h), (q,)) for h in (first, x - first)]
        assert K**3 > 2**52 > K * K * (K // 2) and all(res is not None for _, res in cubes)
        report = reciprocal_count_mod(ring, 3, K)
        assert report.residual is not None
        assert report.value == _sum_of_squares(cubes[0][0] + cubes[1][0])

    def test_entry_limit_mutant_sends_its_rows_to_the_tally(self, monkeypatch):
        # _FFT_ENTRY_LIMIT lowered below a row's largest entry sends that row,
        # and only it, to the tally, which recounts the same values
        ring = build_ring(1009)
        rows = np.zeros((2, 1009), dtype=np.int64)
        for row, K in zip(rows, (600, 300)):
            row[_unit_inverses_upto(ring, K)] = 1
        certified, residual = _lattice_convolution((rows, rows), (1009,))
        top = certified.max(axis=1).tolist()
        assert residual is not None and top[0] > top[1]
        tally, tallied = kforms.ring._lattice_tally, []
        monkeypatch.setattr(kforms.ring, "_lattice_tally", lambda arrays, shape: (
            tallied.append(int(arrays[0].sum())) or tally(arrays, shape)))
        cases = ((top[1], [600], True), (top[1] - 1, [600, 300], False))
        for limit, rows_tallied, fft_left in cases:
            tallied.clear()
            monkeypatch.setattr(kforms.ring, "_FFT_ENTRY_LIMIT", limit)
            got, residual = _lattice_convolution((rows, rows), (1009,))
            assert np.array_equal(got, certified) and tallied == rows_tallied
            assert (residual is not None) == fft_left
        # a Lemma 2.5 block whose certificate fails is counted modulus by modulus
        expected = average_reciprocal_sweep(64, 2, 64).params["sum_total"]
        tallied.clear()
        monkeypatch.setattr(kforms.counts, "_lattice_tally", kforms.ring._lattice_tally)
        monkeypatch.setattr(kforms.ring, "_FFT_ENTRY_LIMIT", 0)
        assert average_reciprocal_sweep(64, 2, 64).params["sum_total"] == expected
        assert len(tallied) == 65

    def test_fft_over_the_work_budget_is_refused(self, monkeypatch):
        # 7 words per padded point: 2048000 points (1024 rows of 2000) at
        # n = 1000002
        points = math.prod(kforms.ring._fft_plan((1000002,))[0])
        assert points == 2048000
        monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", 7 * points - 1)
        a = np.ones(1000002)
        with pytest.raises(ValueError, match="dimension too large"):
            _lattice_convolution((a, a), a.shape)
        monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", 7 * points)
        assert np.allclose(_lattice_convolution((a, a), a.shape)[0], a.size)

    def test_fallback_over_the_work_budget_is_refused(self, monkeypatch):
        monkeypatch.setattr(kforms.ring, "_RESIDUAL_LIMIT", 0.0)
        monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", 1000)
        with pytest.raises(ValueError, match="dimension too large"):
            reciprocal_count_mod(build_ring(1009), 2, 500)
        assert main(["jr-mod", "--q", "1009", "--K", "500"]) == 2

    def test_sum_of_squares_is_exact_past_int64(self):
        big = 3_037_000_500  # big^2 > 2^63
        values = np.array([big, big, 7, 0], dtype=np.int64)
        assert _sum_of_squares(values) == 2 * big * big + 49
        assert _sum_of_squares(np.array([3, 4], dtype=np.int64)) == 25
