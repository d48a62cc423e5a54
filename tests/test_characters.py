import itertools
import math

import mpmath
import numpy as np
import pytest

import kforms.characters
from kforms import (
    IntervalSet,
    build_characters,
    build_ring,
    character_values,
    energy_character_identity,
    eval_character,
    fourth_moment,
    interval_character_sums,
    moment_identity_check,
)
from conftest import random_interval

# the trivial group, cyclic groups, and lattices whose packed axis (the
# longest even one) is not the last, some with axes of length 2
SUM_MODULI = (2, 3, 4, 8, 12, 24, 97, 360, 486, 1536, 1997)


def table_for(q):
    return build_ring(q), build_characters(build_ring(q))


class TestBuildCharacters:
    def test_prime_group_is_cyclic(self):
        _, table = table_for(5)
        assert table.phi == 4
        assert table.shape == (4,)

    def test_mod_eight_group_structure(self):
        # (Z/8)* is C2 x C2: every character is real and squares to the
        # principal one (enumeration oracle over all values)
        ring, table = table_for(8)
        assert table.phi == 4
        for idx in range(4):
            vals = character_values(table, idx)[ring.units]
            assert np.allclose(vals.imag, 0)
            assert np.allclose(np.abs(vals), 1)
            assert np.allclose(vals**2, 1)

    def test_two_has_principal_only(self):
        _, table = table_for(2)
        assert table.phi == 1
        assert eval_character(table, 0, 1) == pytest.approx(1)

    def test_one_table_per_ring(self):
        # the ring is its own character table: one object per modulus
        ring = build_ring(97)
        assert build_characters(ring) is ring
        for name in ("characters", "char_count", "orders", "exponent"):
            assert not hasattr(ring, name), name

    def test_char_count_equals_phi(self):
        for q in (3, 4, 8, 12, 16, 24, 45, 90, 97, 360):
            ring, table = table_for(q)
            assert math.prod(table.shape) == ring.phi


class TestEvalCharacter:
    def test_principal_is_one_on_units(self):
        ring, table = table_for(36)
        for x in ring.units:
            assert eval_character(table, 0, int(x)) == pytest.approx(1)

    def test_zero_off_units(self):
        ring, table = table_for(12)
        for idx in range(table.phi):
            for x in (0, 2, 3, 4, 6, 8):
                assert eval_character(table, idx, x) == 0

    def test_power_relation(self):
        # the character with chi(2) = i mod 5 has chi(4) = chi(2)^2 = -1
        _, table = table_for(5)
        idx = next(
            i for i in range(4) if abs(eval_character(table, i, 2) - 1j) < 1e-12
        )
        assert eval_character(table, idx, 4) == pytest.approx(-1)

    def test_index_out_of_range(self):
        _, table = table_for(7)
        with pytest.raises(IndexError):
            eval_character(table, 6, 1)
        with pytest.raises(IndexError):
            eval_character(table, -1, 1)

    def test_orthogonality(self):
        for q in (5, 8, 12, 45, 97, 120):
            ring, table = table_for(q)
            for idx in range(table.phi):
                total = character_values(table, idx).sum()
                if idx == 0:
                    assert total == pytest.approx(ring.phi)
                else:
                    assert abs(total) <= 1e-9 * q

    def test_multiplicativity(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            q = int(rng.integers(2, 400))
            ring, table = table_for(q)
            idx = int(rng.integers(0, table.phi))
            x = int(ring.units[rng.integers(0, ring.phi)])
            y = int(ring.units[rng.integers(0, ring.phi)])
            lhs = eval_character(table, idx, x * y % q)
            rhs = eval_character(table, idx, x) * eval_character(table, idx, y)
            assert abs(lhs - rhs) <= 1e-12

    def test_values_vector_matches_scalar(self):
        _, table = table_for(40)
        for idx in (0, 1, table.phi - 1):
            vec = character_values(table, idx)
            for x in range(40):
                assert vec[x] == pytest.approx(eval_character(table, idx, x))

    def test_values_within_four_ulps_of_mpmath(self):
        # five axes; every value is e(k/12), k the character's exact phase
        # over the lcm of the orders, so an exact 0, 1 or i stays exact
        ring = build_ring(840)
        assert ring.shape == (2, 2, 2, 4, 6)
        with mpmath.workdps(30):
            exact = [mpmath.expjpi(mpmath.mpf(k) / 6) for k in range(12)]
        table = np.array([[float(z.real), float(z.imag)] for z in exact])
        digits = np.unravel_index(ring.log_index[ring.units], ring.shape)
        for chi in range(ring.phi):
            a = np.unravel_index(chi, ring.shape)
            k = sum(int(aj) * t * (12 // n) for aj, t, n in zip(a, digits, ring.shape)) % 12
            values = character_values(ring, chi)
            assert not values[~ring.unit_mask].any()
            got = values[ring.units]
            for part, want in ((got.real, table[k, 0]), (got.imag, table[k, 1])):
                assert np.all(np.abs(part - want) <= 4 * np.spacing(np.abs(want))), chi


class TestFourthMoment:
    def test_example_h2(self):
        _, table = table_for(5)
        assert fourth_moment(table, IntervalSet(0, 2)) == pytest.approx(24, abs=1e-6)

    def test_single_point_interval(self):
        _, table = table_for(5)
        assert fourth_moment(table, IntervalSet(0, 1)) == pytest.approx(4, abs=1e-9)
        _, table2 = table_for(2)
        assert fourth_moment(table2, IntervalSet(0, 1)) == pytest.approx(1, abs=1e-12)

    def test_sums_match_direct_evaluation(self):
        ring, table = table_for(24)
        interval = IntervalSet(3, 10)
        sums = interval_character_sums(table, interval)
        for idx in range(table.phi):
            direct = sum(eval_character(table, idx, int(z)) for z in interval.members())
            assert sums[idx] == pytest.approx(direct, abs=1e-9)
        rng = np.random.default_rng(9)
        for q in SUM_MODULI:
            _, table = table_for(q)
            intervals = [random_interval(rng, q) for _ in range(3)]
            per_residue = np.array(
                [np.bincount(np.mod(iv.members(), q), minlength=q) for iv in intervals]
            ).T
            direct = [character_values(table, c) @ per_residue for c in range(table.phi)]
            for interval, column in zip(intervals, np.array(direct).T):
                sums = interval_character_sums(table, interval)
                assert sums.shape == (table.phi,)
                assert np.max(np.abs(sums - column)) <= 1e-12 * interval.length


class TestIntervalCharacterSums:
    def test_interval_past_int64_reads_the_reduced_start(self):
        # the members 2^63 - 7 .. 2^63 + 42 leave int64; their residues do not
        table = build_ring(101)
        for start in (2**63 - 8, 2**64 + 3):
            far, near = IntervalSet(start, 50), IntervalSet(start % 101, 50)
            assert fourth_moment(table, far) == fourth_moment(table, near)
            assert abs(fourth_moment(table, far) - 5858100) <= 1e-6
            assert np.array_equal(interval_character_sums(table, far),
                                  interval_character_sums(table, near))

    def test_conjugate_character_gives_conjugate_sum(self):
        rng = np.random.default_rng(10)
        for q in SUM_MODULI:
            _, table = table_for(q)
            digits = np.unravel_index(np.arange(table.phi), table.shape)
            conj = np.ravel_multi_index([-d % n for d, n in zip(digits, table.shape)], table.shape)
            interval = random_interval(rng, q)
            sums = interval_character_sums(table, interval)
            assert np.max(np.abs(sums[conj] - np.conj(sums))) <= 1e-12 * interval.length

    def test_twiddles_read_off_the_turn_tables(self, monkeypatch):
        # e(k/n)/(2i) is the outer product of ring._turn_tables' coarse and
        # fine entries, so no np.exp runs; cyclic, 2-power and five-axis
        # packed lattices, checked at a sample of characters
        def refused(*args, **kwargs):
            raise AssertionError("np.exp called")

        monkeypatch.setattr(np, "exp", refused)
        rng = np.random.default_rng(40)
        for q in (20011, 2**10, 840):
            _, table = table_for(q)
            interval = random_interval(rng, q)
            counts = np.bincount(np.mod(interval.members(), q), minlength=q)
            chis = rng.choice(table.phi, min(table.phi, 64), replace=False)
            direct = np.array([character_values(table, int(c)) @ counts for c in chis])
            sums = interval_character_sums(table, interval)[chis]
            assert np.max(np.abs(sums - direct)) <= 1e-12 * interval.length

    def test_transform_runs_on_half_the_group(self, monkeypatch):
        # the real counts are packed two to a point: one transform of phi/2
        shapes, ifftn = [], np.fft.ifftn

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return ifftn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifftn", recorded)
        _, table = table_for(20011)
        interval_character_sums(table, IntervalSet(5, 300))
        assert shapes == [(10005,)]


class TestMomentIdentity:
    def test_example_q5(self):
        _, table = table_for(5)
        moment, twin = moment_identity_check(table, IntervalSet(0, 2))
        assert moment == pytest.approx(24, abs=1e-6)
        assert twin == 24

    def test_full_interval_against_enumeration(self):
        # brute-force the quadruple count over the whole unit group mod 7
        ring, table = table_for(7)
        moment, twin = moment_identity_check(table, IntervalSet(0, 7))
        units = [int(u) for u in ring.units]
        count = sum(
            1
            for x1, x2, x3, x4 in itertools.product(units, repeat=4)
            if (x1 * x2 - x3 * x4) % 7 == 0
        )
        assert twin == ring.phi * count
        assert moment == pytest.approx(twin, rel=1e-6)

    def test_unit_singleton(self):
        ring, table = table_for(9)
        moment, twin = moment_identity_check(table, IntervalSet(0, 1))
        assert moment == pytest.approx(ring.phi, rel=1e-9)
        assert twin == ring.phi

    def test_random_inputs_agree(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            q = int(rng.integers(2, 300))
            _, table = table_for(q)
            interval = IntervalSet(int(rng.integers(-q, q)), int(rng.integers(1, q + 1)))
            moment, twin = moment_identity_check(table, interval)
            if twin == 0:
                assert moment <= 1e-6
            else:
                assert moment == pytest.approx(twin, rel=1e-6)

    def test_diagonal_energy_reads_its_sums_once(self, monkeypatch):
        calls, sums = [], kforms.characters.interval_character_sums
        monkeypatch.setattr(
            kforms.characters, "interval_character_sums",
            lambda table, interval: calls.append(interval) or sums(table, interval),
        )
        ring, table = table_for(1009)
        energy_character_identity(ring, table, IntervalSet(3, 40), IntervalSet(3, 40))
        assert calls == [IntervalSet(3, 40)]

    @pytest.mark.parametrize("q", [97, 360, 1009, 5460])  # 5460: five lattice axes
    def test_fourth_moment_is_the_diagonal_energy(self, q):
        ring, table = table_for(q)
        interval = IntervalSet(2, q // 3)
        energy = energy_character_identity(ring, table, interval, interval)[0]
        assert fourth_moment(table, interval) == pytest.approx(ring.phi * energy, rel=1e-9)
