"""Multiplicative characters mod q.

The characters are read off the ring's unit-group index, ring.log_index: a
character is an exponent tuple over the cyclic factor orders (ring.shape),
flattened to a single mixed-radix index (C order); index 0 is the principal
character.  Character values vanish off units.  The sums of every character
over an interval come from one complex transform over half the lattice (the
real counts packed two to a point).
moment_identity_check and energy_character_identity give the fourth moment
and the multiplicative energy through these sums, the orthogonality twins of
the exact counts of counts._product_energy.  The fourth moment is the energy
on the diagonal A = B = I: _moment_count, phi(q) times that energy, is the
one Lemma 2.1 count (the sweep's cells and moment_identity_check read it),
and energy_character_identity takes the sums once when A = B.
"""

from __future__ import annotations

import math

import numpy as np

from .counts import CountReport, _count_report, _product_energy
from .ring import (IntervalSet, ResidueRing, _negated, _reduce, _rough, _to_lattice, _turn_tables,
                   _turns, check_work)


def build_characters(ring: ResidueRing) -> ResidueRing:
    """All phi(q) characters mod q: the ring itself, which holds their index."""
    return ring


def _character_at(ring: ResidueRing, chi_index: int, residues) -> np.ndarray:
    """Values of the chi_index-th character at residues in [0, q) (an index
    into ring.log_index); 0 off units."""
    if not 0 <= chi_index < ring.phi:
        raise IndexError(f"character index {chi_index} out of range [0, {ring.phi})")
    # one factor e(a*t/n) per axis of order n, read off _turns at the exact
    # exponent a*t mod n (a*t < n^2 < 2^63)
    flat, shape = ring.log_index[residues], ring.shape
    digits = np.unravel_index(np.maximum(flat, 0), shape)
    out = np.ones(flat.shape, dtype=np.complex128)
    for n, a, t in zip(shape, np.unravel_index(chi_index, shape), digits):
        out *= _turns(_reduce(int(a) * t, n), n)
    out[flat < 0] = 0
    return out


def eval_character(ring: ResidueRing, chi_index: int, x: int) -> complex:
    """Value of the chi_index-th character at x; 0 when gcd(x, q) > 1."""
    return complex(_character_at(ring, chi_index, np.array([int(x) % ring.q]))[0])


def character_values(ring: ResidueRing, chi_index: int) -> np.ndarray:
    """Vector of character values on all residues 0..q-1."""
    return _character_at(ring, chi_index, slice(None))


def interval_character_sums(ring: ResidueRing, interval: IntervalSet) -> np.ndarray:
    """sum_{z in interval} chi(z) for every character, indexed by character.

    The interval counts map to the exponent-tuple lattice, where the sums for
    all characters at once are one multidimensional DFT S(k) = sum_j c(j)
    e(j.k) over the group.  The counts are real, so the longest even axis
    (length n) is packed in half, z = c[even] + i*c[odd], and one complex
    transform Z of phi/2 points gives the transforms of both halves,
    E = (Z + conj Z(-k))/2 and O = (Z - conj Z(-k))/(2i), and from them
    S = E +- e(k/n)*O along that axis, e(k/n) the outer product of
    ring._turn_tables(n)'s coarse and fine tables.  Only the trivial group
    (q <= 2) has no even axis; its one sum is the count.  The transform is
    priced, with the ring, before the interval is read: 14 words a residue
    where an axis of the packed lattice is a rough length (ring._rough's
    test; numpy's Bluestein scratch sets char-moment's peak at 98 B a
    residue at 10^6+3), else the ring's own 7 words, priced at
    _to_lattice's first table read (36 B at 2^20).  The counts are
    dropped once packed, so the transform runs beside the ring and its
    packed input alone.
    """
    even = [k for k, n in enumerate(ring.shape) if n % 2 == 0]
    if not even:
        return _to_lattice(ring, interval).reshape(-1).astype(np.complex128)
    axis = max(even, key=lambda k: ring.shape[k])
    m = ring.shape[axis] // 2
    if any(map(_rough, ring.shape[:axis] + (m,) + ring.shape[axis + 1 :])):
        check_work(14 * ring.q, "14*q ring and character-sum words")
    c = np.moveaxis(_to_lattice(ring, interval), axis, -1)  # the packed axis last, in every view
    z = np.empty(c.shape[:-1] + (m,), dtype=np.complex128)
    z.real, z.imag = c[..., 0::2], c[..., 1::2]
    del c  # the counts, packed into z, are not held through the transform
    z = np.fft.ifftn(z, norm="forward")
    zr = _negated(z)
    np.conjugate(zr, out=zr)  # conj Z(-k)
    odd = z - zr  # 2i*O
    z += zr
    z *= 0.5  # E
    # e(k/n)/(2i) at k = k1*2^b + k0 < m = n/2: e(k1*2^b/n) * e(k0/n)/(2i),
    # an outer product of the turn tables' first ceil(m/2^b) coarse entries
    # and their fine ones, ten times cheaper than m exponentials
    b, fine, coarse = _turn_tables(2 * m)
    odd *= (coarse[: -(-m >> b), None] * (fine * -0.5j)).reshape(-1)[:m]
    sums = np.empty(ring.shape, dtype=np.complex128)
    out = np.moveaxis(sums, axis, -1)
    np.add(z, odd, out=out[..., :m])
    np.subtract(z, odd, out=out[..., m:])
    return sums.reshape(-1)


def fourth_moment(ring: ResidueRing, interval: IntervalSet) -> float:
    """sum over all characters of |sum_{z in interval} chi(z)|^4."""
    sums = interval_character_sums(ring, interval)
    power = sums.real**2 + sums.imag**2  # |S|^2, without a square root
    return float(np.sum(power * power))


def fourth_moment_reference(q: int, phi: int, H: int) -> float:
    """phi (H^2 (1 + ln H) + H^4/q), phi = phi(q), from q and phi alone: the
    divisor-type bound of Ayyad, Cochrane and Zheng (J. Number Theory 59,
    1996) on the fourth moment mod q at length H."""
    return phi * (H * H * (1 + math.log(H)) + H**4 / q)


def _moment_count(ring: ResidueRing, interval: IntervalSet) -> CountReport:
    """sum_chi |sum_{x in I} chi(x)|^4 read off its orthogonality twin
    phi(q) * #{x1*x2 = x3*x4 mod q: x_i units of I}, an exact count
    (fourth_moment computes the same from the character sums), against
    fourth_moment_reference.  A tallied energy reads no table of the ring."""
    energy, phi = _product_energy(ring, interval, interval)[0], ring.phi
    return _count_report(phi * energy, fourth_moment_reference(ring.q, phi, interval.length))


def moment_identity_check(ring: ResidueRing, interval: IntervalSet) -> tuple[float, float]:
    """Fourth moment next to its orthogonality twin.

    Returns (fourth_moment, phi(q) * #{(x1,x2,x3,x4) in (interval units)^4
    with x1*x2 = x3*x4 mod q}); the two agree up to floating-point error.
    """
    moment = fourth_moment(ring, interval)
    return moment, float(_moment_count(ring, interval).value)


def energy_character_identity(
    ring: ResidueRing,
    table: ResidueRing,
    a_interval: IntervalSet,
    b_interval: IntervalSet,
) -> tuple[float, float, float]:
    """Energy through character orthogonality.

    Returns (energy, principal term, remainder): the energy as
    (1/phi) sum_chi |sum_A chi|^2 |sum_B chi|^2, the principal-character
    contribution A_u^2 B_u^2 / phi, and their difference.  The first
    component matches multiplicative_energy; the identity
    component1 = component2 + component3 is exact by construction.  table
    is build_characters(ring), the ring itself, and is not read.  With
    A = B the sums are taken once, under interval_character_sums' price;
    with A != B the sums of A are held through B's transform, so the call
    is priced first at 16*q words with the ring (122 B a residue measured
    at 10^6+3, where one transform's 14 words hold 98 B).
    """
    if b_interval != a_interval:
        check_work(16 * ring.q, "16*q ring and two character-sum words")
    sums_a = interval_character_sums(ring, a_interval)
    sums_b = sums_a if b_interval == a_interval else interval_character_sums(ring, b_interval)
    energy = float(np.sum(np.abs(sums_a) ** 2 * np.abs(sums_b) ** 2)) / ring.phi
    a_units = round(sums_a[0].real)
    b_units = round(sums_b[0].real)
    principal = (a_units * a_units) * (b_units * b_units) / ring.phi
    return energy, principal, energy - principal
