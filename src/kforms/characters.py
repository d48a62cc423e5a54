"""Multiplicative characters mod q, built from the CRT decomposition of the
unit group.

Each odd prime-power factor p^e contributes one cyclic factor generated by a
primitive root; the 2-adic part contributes <-1> (order 2) for 4 | q and
additionally <5> (order 2^(e-2)) for 8 | q.  A character is an exponent
tuple over the cyclic factor orders, flattened to a single mixed-radix index
(C order); index 0 is the principal character.  Character values vanish off
units.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .ring import IntervalSet, ResidueRing, factorize


@dataclass(frozen=True)
class CyclicFactor:
    modulus: int  # the prime power this factor reads residues through
    generator: int
    order: int
    dlog: np.ndarray  # discrete log base `generator` per residue; -1 off units


@dataclass(frozen=True)
class CharacterTable:
    q: int
    factors: tuple[CyclicFactor, ...]
    orders: tuple[int, ...]
    char_count: int
    exponent: int  # lcm of the factor orders (1 for the trivial group)
    log_index: np.ndarray  # flat exponent-tuple index per residue mod q; -1 off units


def _primitive_root(p: int, e: int) -> int:
    # Find a generator mod p, then lift: g works mod p^e unless
    # g^(p-1) == 1 mod p^2, in which case g+p does.
    prime_factors = [r for r, _ in factorize(p - 1)]
    g = 2
    while any(pow(g, (p - 1) // r, p) == 1 for r in prime_factors):
        g += 1
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _powers(g: int, order: int, modulus: int) -> np.ndarray:
    """[g^0, g^1, ..., g^(order-1)] mod modulus: about sqrt(order) Python
    steps for the small and large strides, then one outer product."""
    step = math.isqrt(order - 1) + 1  # ceil(sqrt(order))
    small = np.empty(step, dtype=np.int64)
    acc = 1
    for k in range(step):
        small[k] = acc
        acc = acc * g % modulus
    large = np.empty(-(-order // step), dtype=np.int64)
    big = 1
    for k in range(large.size):
        large[k] = big
        big = big * acc % modulus  # acc = g^step here
    return (large[:, None] * small[None, :] % modulus).reshape(-1)[:order]


def _dlog_table(modulus: int, generator: int, order: int) -> np.ndarray:
    table = np.full(modulus, -1, dtype=np.int64)
    table[_powers(generator, order, modulus)] = np.arange(order)
    return table


# The latest ring's table; it goes with its ring or with the next request.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def build_characters(ring: ResidueRing) -> CharacterTable:
    """All phi(q) characters mod q.  Memoised for the latest ring (rings hash
    by identity), so every caller on one ring shares one table."""
    table = _TABLES.get(ring)
    if table is None:
        _TABLES.clear()
        table = _TABLES[ring] = _character_table(ring)
    return table


def _character_table(ring: ResidueRing) -> CharacterTable:
    factors: list[CyclicFactor] = []
    for p, e in factorize(ring.q):
        pe = p**e
        if p == 2:
            if e == 1:
                continue  # trivial unit group
            if e == 2:
                factors.append(CyclicFactor(4, 3, 2, _dlog_table(4, 3, 2)))
                continue
            # units mod 2^e (e >= 3) are (-1)^s * 5^t, uniquely
            half = 2 ** (e - 2)
            fives = _powers(5, half, pe)
            dlog_sign = np.full(pe, -1, dtype=np.int64)
            dlog_sign[fives] = 0
            dlog_sign[pe - fives] = 1
            dlog_five = np.full(pe, -1, dtype=np.int64)
            dlog_five[fives] = dlog_five[pe - fives] = np.arange(half)
            factors.append(CyclicFactor(pe, pe - 1, 2, dlog_sign))
            factors.append(CyclicFactor(pe, 5, half, dlog_five))
        else:
            g = _primitive_root(p, e)
            order = pe // p * (p - 1)
            factors.append(CyclicFactor(pe, g, order, _dlog_table(pe, g, order)))

    orders = tuple(f.order for f in factors)
    char_count = math.prod(orders)
    if char_count != ring.phi:
        raise AssertionError(f"character count {char_count} != phi {ring.phi}")

    log_index = np.full(ring.q, -1, dtype=np.int64)
    if factors:
        digits = [f.dlog[ring.units % f.modulus] for f in factors]
        log_index[ring.units] = np.ravel_multi_index(digits, orders)
    else:
        log_index[ring.units] = 0
    exponent = math.lcm(*orders) if orders else 1
    return CharacterTable(
        q=ring.q,
        factors=tuple(factors),
        orders=orders,
        char_count=char_count,
        exponent=exponent,
        log_index=log_index,
    )


def _character_at(table: CharacterTable, chi_index: int, residues: np.ndarray) -> np.ndarray:
    """Values of the chi_index-th character at residues in [0, q); 0 off units."""
    if not 0 <= chi_index < table.char_count:
        raise IndexError(
            f"character index {chi_index} out of range [0, {table.char_count})"
        )
    # The phase numerator over the common denominator `exponent`, in exact
    # integer arithmetic (each term is below order * exponent <= phi^2 < 2^63);
    # one complex exponential at the end.
    num = np.zeros(residues.shape, dtype=np.int64)
    for factor, a in zip(table.factors, np.unravel_index(chi_index, table.orders)):
        t = np.maximum(factor.dlog[residues % factor.modulus], 0)
        num = (num + int(a) * t * (table.exponent // factor.order)) % table.exponent
    out = np.exp((2j * np.pi / table.exponent) * num)
    out[table.log_index[residues] < 0] = 0
    return out


def eval_character(table: CharacterTable, chi_index: int, x: int) -> complex:
    """Value of the chi_index-th character at x; 0 when gcd(x, q) > 1."""
    return complex(_character_at(table, chi_index, np.array([int(x) % table.q]))[0])


def character_values(table: CharacterTable, chi_index: int) -> np.ndarray:
    """Vector of character values on all residues 0..q-1."""
    return _character_at(table, chi_index, np.arange(table.q, dtype=np.int64))


def _lattice_counts(table: CharacterTable, interval: IntervalSet) -> np.ndarray:
    """How many of the interval's members fall on each point of the
    exponent-tuple lattice (units only), shaped as the lattice; the trivial
    group is one point."""
    flat = table.log_index[np.mod(interval.members(), table.q)]
    counts = np.bincount(flat[flat >= 0], minlength=table.char_count)
    return counts.reshape(table.orders or (1,))


def interval_character_sums(table: CharacterTable, interval: IntervalSet) -> np.ndarray:
    """sum_{z in interval} chi(z) for every character, indexed by character.

    The interval counts map to the exponent-tuple lattice, where the sums for
    all characters at once are a multidimensional DFT over the group.
    """
    return (np.fft.ifftn(_lattice_counts(table, interval)) * table.char_count).reshape(-1)


def fourth_moment(table: CharacterTable, interval: IntervalSet) -> float:
    """sum over all characters of |sum_{z in interval} chi(z)|^4."""
    sums = interval_character_sums(table, interval)
    return float(np.sum(np.abs(sums) ** 4))


def moment_identity_check(
    table: CharacterTable, interval: IntervalSet
) -> tuple[float, float]:
    """Fourth moment next to its orthogonality twin.

    Returns (fourth_moment, phi(q) * #{(x1,x2,x3,x4) in (interval units)^4
    with x1*x2 = x3*x4 mod q}); the two agree up to floating-point error.
    """
    from .counts import _product_energy  # counts imports this module

    quadruples, _ = _product_energy(table, interval, interval)
    return fourth_moment(table, interval), float(table.char_count * quadruples)
