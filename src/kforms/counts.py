"""Exact counting of multiplicative quantities: multiplicative energy of two
intervals, counts of congruent / equal sums of reciprocals, and the dyadic
average of the modular counts.

All counting paths use integer arithmetic end to end; DFT identities appear
only as floating-point cross-checks.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import CharacterTable, _product_energy, interval_character_sums
from .reports import BoundReport, make_report
from .ring import IntervalSet, ResidueRing, build_ring, cyclic_dft

# Cap on r * K^r states for the exact rational tally.
DEFAULT_RATIONAL_BUDGET = 40_000_000


@dataclass(frozen=True)
class CountReport:
    """An exact count next to its reference expression (constants set to 1)."""

    value: int
    bound_value: float | None
    ratio: float | None


def _count_report(value: int, bound_value: float | None) -> CountReport:
    ratio = value / bound_value if bound_value else None
    return CountReport(value=value, bound_value=bound_value, ratio=ratio)


def _unit_members(ring: ResidueRing, interval: IntervalSet) -> np.ndarray:
    residues = np.mod(interval.members(), ring.q)
    return residues[ring.unit_mask[residues]]


def multiplicative_energy(
    ring: ResidueRing, a_interval: IntervalSet, b_interval: IntervalSet
) -> CountReport:
    """#{(a1,a2,b1,b2): a1*b1 = a2*b2 mod q, all factors units}.

    Tallies the products a*b mod q over unit pairs and sums squared
    multiplicities; reference is A^2 B^2 / q + A B.
    """
    value = _product_energy(
        _unit_members(ring, a_interval), _unit_members(ring, b_interval), ring.q
    )
    la, lb = a_interval.length, b_interval.length
    bound = la * la * lb * lb / ring.q + la * lb
    return _count_report(value, bound)


def energy_character_identity(
    ring: ResidueRing,
    table: CharacterTable,
    a_interval: IntervalSet,
    b_interval: IntervalSet,
) -> tuple[float, float, float]:
    """Energy through character orthogonality.

    Returns (energy, principal term, remainder): the energy as
    (1/phi) sum_chi |sum_A chi|^2 |sum_B chi|^2, the principal-character
    contribution A_u^2 B_u^2 / phi, and their difference.  The first
    component matches multiplicative_energy; the identity
    component1 = component2 + component3 is exact by construction.
    """
    sums_a = interval_character_sums(table, a_interval)
    sums_b = interval_character_sums(table, b_interval)
    energy = float(np.sum(np.abs(sums_a) ** 2 * np.abs(sums_b) ** 2)) / ring.phi
    a_units = round(sums_a[0].real)
    b_units = round(sums_b[0].real)
    principal = (a_units * a_units) * (b_units * b_units) / ring.phi
    return energy, principal, energy - principal


def _inverse_indicator(ring: ResidueRing, K: int) -> np.ndarray:
    # v[s] = #{x <= K unit with inv(x) = s}; 0/1-valued since K <= q.
    xs = np.arange(1, K + 1, dtype=np.int64)
    xs = xs[ring.unit_mask[xs % ring.q]]
    v = np.zeros(ring.q, dtype=np.int64)
    v[ring.inv_table[xs % ring.q]] = 1
    return v


def _cyclic_convolve_exact(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    full = np.convolve(a, b)  # int64, exact at the scales enforced by K <= q
    out = full[:q].copy()
    out[: full.size - q] += full[q:]
    return out


def _j_bound(ring: ResidueRing, r: int, K: int) -> float | None:
    if r == 1:
        return float(K)
    if r == 2:
        return K**3.5 / ring.q**0.5 + float(K) ** 2
    return None


def reciprocal_count_mod(ring: ResidueRing, r: int, K: int) -> CountReport:
    """Number of 2r-tuples of units in [1, K] whose first r inverses and last
    r inverses have congruent sums mod q.

    Computed by r-fold exact cyclic self-convolution of the inverse
    multiplicity vector, then summing squares.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not 1 <= K <= ring.q:
        raise ValueError(f"K out of range: need 1 <= K <= q = {ring.q}, got {K}")
    v = _inverse_indicator(ring, K)
    w = v
    for _ in range(r - 1):
        w = _cyclic_convolve_exact(w, v, ring.q)
    value = sum(int(c) * int(c) for c in w if c)
    return _count_report(value, _j_bound(ring, r, K))


def reciprocal_count_naive(ring: ResidueRing, r: int, K: int) -> int:
    """O(K^r) tally oracle for reciprocal_count_mod."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not 1 <= K <= ring.q:
        raise ValueError(f"K out of range: need 1 <= K <= q = {ring.q}, got {K}")
    inverses = [
        int(ring.inv_table[x]) for x in range(1, K + 1) if ring.unit_mask[x % ring.q]
    ]
    tally = Counter()
    for combo in itertools.product(inverses, repeat=r):
        tally[sum(combo) % ring.q] += 1
    return sum(c * c for c in tally.values())


def reciprocal_moment_identity(ring: ResidueRing, r: int, K: int) -> tuple[float, int]:
    """Orthogonality identity for the reciprocal count.

    Returns ((1/q) sum_t |sum_{x<=K unit} e_q(t*inv(x))|^(2r), exact count);
    the two agree up to floating-point error.
    """
    v = _inverse_indicator(ring, K)
    transform = cyclic_dft(ring, v)
    identity = float(np.sum(np.abs(transform) ** (2 * r))) / ring.q
    return identity, reciprocal_count_mod(ring, r, K).value


def reciprocal_count_rational(r: int, K: int) -> CountReport:
    """Number of 2r-tuples in [1, K] whose reciprocal sums agree exactly over
    the rationals.  Tallies canonical lowest-term fractions for all K^r
    left-side sums; reference is K^r.  Refused when r*K^r exceeds
    DEFAULT_RATIONAL_BUDGET.
    """
    if r < 1 or K < 1:
        raise ValueError(f"need r >= 1 and K >= 1, got r={r}, K={K}")
    if r * K**r > DEFAULT_RATIONAL_BUDGET:
        raise ValueError(
            f"budget exceeded: r*K^r = {r * K ** r} > {DEFAULT_RATIONAL_BUDGET}"
        )
    reciprocals = [Fraction(1, x) for x in range(1, K + 1)]
    tally = Counter()
    for combo in itertools.product(reciprocals, repeat=r):
        tally[sum(combo)] += 1
    value = sum(c * c for c in tally.values())
    return _count_report(value, float(K) ** r)


def average_reciprocal_sweep(Q: int, r: int, K: int) -> BoundReport:
    """Exact dyadic average (1/Q) sum_{Q <= q <= 2Q} J_r(q; K) against the
    reference K^(2r)/Q + K^r."""
    if not 1 <= K <= Q:
        raise ValueError(f"need 1 <= K <= Q, got K={K}, Q={Q}")
    t0 = time.perf_counter()
    total = 0
    for q in range(Q, 2 * Q + 1):
        total += reciprocal_count_mod(build_ring(q), r, K).value
    reference = float(K) ** (2 * r) / Q + float(K) ** r
    return make_report(
        params={"Q": Q, "r": r, "K": K, "sum_total": total},
        measured=total / Q,
        reference=reference,
        t0=t0,
    )
