"""Single and double Kloosterman sums: brute-force evaluation, DFT-backed
tables and fast reductions, and the Weil reference magnitude.

Conventions: the single sum runs over one variable,
K_q(m, n) = sum_{x unit} e_q(m*x + n*inv(x)); the double sum adds a second
variable through the bilinear term l*x*y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ring import ResidueRing, cyclic_dft


@dataclass(frozen=True)
class KloostermanTable:
    """All single sums K_q(a, n) for fixed n, indexed by a."""

    q: int
    n: int
    values: np.ndarray


def single_sum(ring: ResidueRing, m: int, n: int) -> complex:
    """K_q(m, n) by direct summation over the unit group."""
    x = ring.units
    xb = ring.inv_table[x]
    exponents = ((m % ring.q) * x + (n % ring.q) * xb) % ring.q
    return complex(ring.eq_pows[exponents].sum())


def _unit_dft(ring: ResidueRing, kappa) -> np.ndarray:
    """F(t) = sum_{y unit} kappa_y e_q(t*y), the DFT of the vector that holds
    kappa (aligned with ring.units) on the units.  Read at l*x over the units,
    sum_x eta_x F(l*x) = sum_{x,y units} eta_x kappa_y e_q(l*x*y)."""
    f = np.zeros(ring.q, dtype=np.complex128)
    f[ring.units] = kappa
    return cyclic_dft(ring, f)


def single_table(ring: ResidueRing, n: int) -> KloostermanTable:
    """All K_q(a, n) at once: the DFT of x -> 1_unit(x) e_q(n*inv(x))."""
    kappa = ring.eq_pows[(n % ring.q) * ring.inv_table[ring.units] % ring.q]
    return KloostermanTable(q=ring.q, n=n, values=_unit_dft(ring, kappa))


def double_naive(ring: ResidueRing, l: int, m: int, n: int) -> complex:
    """Double sum K_q(l, m, n) by direct O(phi^2) summation (oracle path)."""
    q = ring.q
    x = ring.units
    xb = ring.inv_table[x]
    bilinear = (l % q) * (np.outer(x, x) % q) % q
    exponents = (bilinear + ((m % q) * xb % q)[:, None] + ((n % q) * xb % q)[None, :]) % q
    return complex(ring.eq_pows[exponents].sum())


def double_fast(
    ring: ResidueRing, l: int, m: int, n: int, table: KloostermanTable | None = None
) -> complex:
    """Double sum via K_q(l, m, n) = sum_{x unit} e_q(m*inv(x)) K_q(l*x, n).

    O(phi) per call once the single-sum table for n is built; pass ``table``
    to amortize it across calls.
    """
    if table is None or table.n % ring.q != n % ring.q or table.q != ring.q:
        table = single_table(ring, n)
    q = ring.q
    x = ring.units
    phases = ring.eq_pows[(m % q) * ring.inv_table[x] % q]
    return complex(np.sum(phases * table.values[(l % q) * x % q]))


def weil_reference(ring: ResidueRing, m: int, n: int) -> float:
    """Reference magnitude tau(q) * gcd(m, n, q)^(1/2) * q^(1/2) for |K_q(m, n)|."""
    g = math.gcd(math.gcd(abs(m), abs(n)), ring.q)
    return ring.tau * math.sqrt(g) * math.sqrt(ring.q)
