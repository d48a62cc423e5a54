"""Single and double Kloosterman sums: brute-force evaluation, DFT-backed
tables and fast reductions, and the Weil reference magnitude.

Conventions: the single sum runs over one variable,
K_q(m, n) = sum_{x unit} e_q(m*x + n*inv(x)); the double sum adds a second
variable through the bilinear term l*x*y.

One O(phi)-per-l gather, _unit_gather, sum_{x unit} eta_x F(l*x), serves the
double sum (eta = e_q(m*inv(x)), F the single-sum table for n) and the
trilinear window's oracle (eta = mu(inv x), F = _unit_dft of nu(inv y)):
K_q(l, m, n) is the window W_l at the one-point intervals M = {m},
N = {n}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ring import ResidueRing, check_work, cyclic_dft


@dataclass(frozen=True)
class KloostermanTable:
    """All single sums K_q(a, n) for fixed n, indexed by a."""

    q: int
    n: int
    values: np.ndarray


def single_sum(ring: ResidueRing, m: int, n: int) -> complex:
    """K_q(m, n) by direct summation over the unit group."""
    check_work(11 * ring.q, "11*q ring and single-sum words")  # 82 B a residue at primes
    q, x = ring.q, ring.units
    exponents = ((m % q) * x + (n % q) * ring.inv_table[x]) % q
    return complex(ring.eq_pows[exponents].sum())


def _unit_dft(ring: ResidueRing, kappa) -> np.ndarray:
    """F(t) = sum_{y unit} kappa_y e_q(t*y), the DFT of the vector that holds
    kappa (aligned with ring.units) on the units.  Read at l*x over the units,
    sum_x eta_x F(l*x) = sum_{x,y units} eta_x kappa_y e_q(l*x*y).  Its
    callers price it, before they read the ring's tables, at 30 words a
    residue with the ring and those tables: ksum2 peaks at 234 B a residue
    at primes near 10^6 (numpy's Bluestein scratch), 114-118 B at smooth q."""
    f = np.zeros(ring.q, dtype=np.complex128)
    f[ring.units] = kappa
    return cyclic_dft(ring, f)


def _unit_gather(ring: ResidueRing, eta, f: np.ndarray, ls) -> np.ndarray:
    """sum_{x unit} eta_x f(l*x mod q) for each l in ls (eta aligned with
    ring.units), O(phi) per l."""
    q, x = ring.q, ring.units
    return np.array([np.sum(eta * f[(int(l) % q) * x % q]) for l in ls], dtype=np.complex128)


def single_table(ring: ResidueRing, n: int) -> KloostermanTable:
    """All K_q(a, n) at once: the DFT of x -> 1_unit(x) e_q(n*inv(x)),
    priced as _unit_dft says."""
    check_work(30 * ring.q, "30*q ring and transform words")
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
    phases = ring.eq_pows[(m % ring.q) * ring.inv_table[ring.units] % ring.q]
    return complex(_unit_gather(ring, phases, table.values, [l])[0])


def weil_reference(ring: ResidueRing, m: int, n: int) -> float:
    """Reference magnitude tau(q) * gcd(m, n, q)^(1/2) * q^(1/2) for |K_q(m, n)|."""
    g = math.gcd(math.gcd(abs(m), abs(n)), ring.q)
    return ring.tau * math.sqrt(g) * math.sqrt(ring.q)
