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

from .ring import ResidueRing, _reduce, _rough, check_work, cyclic_dft, eq_eval


@dataclass(frozen=True)
class KloostermanTable:
    """All single sums K_q(a, n) for fixed n, indexed by a."""

    q: int
    n: int
    values: np.ndarray


def single_sum(ring: ResidueRing, m: int, n: int) -> complex:
    """K_q(m, n) by direct summation over the unit group, its phases read
    through eq_eval, which builds no q-long table.  The exponent's two
    products are reduced before they are added, so that it stays below 2q
    for every q <= MAX_MODULUS, and eq_eval reduces the sum."""
    check_work(11 * ring.q, "11*q ring and single-sum words")  # 74 B a residue at primes
    q, x = ring.q, ring.units
    exponent = _reduce((m % q) * x, q) + _reduce((n % q) * ring.inv_table[x], q)
    return complex(eq_eval(ring, exponent).sum())


def _unit_dft(ring: ResidueRing, phase) -> np.ndarray:
    """F(t) = sum_{y unit} kappa_y e_q(t*y) with kappa_y = phase(inv y), the
    DFT of the vector that holds phase at the units' inverses on the units.
    Read at l*x over the units, sum_x eta_x F(l*x) = sum_{x,y units} eta_x
    kappa_y e_q(l*x*y).  The transform of single_table (ksum2, double_fast),
    of the trilinear window's oracle and of jr-mod's orthogonality twin,
    and the one function that prices it: its words, with the ring and its
    tables, before it reads any table.  Where q is a rough length
    (ring._rough's test) 27 words: numpy's FFT takes it by Bluestein,
    whose scratch sets ksum2's peak at 202 B a residue near 10^6 (10^6+3,
    1009*1013); 14 words at 7-smooth q, 100-104 B (10^6, 2^20, 5^9).
    kappa is freed before the DFT runs."""
    words = 27 if _rough(ring.q) else 14
    check_work(words * ring.q, f"{words}*q ring and transform words")
    f = np.zeros(ring.q, dtype=np.complex128)
    f[ring.units] = phase(ring.inv_table[ring.units])
    return cyclic_dft(ring, f)


def _unit_gather(ring: ResidueRing, eta, f: np.ndarray, ls) -> np.ndarray:
    """sum_{x unit} eta_x f(l*x mod q) for each l in ls (eta aligned with
    ring.units), O(phi) per l."""
    q, x = ring.q, ring.units
    return np.array([np.sum(eta * f[_reduce((int(l) % q) * x, q)]) for l in ls], dtype=np.complex128)


def single_table(ring: ResidueRing, n: int) -> KloostermanTable:
    """All K_q(a, n) at once: the DFT of x -> 1_unit(x) e_q(n*inv(x)), one
    _unit_dft, which prices it."""
    values = _unit_dft(ring, lambda xb: eq_eval(ring, (n % ring.q) * xb))
    return KloostermanTable(q=ring.q, n=n, values=values)


def double_naive(ring: ResidueRing, l: int, m: int, n: int) -> complex:
    """Double sum K_q(l, m, n) by direct O(phi^2) summation (oracle path),
    priced first at its 4*phi^2 words (32 B a pair)."""
    check_work(4 * ring.phi**2, "4*phi^2 double_naive words")
    q = ring.q
    x = ring.units
    xb = ring.inv_table[x]
    bilinear = _reduce((l % q) * _reduce(np.outer(x, x), q), q)
    exponents = bilinear + _reduce((m % q) * xb, q)[:, None] + _reduce((n % q) * xb, q)[None, :]
    return complex(eq_eval(ring, exponents).sum())


def double_fast(
    ring: ResidueRing, l: int, m: int, n: int, table: KloostermanTable | None = None
) -> complex:
    """Double sum via K_q(l, m, n) = sum_{x unit} e_q(m*inv(x)) K_q(l*x, n).

    O(phi) per call once the single-sum table for n is built; pass ``table``
    to amortize it across calls.
    """
    if table is None or table.n % ring.q != n % ring.q or table.q != ring.q:
        table = single_table(ring, n)
    phases = eq_eval(ring, (m % ring.q) * ring.inv_table[ring.units])
    return complex(_unit_gather(ring, phases, table.values, [l])[0])


def weil_reference(ring: ResidueRing, m: int, n: int) -> float:
    """Reference magnitude tau(q) * gcd(m, n, q)^(1/2) * q^(1/2) for |K_q(m, n)|."""
    g = math.gcd(math.gcd(abs(m), abs(n)), ring.q)
    return ring.tau * math.sqrt(g) * math.sqrt(ring.q)
