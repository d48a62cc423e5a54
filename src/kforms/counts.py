"""Exact counts behind the moment lemmas: the multiplicative energy of two
intervals, the counts J_r of 2r-tuples whose reciprocal sums are congruent
mod q or equal over Q, and the dyadic average of the modular counts.

Each modular count is the sum of the squared entries of an exact cyclic
convolution of non-negative integer count vectors: over Z_q for sums of
inverses (J_r: the indicator of the inverses convolved with itself r-fold,
one kernel call that raises its one spectrum to the r-th power; the J_r of
several K are one call whose rows are their indicators), and over
the unit-group lattice for products of units (two operands).  The
package's one lattice kernel, ring._lattice_convolution, computes them, by
a pairwise tally on sparse supports and otherwise by a real FFT of k
operands (the longest rough axis zero-padded to a 5-smooth length >= k*n)
whose rounded result is accepted only under ring._certified: every entry
at most 2^52, a residual max|c - rint c| below 1/4 and an exact total,
which may itself pass 2^52 (J_3 of 10^6 units does).  A result, or a row
of one, that fails it is recounted by the tally.  The
product energy is priced by the same rule, over the pairs of the
intervals' unit members, before anything of size q exists: where the
tally is cheaper it counts the products mod q
in q int32 bins or by sorting, reading no table of the ring, so a short
interval is counted at any q up to MAX_MODULUS.  In the bins, a unit
times the consecutive members of an interval is an arithmetic
progression mod q: a row that wraps past q only a few times is added by
strided slices and holds no keys; the other rows key their products.
The dyadic average counts every modulus Q <= q <= 2Q of a cell at once: the
inverses of 1..K mod each q come from one table of the inverses mod x <= K,
and the rows of a block of moduli, each the indicator of its inverses, share
one real FFT whose rounded result ring._certified accepts (the same
certificate as the kernel's) before each row is folded mod its own q; a
block that fails it, or whose per-modulus tally prices lower, is counted
modulus by modulus by the kernel's tally, ring._lattice_tally.  So each
block takes one route, and the average never calls the kernel itself.
The rational count keys lowest-terms fractions in int64.  Sums of squares
are exact: in int64 only where no overflow is possible, in Python ints
otherwise.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .kloosterman import _unit_dft
from .reports import BoundReport, _ratio, make_report
from .ring import (
    IntervalSet,
    ResidueRing,
    _PAIR_COST,
    _FFT_BLOCK,
    _TALLY_CHUNK,
    _certified,
    _fft_plan,
    _lattice_convolution,
    _lattice_tally,
    _reduce,
    _smooth_length,
    _to_lattice,
    check_work,
)


@dataclass(frozen=True)
class CountReport:
    """An exact count next to its reference expression (constants set to 1).

    ``residual`` is the FFT certificate's max|c - rint c| over the
    convolutions behind the count, or None when none ran through the FFT.
    """

    value: int
    bound_value: float | None
    ratio: float | None
    residual: float | None = None


def _count_report(
    value: int, bound_value: float | None, residual: float | None = None
) -> CountReport:
    return CountReport(value, bound_value, _ratio(value, bound_value), residual)


def _sum_of_squares(counts: np.ndarray) -> int:
    """sum c^2 for a non-negative integer array, exact: summed in int64 when
    size * max^2 < 2^63 rules out overflow, in Python ints otherwise."""
    counts = counts.reshape(-1)
    top = int(counts.max(initial=0))
    if counts.size * top * top < 2**63:
        return int(np.einsum("i,i->", counts, counts, dtype=np.int64))
    return sum(c * c for c in counts[counts > 0].tolist())


# A per-modulus tally call costs, besides its pairs, about as much as this many
# FFT points times their log2: 46-48 us against 2.4-3.1 ns a unit, measured
# at Q = 200 to 5000 (2-vCPU host, one BLAS thread).
_TALLY_CALL = 17_000
# A strided slice add of the q-bin tally costs, besides its elements, about as
# much as this many keyed adds: 1.6-1.9 us a slice, 1.5-4.5 ns an element
# and 8-10 ns a key, measured at q = 10^6+3 (2-vCPU host).
_SEGMENT_COST = 250


def _unit_count(interval: IntervalSet, q: int, primes: list[tuple[int, int]]) -> int:
    """How many of the interval's members are units mod q (primes is q's
    factorization): inclusion-exclusion over q's primes."""
    lo = interval.start
    hi = lo + interval.length
    terms = [(1, 1)]
    for p, _ in primes:
        terms += [(d * p, -sign) for d, sign in terms]
    return sum(sign * (hi // d - lo // d) for d, sign in terms)


def _unit_members(interval: IntervalSet, q: int, primes: list[tuple[int, int]]) -> np.ndarray:
    """The interval's unit members reduced mod q (primes is q's
    factorization), in order."""
    check_work(3 * interval.length, "3*length unit member words")  # 18 B a member
    residues = interval.residues(q)
    units = np.ones(residues.size, dtype=bool)
    for p, _ in primes:
        units &= _reduce(residues.copy(), p) != 0
    return residues[units]


def _product_counts(ra, rb, q: int, b_interval=None, primes=()) -> np.ndarray:
    """How many pairs (i, j) share each product ra[i]*rb[j] mod q: in q bins
    when q is at most _PAIR_COST bins a pair, else one count per distinct
    product, from the sorted keys.  In the bins, given b_interval (whose unit
    members rb are) and q's primes, the products of ra[i] with the
    consecutive members of b_interval form a progression mod q of step ra[i],
    walked down by q - ra[i] above q/2.  A row is added by strided slices, a
    new one each time its progression wraps past q, where _SEGMENT_COST a
    slice undercuts a keyed add per member; the non-unit members reach only
    non-unit bins, which are then zeroed.  The other rows add one per key,
    _TALLY_CHUNK keys a step.  With rb is ra the bins take each pair i < j
    twice and i = j once."""
    pairs = ra.size * rb.size
    if q > _PAIR_COST * pairs:
        check_work(3 * pairs, "3*pairs sort words")  # 23-26 B a pair
        keys = _reduce(np.multiply.outer(ra, rb).reshape(-1), q)
        return np.unique(keys, return_counts=True)[1]
    check_work(pairs, "product pairs")
    same, keyed, walk = rb is ra, np.arange(ra.size), ()
    if b_interval is not None:
        # the member each row walks from: with rb is ra the one after it, whose
        # index sums the gaps between members, each in [1, q] (q consecutive
        # integers hold the unit 1 mod q) and so read off their offsets mod q
        # from b_interval's first residue; else the first
        gaps = _reduce(np.diff(_reduce(ra - (b_interval.start + 1) % q, q), prepend=-1) - 1, q) + 1
        first = np.cumsum(gaps) if same else np.zeros_like(ra)
        lengths, steps = b_interval.length - first, np.where(2 * ra < q, ra, ra - q)
        rows = (np.abs(steps) * lengths // q + 1) * _SEGMENT_COST < lengths
        starts = _reduce(ra * _reduce((b_interval.start + 1) % q + first, q), q)
        walk, keyed = zip(*(x[rows].tolist() for x in (steps, starts, lengths))), keyed[~rows]
    # 4 B a bin and 8.1-8.2 B a keyed pair of one step, measured
    check_work(q // 2 + 2 * min(keyed.size * rb.size, _TALLY_CHUNK), "q/2 bin + 2*keyed pair words")
    counts = np.zeros(q, dtype=np.int32 if pairs < 2**31 else np.int64)  # no bin exceeds pairs
    for s, t, n in walk:
        while n > 0:
            segment = counts[t::s][:n]
            segment += 1 + same
            n, t = n - segment.size, (t + segment.size * s) % q
    for p, _ in primes:
        counts[::p] = 0
    if same:
        np.add.at(counts, _reduce(ra * ra, q), counts.dtype.type(1))  # a bin-typed 1 keeps add.at fast
    step = max(1, _TALLY_CHUNK // rb.size)  # rb is not empty: q <= 8*pairs
    for s in range(0, keyed.size, step):
        rows = keyed[s : s + step]
        upper = (ra[i] * rb[i + 1 :] for i in rows.tolist())
        keys = np.concatenate(list(upper)) if same else np.multiply.outer(ra[rows], rb).reshape(-1)
        np.add.at(counts, _reduce(keys, q), counts.dtype.type(1 + same))
    return counts


def _product_energy(
    ring: ResidueRing, a_interval: IntervalSet, b_interval: IntervalSet
) -> tuple[int, float | None]:
    """#{(a1, a2, b1, b2) units of the intervals: a1*b1 = a2*b2 mod q}, with
    the convolution's residual (None when tallied).  Priced by the lattice
    kernel's rule before any table of the ring is read: _PAIR_COST per pair
    of the intervals' unit members against the padded FFT of ring.shape,
    and, where the kernel will take the FFT, its 7*points words.  The
    tally counts the members' products mod q by _product_counts, in q
    bins (walking each row's progression over b_interval where that is
    cheaper, and each pair once when the intervals are equal) or by
    sorting, from q's primes alone; the FFT convolves the intervals' counts
    on the unit-group lattice, where a product of units adds exponent
    tuples."""
    q, primes, plan = ring.q, ring.primes, _fft_plan(ring.shape)  # plan[2]: its price, [7]: words
    units = [_unit_count(interval, q, primes) for interval in (a_interval, b_interval)]
    if math.prod(units) * _PAIR_COST <= plan[2]:
        ra = _unit_members(a_interval, q, primes)
        rb = ra if b_interval == a_interval else _unit_members(b_interval, q, primes)
        return _sum_of_squares(_product_counts(ra, rb, q, b_interval, primes)), None
    # the kernel's supports are the units each interval hits, min(units,
    # phi): where it will take the FFT, its price comes before the
    # ring's walk and the lattices
    if math.prod(min(n, ring.phi) for n in units) * _PAIR_COST > plan[2]:
        check_work(plan[7], "7*points FFT words")
    # each interval's residues and their int64 gather onto the lattice, one
    # interval at a time: 16.4-16.8 B a member measured
    check_work(3 * max(a_interval.length, b_interval.length), "3*length lattice member words")
    a = _to_lattice(ring, a_interval)
    b = a if b_interval == a_interval else _to_lattice(ring, b_interval)
    counts, residual = _lattice_convolution((a, b), ring.shape)
    return _sum_of_squares(counts), residual


def multiplicative_energy(
    ring: ResidueRing, a_interval: IntervalSet, b_interval: IntervalSet
) -> CountReport:
    """#{(a1,a2,b1,b2): a1*b1 = a2*b2 mod q, all factors units}.

    Sums the squared multiplicities of the products a*b mod q over unit
    pairs, by a residue tally or one exact convolution on the unit-group
    lattice, whichever _product_energy prices lower; reference is
    A^2 B^2 / q + A B.  A tallied energy reads no table of the ring.
    """
    value, residual = _product_energy(ring, a_interval, b_interval)
    la, lb = a_interval.length, b_interval.length
    return _count_report(value, la * la * lb * lb / ring.q + la * lb, residual)


def _j_bound(ring: ResidueRing, r: int, K: int) -> float | None:
    if r == 1:
        return float(K)
    if r == 2:
        return K**3.5 / ring.q**0.5 + float(K) ** 2
    return None


def _check_r_k(r: int, K: int, top: float) -> None:
    """1 <= K <= top, and 1 <= r <= 63: past 63, K^r > 2^63 for all K >= 2."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if r > 63:
        raise ValueError(f"dimension too large: r = {r} exceeds 63, where K^r > 2^63")
    if not 1 <= K <= top:
        raise ValueError(f"K out of range: need 1 <= K <= {top}, got {K}")


def _reciprocal_counts(ring: ResidueRing, r: int, ks) -> tuple[dict, float | None]:
    """{K: J_r(q; K)} over the distinct K of ks (each in [1, q]), with the FFT
    residual: one kernel call on r copies of the rows, one spectrum a row,
    row i the indicator of the inverses of the units in [1, K_i], largest K
    first: the units whose inverses are at most K_i, read off the ring's
    walk.  The kernel tallies its rows first, in order, so a tally over
    the work budget refuses the call before any FFT runs."""
    ks = sorted(set(ks), reverse=True)
    units, inverses = ring.units, ring.inverses
    rows = np.zeros((len(ks), ring.q), dtype=np.int64)
    for row, K in zip(rows, ks):
        row[units[inverses <= K]] = 1
    w, residual = _lattice_convolution([rows] * r, (ring.q,)) if r > 1 else (rows, None)
    return dict(zip(ks, map(_sum_of_squares, w))), residual


def reciprocal_count_mod(ring: ResidueRing, r: int, K: int) -> CountReport:
    """Number of 2r-tuples of units in [1, K] whose first r inverses and last
    r inverses have congruent sums mod q.

    Computed by r-fold exact cyclic self-convolution of the inverse
    indicator, then summing squares.
    """
    _check_r_k(r, K, ring.q)
    values, residual = _reciprocal_counts(ring, r, [K])
    return _count_report(values[K], _j_bound(ring, r, K), residual)


def reciprocal_count_naive(ring: ResidueRing, r: int, K: int) -> int:
    """O(K^r) tally oracle for reciprocal_count_mod."""
    _check_r_k(r, K, ring.q)
    tally = Counter()
    for combo in itertools.product(ring.inverses[ring.units <= K].tolist(), repeat=r):
        tally[sum(combo) % ring.q] += 1
    return sum(c * c for c in tally.values())


def reciprocal_moment_identity(
    ring: ResidueRing, r: int, K: int
) -> tuple[float, CountReport]:
    """Orthogonality identity for the reciprocal count.

    Returns ((1/q) sum_t |sum_{x<=K unit} e_q(t*inv(x))|^(2r), the exact
    count as reciprocal_count_mod reports it); the two agree up to
    floating-point error.  The inner sums are one kloosterman._unit_dft,
    which holds 1 at the units' inverses inv(x), x <= K, and prices its
    transform before it reads any table; r and K are checked before it,
    and J_r is counted after it.
    """
    _check_r_k(r, K, ring.q)
    identity = float(np.sum(np.abs(_unit_dft(ring, lambda xb: xb <= K)) ** (2 * r))) / ring.q
    return identity, reciprocal_count_mod(ring, r, K)


def reciprocal_count_rational(r: int, K: int) -> CountReport:
    """Number of 2r-tuples in [1, K] whose reciprocal sums agree exactly over
    the rationals.  Builds the K^r left-side sums as lowest-terms
    (numerator, denominator) pairs and counts equal pairs; reference is K^r.
    """
    _check_r_k(r, K, math.inf)
    check_work(8 * K**r, "8*K^r state words")  # 42-54 B per state
    # Every denominator divides a product of r values <= K, so it is at most
    # S = K^r <= 3.2e7 (8 words a state), and every sum is at most r <= 63: the
    # key num*(max den + 1) + den is at most r*S*(S + 1) + S < 6.2e16 < 2^63.
    xs = np.arange(1, K + 1, dtype=np.int64)
    num, den = np.ones(K, dtype=np.int64), xs
    for _ in range(r - 1):
        num = (np.multiply.outer(num, xs) + den[:, None]).reshape(-1)
        den = np.multiply.outer(den, xs).reshape(-1)
        g = np.gcd(num, den)
        num //= g
        den //= g
    _, counts = np.unique(num * (int(den.max()) + 1) + den, return_counts=True)
    return _count_report(_sum_of_squares(counts), float(K) ** r)


def _inverse_table(K: int) -> tuple[np.ndarray, np.ndarray]:
    """(inv, unit) with inv[x-1, rho] = rho^-1 mod x and unit[x-1, rho] =
    (gcd(x, rho) == 1) for 0 <= rho < x <= K, row x lifted by _unit_inverses
    from the rows below it."""
    table = np.zeros((K, K), dtype=np.int64), np.zeros((K, K), dtype=bool)
    table[1][0, 0] = True  # gcd(1, 0) = 1, and every inverse mod 1 is 0
    for x in range(2, K + 1):
        table[0][x - 1, 1:x], table[1][x - 1, 1:x] = _unit_inverses(x, table, x - 1)
    return table


def _unit_inverses(q, table, K: int) -> tuple[np.ndarray, np.ndarray]:
    """x^-1 mod q and the mask gcd(x, q) == 1 for x = 1..K, broadcast over q
    (an int or an int64 column), read off _inverse_table(>= K) by one step of
    the extended Euclidean algorithm (Knuth, TAOCP vol. 2, 4.5.2): for
    m = -(q mod x)^-1 mod x, x divides 1 + m*q, and y = (1 + m*q)/x has
    x*y = 1 mod q.  The inverse at a non-unit is meaningless."""
    xs = np.arange(1, K + 1, dtype=np.int64)
    rho = q % xs
    return (1 + (-table[0][xs - 1, rho] % xs) * q) // xs % q, table[1][xs - 1, rho]


def _reciprocal_block(qs: range, inverses: np.ndarray, units: np.ndarray, r: int) -> int:
    """sum of J_r(q; K) over the consecutive moduli qs, from the inverses mod
    q of 1..K and their unit mask, one row a modulus.  Row q is the indicator
    of its inverses; one rfft/irfft pair of length _smooth_length(r * max qs)
    takes every row's r-fold linear self-convolution, accepted under
    ring._certified against the rows' exact totals units^r.  Row q
    is then folded mod q, its shifts j*q read as r strided views of the
    rounded rows (row stride size + j), and its columns past q - 1 dropped.
    Where the FFT prices higher (r - 1 tally calls of _TALLY_CALL plus
    _PAIR_COST per pair of units, against size*log2(size) a modulus) or its
    certificate fails, each modulus's indicator is convolved r-fold by
    ring._lattice_tally instead.  A total units^r past int64 is refused."""
    lo, hi, counts = qs[0], qs[-1], np.count_nonzero(units, axis=1)
    if (top := int(counts.max()) ** r) >= 2**63:
        raise ValueError(f"dimension too large: convolution total {top} exceeds int64")
    size = _smooth_length(r * hi)
    modular = (r - 1) * (len(qs) * _TALLY_CALL + _PAIR_COST * int(counts @ counts))
    certified = None
    if modular > len(qs) * size * math.log2(size):
        keys = (np.arange(len(qs))[:, None] * hi + inverses)[units]
        spectrum = np.fft.rfft(np.bincount(keys, minlength=len(qs) * hi).reshape(-1, hi), size)
        power = math.prod([spectrum] * (r - 1), start=spectrum)  # np.power: ~5x slower
        certified = _certified(np.fft.irfft(power, size), (counts**r).tolist(), axis=1)
    if certified is None:
        rows = ((q, np.bincount(x[u], minlength=q)) for q, x, u in zip(qs, inverses, units))
        return sum(_sum_of_squares(_lattice_tally([v] * r, (q,))) for q, v in rows)
    # row i, modulus lo + i, reads flat[i*size + s + j*(lo + i)]: s + j*q < r*q <= size
    flat, step = certified[0].reshape(-1), certified[0].itemsize
    views = (as_strided(flat[j * lo :], (len(qs), hi), ((size + j) * step, step)) for j in range(r))
    return _sum_of_squares(np.tril(sum(views), lo - 1))


def average_reciprocal_sweep(Q: int, r: int, K: int) -> BoundReport:
    """Exact dyadic average (1/Q) sum_{Q <= q <= 2Q} J_r(q; K) against the
    reference K^(2r)/Q + K^r.  The inverses of 1..K mod every q are read off
    one table of the inverses mod x <= K, and the moduli are counted by
    _reciprocal_block in blocks of about _FFT_BLOCK padded points.  Refused
    up front when 5 words per (q, x) and 2rQ elements per modulus, about
    one per padded FFT point, exceed the work budget."""
    if not 1 <= K <= Q:
        raise ValueError(f"need 1 <= K <= Q, got K={K}, Q={Q}")
    _check_r_k(r, K, Q)
    # 3.1-4.1 words per (q, x) measured, the K^2 inverse table included
    check_work((Q + 1) * (5 * K + 2 * r * Q), "Lemma 2.5 cell")
    t0 = time.perf_counter()
    qs, step = range(Q, 2 * Q + 1), max(1, _FFT_BLOCK // (2 * r * Q))
    inverses, units = _unit_inverses(np.array(qs)[:, None], _inverse_table(K), K)
    blocks = (slice(s, s + step) for s in range(0, Q + 1, step))
    total = sum(_reciprocal_block(qs[b], inverses[b], units[b], r) for b in blocks)
    reference = float(K) ** (2 * r) / Q + float(K) ** r
    return make_report(
        params={"Q": Q, "r": r, "K": K, "sum_total": total},
        measured=total / Q,
        reference=reference,
        t0=t0,
    )
