"""Residue-ring arithmetic for Z_q: the unit group, additive characters e_q,
centered representatives, interval phase sums and the forward cyclic DFT of
length q (numpy's FFT, with an O(q^2) reference kept for tests); also the
package's work budget and its one lattice convolution kernel,
_lattice_convolution, behind the trilinear unit window, the exact counts and
the proof trace's collision sums.  The kernel takes k >= 2 operands and
convolves them in one chain: one transform per distinct operand, one
product of the spectra and one inverse (or a tally, wherever that prices
lower).  An integer result is taken from the FFT only where _certified, the
one judge of its exactness, passes it entry by entry; else the tally
recounts it.  An operand may hold rows: the others are then transformed once,
and the rows in blocks of _FFT_BLOCK padded points, the one row-block size
of every batched FFT.  The kernel only convolves: each caller picks its own
route around it (the trilinear window, for one, its dot products).

build_ring splits the unit group once, by CRT, into cyclic factors (a
primitive root per odd p^e; <-1> and <5> for the 2-adic part), so a unit is
an exponent tuple, flattened to one mixed-radix index (C order).  That index,
ring.characters.log_index, is the ring's only discrete-log table: written
from the factors' generators lifted mod q, it gives the characters, the
lattice that _to_lattice maps residues onto (and a gather through it maps
back), and the inverses (negated tuples), which ring.inv_table reads off on
its first read.

Complex vectors are plain numpy arrays of length q indexed by residue.
Every int64 product of two residues stays below q^2 < 2^63.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np


# Residues below q are multiplied in int64 (the lifted generator powers and the
# phase sums here, the Kloosterman exponents, the trilinear gather), which
# needs q^2 < 2^63.
MAX_MODULUS = math.isqrt(2**63 - 1)  # 3_037_000_499

# The one size refusal, check_work: the call that does the work prices its
# peak in 8-byte words (per residue, pair, state or point, measured and
# rounded up) or the elements its loops touch, before it allocates.  2.5*10^8
# words are 1.9 GiB: on an 8 GB machine the largest admitted ksum2 --naive and
# proof-trace peak at 1.7-2.1 GiB RSS.  ring-info reads no q-long table past
# the ring and peaks 26 B a residue above the import at 10^6+3 and 10^7+19,
# so ~0.9 GiB RSS at its largest admitted q, 35,714,285 (scaled, not run).
# A trilinear instance runs its window FFT while it holds its ring and
# prices the two as one sum: its largest admitted modulus is 29,999,970
# (0.65 GiB), and its largest admitted prime 17,714,701 peaks at 1.4-1.5 GiB.
DEFAULT_WORK_BUDGET = 250_000_000

# The largest rounded entry _certified accepts: float64 spacing is at most 1
# up to 2^52.  Only the entries must fit there, not the total (Percival,
# Math. Comp. 72, 2003).
_FFT_ENTRY_LIMIT = 2**52
_RESIDUAL_LIMIT = 0.25
# One tallied pair costs about as much as this many FFT points times their
# log2: 5.6 to 7.5 measured at lengths 3*10^4 to 10^6, where the choice
# matters; below that either path takes well under a millisecond.
_PAIR_COST = 8
_TALLY_CHUNK = 1 << 22  # pairs per tally step
_FFT_BLOCK = 1 << 15  # padded points per block of rows of a batched FFT


def check_work(work: int, label: str) -> None:
    """Refuse, with a ValueError, work predicted to exceed DEFAULT_WORK_BUDGET."""
    if work > DEFAULT_WORK_BUDGET:
        raise ValueError(
            f"dimension too large: {label} = {work} exceeds the work budget "
            f"{DEFAULT_WORK_BUDGET}"
        )


# Every 5-smooth number up to 2^33, the first power of 2 above 2*MAX_MODULUS
# (an FFT axis is at most twice a unit group's order), ascending: each 3^b 5^c
# times every power of 2 that keeps it at most 2^33.
_SMOOTH = tuple(sorted(
    m << k
    for m in (3**b * 5**c for b in range(21) for c in range(15))
    for k in range(((1 << 33) // m).bit_length())
))


def _smooth_length(n: int) -> int:
    """Smallest 5-smooth integer >= n (1 <= n <= 2^33)."""
    return _SMOOTH[bisect.bisect_left(_SMOOTH, n)]


def _reduce(keys: np.ndarray, q: int) -> np.ndarray:
    """keys mod q for non-negative int64 keys (contiguous), in place, as
    keys - keys // q * q, 2^16 keys at a time so that the quotient stays in
    cache: 2.4-2.8 ms against numpy's % at 5.0 ms on 10^6 keys, 13-15
    against 21-23 ms on 2^22 (q = 10^6+3, AVX-512 host)."""
    flat = keys.reshape(-1)
    for part in (flat[s : s + (1 << 16)] for s in range(0, flat.size, 1 << 16)):
        part -= part // q * q
    return keys


def _lattice_tally(arrays, shape: tuple[int, ...]) -> np.ndarray:
    """The cyclic convolution of the arrays from their support pairs, two at
    a time, left to right: each pair's product added at its index sum mod
    shape, _TALLY_CHUNK pairs a step, refused when a step's pairs exceed
    the work budget."""
    out, *rest = arrays
    for b in rest:
        ia, ib = np.nonzero(out != 0), np.nonzero(b != 0)  # 2-3x numpy's nonzero of numbers
        wa, wb = out[ia], b[ib]
        check_work(wa.size * wb.size, "convolution pairs")
        out = np.zeros(shape, dtype=np.result_type(wa, wb))
        step = max(1, _TALLY_CHUNK // max(1, wb.size))
        for s in range(0, wa.size, step):
            rows = slice(s, s + step)
            coords = tuple(_reduce(x[rows, None] + y, n) for x, y, n in zip(ia, ib, shape))
            keys = np.ravel_multi_index(coords, shape).reshape(-1)
            np.add.at(out.reshape(-1), keys, (wa[rows, None] * wb).reshape(-1))
    return out


@functools.lru_cache(maxsize=256)
def _fft_plan(shape: tuple[int, ...], k: int = 2):
    """A cyclic convolution's FFT over shape, of k operands: the size per
    axis, the axis padded (None if none is), the price points*log2(points)
    (the unit of _PAIR_COST), the axes of length 2, which _butterflies
    transforms, the rest, which numpy transforms, longest last (at least
    one is left to numpy, which needs one), and their sizes.  The longest
    axis whose length n has a prime factor above 7 (slow in numpy's FFT)
    is zero-padded to a 5-smooth length >= k*n."""
    size = list(shape)
    rough = [j for j, n in enumerate(shape) if n > 1 and factorize(n)[-1][0] > 7]
    axis = max(rough, key=lambda j: shape[j], default=None)
    if axis is not None:
        size[axis] = _smooth_length(k * shape[axis])
    points = math.prod(size)
    two = tuple(j for j, n in enumerate(size) if n == 2)[: len(size) - 1]
    axes = tuple(sorted(set(range(len(size))) - set(two), key=lambda j: size[j]))
    return tuple(size), axis, points * math.log2(points + 1), two, axes, [size[j] for j in axes]


def _butterflies(x: np.ndarray, axes, scale: float = 1.0) -> np.ndarray:
    """The DFT of x along each of the given axes, each of length 2: the sum
    and the difference of its two halves, times scale (1/2 inverts it)."""
    for j in axes:
        a, b = np.split(x, 2, axis=j)
        x = np.concatenate(((a + b) * scale, (a - b) * scale), axis=j)
    return x


def _certified(c: np.ndarray, totals, axis=None) -> tuple[np.ndarray, float] | None:
    """The FFT certificate of an integer result c (overwritten), the one
    judge of an integer FFT's exactness: its rounding to int64 and residual
    max|c - rint c|, if the residual is below _RESIDUAL_LIMIT, every rounded
    entry is at most _FFT_ENTRY_LIMIT (read on the floats, before the int64
    cast, so that a wrapped cast cannot pass) and the int64 sums along axis
    equal the exact totals (an int, or a list of them, below 2^63); else
    None."""
    rounded = np.rint(c)
    residual = float(np.abs(np.subtract(c, rounded, out=c), out=c).max())
    if not (residual < _RESIDUAL_LIMIT and rounded.max() <= _FFT_ENTRY_LIMIT):
        return None
    counts = rounded.astype(np.int64)
    return (counts, residual) if counts.sum(axis=axis).tolist() == totals else None


def _lattice_convolution(operands, shape: tuple[int, ...]) -> tuple[np.ndarray, float | None]:
    """Cyclic convolution c = f_1 * f_2 * ... * f_k of k >= 2 operands over
    the lattice Z_{shape[0]} x Z_{shape[1]} x ..., c(x) the sum over
    x_1 + ... + x_k = x of f_1(x_1) ... f_k(x_k), with the FFT certificate's
    residual max|c - rint c|, the largest over the certified rows (None
    when none is: the tally ran, or the input is not integer).  An operand
    given twice (the same object) is one operand read twice: it is
    transformed once.  An operand may hold rows, shaped (b,) + shape: c
    then has that leading axis too, its row i the convolution of the
    row-holding operands' rows i with the other operands, which are
    transformed once a call.  The whole of c is returned: a caller that
    reads a few entries, or reads them another way (the trilinear window's
    dot products), chooses that itself.

    Each distinct operand's supports and sums are taken once a call, for
    all its rows.  A row is tallied, two operands at a time, left to right,
    when _PAIR_COST per support pair (at step j, the product of the first j
    supports) undercuts the FFT's points*log2(points).  The other rows take
    the FFT (rfftn on real input, fftn on complex), max(1, _FFT_BLOCK //
    points) rows a block: each distinct operand's block is transformed
    once, the spectra are multiplied in place, and one inverse is taken.
    The axes of length 2 are transformed by _butterflies (numpy's passes
    along them cost about as much as along a long axis), the rest by numpy,
    longest last: rfftn halves that one.
    The longest axis whose length n has a prime factor above 7 (slow in
    numpy's FFT) is zero-padded to a 5-smooth length >= k*n, and the linear
    convolution along it folded back onto Z_n, its k blocks of n summed by
    one reduction into a compact result.  Integer input (non-negative
    counts) gives an exact int64 result: a row's FFT is accepted only if
    _certified passes it (a residual below 1/4, every entry at most 2^52, an
    exact total, which may pass 2^52); else the tally recounts that row.  A
    row's route is picked by price alone.
    """
    distinct = {id(x): np.asarray(x) for x in operands}
    integer = all(x.dtype.kind in "biu" for x in distinct.values())
    batched = any(x.ndim > len(shape) for x in distinct.values())
    for i, x in distinct.items():  # every operand as rows, one row if it holds none
        distinct[i] = (x.astype(np.int64, copy=False) if integer else x).reshape((-1,) + shape)
    arrays = [distinct[id(x)] for x in operands]
    b = max(map(len, arrays))  # c's rows; row j takes row j % len of each operand
    rows = [[x[j % len(x)] for x in arrays] for j in range(b)]

    def each_row(f, x):  # one numpy call for all of x's rows, a bare one for a lone row
        return f(x.reshape(len(x), -1), axis=1).tolist() if len(x) > 1 else [int(f(x))]

    # each distinct operand's supports and sums, taken once, indexed per row
    nonzero = {id(x): each_row(np.count_nonzero, x) for x in distinct.values()}
    sums = {id(x): each_row(np.ndarray.sum, x) for x in distinct.values() if integer}
    totals = [math.prod(sums[id(x)][j % len(x)] for x in arrays) if integer else 0 for j in range(b)]
    if max(totals) >= 2**63:
        raise ValueError(f"dimension too large: convolution total {max(totals)} exceeds int64")
    size, axis, fft_cost, two, axes, s = _fft_plan(shape, len(arrays))
    # a row is tallied where the tally prices lower (at step m, the product
    # of m supports); _certified alone judges the FFT's rows
    supports = [[nonzero[id(x)][j % len(x)] for x in arrays] for j in range(b)]
    pairs = [sum(math.prod(n[:m]) for m in range(2, len(n) + 1)) for n in supports]
    tallied = [p * _PAIR_COST <= fft_cost for p in pairs]
    # the tallied rows first, in order
    c = [_lattice_tally(row, shape) if t else None for row, t in zip(rows, tallied)]
    fft_rows, residuals = [j for j, t in enumerate(tallied) if not t], []
    if fft_rows:
        check_work(7 * math.prod(size), "7*points FFT words")  # 32-56 B per padded point
        real = all(x.dtype.kind != "c" for x in distinct.values())
        fft, ifft = (np.fft.rfftn, np.fft.irfftn) if real else (np.fft.fftn, np.fft.ifftn)

        def forward(x, lead=1):  # along the lattice axes, behind `lead` axes of rows
            return fft(_butterflies(x, [j + lead for j in two]), s=s, axes=[j + lead for j in axes])

        once = {i: forward(x[0], 0) for i, x in distinct.items() if len(x) == 1}  # no rows
        step = max(1, _FFT_BLOCK // math.prod(size))
        for block in (fft_rows[j : j + step] for j in range(0, len(fft_rows), step)):
            spectra = {i: once[i] if i in once else forward(x[block]) for i, x in distinct.items()}
            if block[-1] == fft_rows[-1]:
                once.clear()  # the last block holds no spectrum through its inverse
            factors = [spectra[id(x)] for x in operands]
            if batched:  # a block's rows first, so that each product is taken in place
                factors.sort(key=lambda f: f.ndim, reverse=True)
            del spectra
            out = factors[0] * factors[1]
            for j in range(2, len(factors)):
                out *= factors[j]
            del factors
            lead = out.ndim - len(size)
            out = ifft(out, s=s, axes=[j + lead for j in axes])  # the product dropped here
            out = _butterflies(out, [j + lead for j in two], 0.5)
            if axis is not None:  # the k blocks of n along the padded axis, summed
                a, blocks = axis + lead, (len(arrays), shape[axis])
                out = out[(slice(None),) * a + (slice(0, math.prod(blocks)),)]
                out = out.reshape(out.shape[:a] + blocks + out.shape[a + 1 :]).sum(axis=a)
            for j, row in zip(block, out.reshape((-1,) + shape)):
                certified = _certified(row, totals[j]) if integer else (row, None)
                c[j], residual = certified or (_lattice_tally(rows[j], shape), None)
                residuals += [] if residual is None else [residual]
    return (np.stack(c) if batched else c[0]), max(residuals, default=None)


class NotAUnitError(ValueError):
    """Inverse requested for a residue that is not coprime to the modulus."""


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division as (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 3, 5 and 7, which no composite below
    3,215,031,751 > MAX_MODULUS passes (Pomerance, Selfridge and Wagstaff,
    Math. Comp. 35, 1980); trial division outside [8, 3,215,031,751)."""
    if not 8 <= n < 3_215_031_751:
        return n >= 2 and factorize(n) == [(n, 1)]
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    powers = (pow(a, (n - 1) >> s, n) for a in (2, 3, 5, 7))
    return all(x == 1 or n - 1 in (pow(x, 1 << i, n) for i in range(s)) for x in powers)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


@dataclass(frozen=True)
class IntervalSet:
    """A block of consecutive integers {start+1, ..., start+length}."""

    start: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"interval length must be >= 1, got {self.length}")

    def members(self) -> np.ndarray:
        """The members as int64; a ValueError where one is outside int64."""
        check_work(self.length, "interval length")
        if not -(2**63) <= self.start + 1 <= self.start + self.length < 2**63:
            raise ValueError(f"interval {self} has members outside int64; reduce it mod q")
        return np.arange(self.start + 1, self.start + self.length + 1, dtype=np.int64)

    def residues(self, q: int) -> np.ndarray:
        """The members reduced mod q, in order, for any start: the start is
        reduced first, so every int64 entry stays below length + q.  Built
        in place, 8 bytes a member at peak."""
        check_work(self.length, "interval length")
        first = (self.start + 1) % q
        residues = np.arange(first, first + self.length, dtype=np.int64)
        return np.remainder(residues, q, out=residues)

    def __contains__(self, value: int) -> bool:
        return self.start + 1 <= value <= self.start + self.length


@dataclass(frozen=True)
class CyclicFactor:
    """One cyclic factor of the units mod q: `generator` has `order` mod the
    prime power `modulus`.  Its discrete logs are one digit of
    CharacterTable.log_index; no factor keeps a table of its own."""

    modulus: int
    generator: int
    order: int


@dataclass(frozen=True)
class CharacterTable:
    """The unit group mod q as a product of cyclic factors.  Its exponent
    tuples, flattened in C order, index both the lattice points and the
    characters."""

    q: int
    factors: tuple[CyclicFactor, ...]
    orders: tuple[int, ...]
    char_count: int
    exponent: int  # lcm of the factor orders (1 for the trivial group)
    log_index: np.ndarray  # flat exponent-tuple index per residue mod q; -1 off units

    @property
    def shape(self) -> tuple[int, ...]:
        """The exponent-tuple lattice; the trivial group is one point."""
        return self.orders or (1,)


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


def _power_blocks(g: int, order: int, modulus: int):
    """Yield (k, [g^k, g^(k+1), ...] mod modulus) blocks that cover the
    exponents k < order in turn: about 2*sqrt(order) Python steps for the
    small and large strides, then per block an outer product of about
    max(order^(3/4), 2^16) entries, reduced in place, so no length-order
    array is held."""
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
    rows = max(math.isqrt(step), (1 << 16) // step) + 1  # >= 2^16 entries: few calls
    for i in range(0, large.size, rows):
        block = np.multiply.outer(large[i : i + rows], small).reshape(-1)[: order - i * step]
        block %= modulus
        yield i * step, block


def _cyclic_orders(p: int, e: int) -> list[int]:
    """The orders of the cyclic factors of the units mod p^e: p^(e-1)*(p-1)
    for odd p; 2 and 2^(e-2) for 2^e (none for 2, the second only when
    e >= 3)."""
    if p != 2:
        return [p ** (e - 1) * (p - 1)]
    return [2, 2 ** (e - 2)][: min(e - 1, 2)]


def _cyclic_factors(p: int, e: int) -> list[CyclicFactor]:
    """The unit group mod p^e as cyclic factors, generators and orders only
    (the logs are written once, into log_index): one generated by a
    primitive root for odd p; <-1> for 4 | p^e and also <5> for 8 | p^e
    (units mod 2^e are (-1)^s * 5^t, uniquely)."""
    pe = p**e
    generators = [_primitive_root(p, e)] if p != 2 else [pe - 1, 5]
    return [CyclicFactor(pe, g, n) for g, n in zip(generators, _cyclic_orders(p, e))]


def _lattice_shape(primes: list[tuple[int, int]]) -> tuple[int, ...]:
    """The unit group's exponent-tuple lattice (CharacterTable.shape) from the
    factorization of q alone."""
    return tuple(n for p, e in primes for n in _cyclic_orders(p, e)) or (1,)


def _unit_group(q: int, primes: list[tuple[int, int]], units: np.ndarray) -> CharacterTable:
    """The CRT decomposition of the units mod q and its one index, log_index,
    which the characters, the lattice and the inverses all read.  Each
    factor's generator is lifted to the unit that is the generator mod its
    prime power and 1 mod the rest of q, so the unit at an exponent tuple is
    the product of the lifted powers: an outer product over the leading
    factors times the last factor's powers, one _power_blocks block and about
    2^16 units at a time, each unit written its flat index (C order).
    Nothing but log_index outlives the call."""
    factors = [f for p, e in primes for f in _cyclic_factors(p, e)]
    orders = tuple(f.order for f in factors)
    char_count = math.prod(orders)
    if char_count != units.size:
        raise AssertionError(f"character count {char_count} != phi {units.size}")
    lifted = [
        (1 + (f.generator - 1) * (q // f.modulus) * pow(q // f.modulus, -1, f.modulus)) % q
        for f in factors
    ]
    *lead_generators, g = lifted or [1]
    *lead_orders, n = orders or (1,)
    lead = np.ones(1, dtype=np.int64)  # the units at the leading exponent tuples
    for h, m in zip(lead_generators, lead_orders):
        powers = np.concatenate([block for _, block in _power_blocks(h, m, q)])
        lead = np.multiply.outer(lead, powers).reshape(-1)
        lead %= q
    rows = np.arange(0, char_count, n)[:, None]  # each leading tuple's first flat index
    log_index = np.full(q, -1, dtype=np.int64)
    for k, powers in _power_blocks(g, n, q):
        if lead.size == 1:  # one factor: its powers are the units, written directly
            log_index[powers] = np.arange(k, k + powers.size)
            continue
        step = max(1, (1 << 16) // powers.size)  # leading units a block: ~2^16 units held
        for s in range(0, lead.size, step):
            block = np.multiply.outer(lead[s : s + step], powers)
            block %= q
            log_index[block] = rows[s : s + step] + np.arange(k, k + powers.size)
    log_index.flags.writeable = False
    return CharacterTable(q, tuple(factors), orders, char_count, math.lcm(*orders), log_index)


def _to_lattice(table: CharacterTable, residues: np.ndarray, values=None) -> np.ndarray:
    """Lattice array, shaped table.shape, holding at each exponent tuple how
    many of the residues (in [0, q)) land on it, or with values (aligned with
    the residues) the sum of their values; non-units are dropped."""
    flat = table.log_index[residues]
    flat += 1  # non-units land in bin 0, cut below
    size = table.char_count + 1
    if values is None:
        out = np.bincount(flat, minlength=size)
    else:
        out = np.bincount(flat, values.real, size) + 1j * np.bincount(flat, values.imag, size)
    return out[1:].reshape(table.shape)


def _negated(lattice: np.ndarray) -> np.ndarray:
    """The lattice array read at the negated exponent tuples: out[k] = lattice[-k]."""
    return np.roll(np.flip(lattice), 1, axis=tuple(range(lattice.ndim)))


@dataclass(frozen=True, eq=False)
class ResidueRing:
    """Precomputed context for arithmetic mod q.

    Treated as immutable after construction; safe to share across threads.
    Compares and hashes by identity.  ``characters`` is the unit group's
    decomposition, the one every character, lattice and inverse reads;
    ``inv_table`` and ``eq_pows`` are derived tables, each built on its
    first read.  The ring also holds, in its ``__dict__`` beside them, the
    latest trilinear unit window computed on it, so everything derived from
    q is freed with its ring.
    """

    q: int
    unit_mask: np.ndarray
    phi: int
    tau: int
    units: np.ndarray
    characters: CharacterTable

    @functools.cached_property
    def inv_table(self) -> np.ndarray:
        """inv_table[x] = x^-1 mod q at units, 0 elsewhere, built on first
        read: the inverse of a unit is the unit with the negated exponent
        tuple."""
        table = self.characters
        unit_at = np.empty_like(self.units)  # the unit at each exponent tuple
        unit_at[table.log_index[self.units]] = self.units
        inv = np.zeros(self.q, dtype=np.int64)
        inv[unit_at] = _negated(unit_at.reshape(table.shape)).reshape(-1)
        return inv

    @functools.cached_property
    def eq_pows(self) -> np.ndarray:
        """eq_pows[k] = exp(2*pi*i*k/q), built on first read."""
        return np.exp((2j * np.pi / self.q) * np.arange(self.q, dtype=np.int64))


def _check_modulus(q: int) -> None:
    """Refuse, with a ValueError, q < 2 or q > MAX_MODULUS."""
    if q < 2:
        raise ValueError(f"modulus too small: need q >= 2, got {q}")
    if q > MAX_MODULUS:
        raise ValueError(
            f"modulus too large: need q <= {MAX_MODULUS} for int64 products, got {q}"
        )


def _ring_primes(q: int) -> list[tuple[int, int]]:
    """The factorization of q, once _check_modulus passes and the ring's 7*q
    words fit the work budget: build_ring's checks, made before any
    allocation and before q is factorized."""
    _check_modulus(q)
    check_work(7 * q, "7*q ring words")  # 23-50 B per residue, inv_table included
    return factorize(q)


def build_ring(q: int) -> ResidueRing:
    """Build the full arithmetic context for Z_q, once _ring_primes admits q."""
    primes = _ring_primes(q)
    unit_mask = np.ones(q, dtype=bool)
    for p, _ in primes:
        unit_mask[::p] = False
    units = np.flatnonzero(unit_mask).astype(np.int64, copy=False)
    return ResidueRing(
        q=q,
        unit_mask=unit_mask,
        phi=units.size,
        tau=math.prod(e + 1 for _, e in primes),
        units=units,
        characters=_unit_group(q, primes, units),
    )


def mod_inverse(ring: ResidueRing, x: int) -> int:
    """Multiplicative inverse of x mod q; raises NotAUnitError off units."""
    r = int(x) % ring.q
    if not ring.unit_mask[r]:
        raise NotAUnitError(
            f"{x} is not a unit modulo {ring.q} (gcd = {math.gcd(r, ring.q)})"
        )
    return pow(r, -1, ring.q)


def eq_eval(ring: ResidueRing, z) -> complex | np.ndarray:
    """exp(2*pi*i*z/q); the argument is reduced mod q before evaluation, so
    the values equal ring.eq_pows' entries without building that table."""
    if isinstance(z, (int, np.integer)):
        return complex(np.exp((2j * np.pi / ring.q) * (int(z) % ring.q)))
    return np.exp((2j * np.pi / ring.q) * np.mod(np.asarray(z, dtype=np.int64), ring.q))


def centered_rep(ring: ResidueRing, u) -> int | np.ndarray:
    """Representative of u mod q in the window (-q/2, q/2]."""
    if isinstance(u, (int, np.integer)):
        r = int(u) % ring.q
        return r if 2 * r <= ring.q else r - ring.q
    r = np.mod(np.asarray(u, dtype=np.int64), ring.q)
    return np.where(2 * r <= ring.q, r, r - ring.q)


def centered_dist(ring: ResidueRing, u) -> int | np.ndarray:
    """Distance from u to the nearest multiple of q; lies in [0, q/2]."""
    return abs(centered_rep(ring, u))


def _dft_naive(f: np.ndarray, q: int, eq_pows: np.ndarray) -> np.ndarray:
    """O(q^2) forward DFT straight from the definition; the tests' oracle
    for cyclic_dft."""
    out = np.empty(q, dtype=np.complex128)
    idx = np.arange(q, dtype=np.int64)
    for t in range(q):
        out[t] = f @ eq_pows[(t * idx) % q]
    return out


def cyclic_dft(ring: ResidueRing, f) -> np.ndarray:
    """Length-q forward DFT with convention F(t) = sum_z f(z) e_q(t*z), of
    each row of f (its last axis)."""
    f = np.asarray(f, dtype=np.complex128)
    if f.shape[-1:] != (ring.q,):
        raise ValueError(f"length mismatch: expected {ring.q} entries, got {f.shape}")
    # numpy's ifft carries the e^(+2*pi*i*t*z/n) kernel; norm="forward" drops
    # its 1/n factor
    return np.fft.ifft(f, norm="forward")


def _half_turns(a: int, t: np.ndarray, q: int) -> np.ndarray:
    """a*t mod 2q for 0 <= a < 2q and residues 0 <= t < q.  With a = a0 + a1*q,
    a*t = a0*t + q*(a1*t mod 2) mod 2q, and a0*t < q^2 < 2^63."""
    a1, a0 = divmod(a, q)
    out = a0 * t % (2 * q)
    return (out + q * (t & 1)) % (2 * q) if a1 else out


def _sin_half_turns(h: np.ndarray, q: int) -> np.ndarray:
    """sin(pi*h/q) for integers 0 <= h < 2q, overwriting h; folded into [0, q/2]
    by exact int64 steps (sign carried), as np.sin near pi or 2*pi loses ~q*eps."""
    upper = h >= q
    np.subtract(h, q, out=h, where=upper)
    np.subtract(q, h, out=h, where=h > q // 2)
    out = np.multiply(h, np.pi / q)
    return np.negative(np.sin(out, out=out), out=out, where=upper)


def interval_phase_sum(ring: ResidueRing, interval: IntervalSet, x):
    """Geometric sum over the interval: sum_{m in interval} e_q(m*x), for an
    int x (a complex result) or an integer array x (an array).

    Evaluated in closed form (Dirichlet-kernel shape); the value is the
    interval length where x = 0 mod q, and |value| <= min(length, q/<x>_q).
    The interval and a Python-int x are reduced mod 2q and q before any int64
    product and both sines are read at folded arguments, so any start,
    length and x give the value to a few ulps relative.  Reads only ring.q.
    """
    q = ring.q
    scalar = isinstance(x, (int, np.integer))
    t = np.array([int(x) % q]) if scalar else np.mod(np.asarray(x, dtype=np.int64), q)
    length = int(interval.length)
    # sum_{k=1..length} e_q((v+k)*x)
    #   = e^(i*pi*(2v+length+1)*x/q) * sin(pi*length*x/q) / sin(pi*x/q)
    # evaluated in place, to hold the temporaries near one result's size
    num = _sin_half_turns(_half_turns(length % (2 * q), t, q), q)
    num /= _sin_half_turns(np.maximum(t, 1), q)  # the t = 0 entries are set below
    ph = _half_turns((2 * int(interval.start) + length + 1) % (2 * q), t, q)
    out = np.empty(t.shape, dtype=np.complex128)
    np.multiply(ph, np.pi / q, out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    out *= num
    out[t == 0] = length
    return complex(out[0]) if scalar else out
