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
of every batched FFT.  A rough axis is zero-padded; from _FOUR_STEP padded
points on it is transformed by the four-step, as R rows of P2 columns
(P = R*P2, R a power of 2 next to sqrt(P), P2 5-smooth; _fft_plan picks
them), so that numpy's FFT runs along no axis longer than R or P2 and its
scratch stays a row long.  The kernel convolves cyclically, or, for the
trilinear window's odd channel, negacyclically along its one axis (x^n =
-1: one fold with alternating signs).  It only convolves: each caller
picks its own route around it (the trilinear window, for one, its even
and odd channels and their dot products).
e_q, the twiddles, the phase sums' sines and the character sums' e(k/n)
are read off _turn_tables, two tables of about sqrt(n) entries.

Three rules have one owner each.  _reduce is the one modulo of a residue
array here and in characters, counts, kloosterman and trilinear (a Python
int takes %, and so does the array of moduli of counts._unit_inverses).
_fft_plan's words are the lattice FFT's one price, 7 words a padded
point, which the kernel and the callers that price it ahead read.
_rough is the one rough-length test, a prime factor above 7: _fft_plan pads
a lattice's longest rough axis by it, and _unit_dft and
interval_character_sums price numpy's Bluestein transform by it, so a
change to the padding moves no transform's price.

build_ring factorizes q and splits the unit group, by CRT, into cyclic
factors (a primitive root per odd p^e; <-1> and <5> for the 2-adic part), and
allocates nothing of size q: every q-long table is written on its first read,
the unit mask first, whose read prices the ring's 7*q words, so any kernel
that prices its own work refuses before a table exists.  A unit is an
exponent tuple, flattened to one mixed-radix index (C order).  _unit_walk
owns that order: it walks the units from the factors' generators lifted mod
q, a block at a time.  ring.log_index, the ring's only discrete-log table,
is written from the walk: it gives the characters and the lattice that
_to_lattice maps residues onto (and a gather through it maps back).  A
reader that holds q-sized arrays of its own reads the index before it
builds them, so that the index is never written beside them.
_lattice_units reads the walk alone, the units in lattice order with no
index: ring.inv_table writes each unit's inverse (the negated tuple's unit)
from them, and the trilinear window evaluates its operands there, at the
half whose translate by _minus_one, the tuple of -1, is the rest.

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
# proof-trace peak at 1.7-2.1 GiB RSS.  ring-info reads the unit mask and the
# units alone and peaks 8 B a residue above the import at 10^7+19, so ~0.3
# GiB RSS at its largest admitted q, 35,714,285 (scaled, not run).
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
# A padded axis of at least this many points (k*n) is transformed by the
# four-step: at the crossover a two-operand real convolution of 2n = 40,002
# points took 2.51-2.57 ms padded against 2.52-2.53 ms four-step, at 32,002
# 1.95 against 2.15 ms, at 64,002 4.42 against 4.13 ms and at 2,000,004
# 116 against 83 ms (medians of alternating calls in one process, numpy
# 2.4.6 on one thread, 2-vCPU Xeon host).
_FOUR_STEP = 40_000
# The ring's tables' one price in words a residue (23-50 B measured,
# inv_table included): unit_mask's first read checks it, and
# sweeps.build_instance adds it to the window's FFT words.
_RING_WORDS = 7


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
    """keys mod q for int64 keys of any sign, into [0, q), as
    keys - keys // q * q (floor division): the one modulo of a residue
    array in ring, characters, counts, kloosterman and trilinear, where a
    Python int alone takes %.  The one exception is an array of moduli,
    which q here is not: counts._unit_inverses' three steps divide by one
    and keep numpy's %.  The reduced array is returned, of any layout; keys is
    overwritten unless it is a strided array of more than one block, which
    is reduced as a contiguous copy, so a caller passes an array it owns
    and reads the result.  The keys are reduced 2^16 at a time so that the
    quotient stays in cache: 2.4-2.8 ms against numpy's % at 5.0 ms on
    10^6 keys, 13-15 against 21-23 ms on 2^22 (q = 10^6+3, AVX-512 host);
    one block takes one step."""
    if keys.size > 1 << 16:
        keys = np.ascontiguousarray(keys)
        for s in range(0, keys.size, 1 << 16):
            _reduce(keys.reshape(-1)[s : s + (1 << 16)], q)
        return keys
    keys -= keys // q * q
    return keys


def _rough(n: int) -> bool:
    """n has a prime factor above 7: the package's one rough-length test.
    numpy's FFT takes a rough length by Bluestein, slower and with a
    scratch of several arrays of the transform's size, so _fft_plan pads
    the longest rough axis of a lattice, and _unit_dft and
    interval_character_sums price their transforms' Bluestein scratch by
    this test directly, whatever the padding rule."""
    return n > 1 and factorize(n)[-1][0] > 7


@functools.lru_cache(maxsize=16)
def _turn_tables(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(b, fine, coarse): exp(2*pi*i*e/n) at e < 2^b and at the multiples
    of 2^b below n, 2^b the first power of 2 >= sqrt(n): two read-only
    tables of about sqrt(n) entries, 1.7 MiB at MAX_MODULUS.  Each entry is a quarter
    turn (exact) times the cosine and sine of an angle folded by exact
    int64 steps into [0, pi/4], where its rounding costs under an ulp."""
    b = math.isqrt(n - 1).bit_length()
    quarter, r = np.divmod(4 * np.concatenate((np.arange(1 << b), np.arange(0, n, 1 << b))), n)
    flip = 2 * r > n  # the angle's complement to pi/2, with cos and sin swapped
    angle = np.where(flip, n - r, r) * (np.pi / 2 / n)
    c, s = np.cos(angle), np.sin(angle)
    values = (np.where(flip, s, c) + 1j * np.where(flip, c, s)) * np.array([1, 1j, -1, -1j])[quarter]
    values.flags.writeable = False  # shared by every caller through the cache
    return b, values[: 1 << b], values[1 << b :]


def _turns(e: np.ndarray, n: int) -> np.ndarray:
    """exp(2*pi*i*e/n) for int64 0 <= e < n: the coarse table's entry at
    the high bits of e times the fine table's at the low bits, 2^14
    entries at a time, so that the temporaries stay a block long."""
    if np.size(e) > 1 << 14:
        out = np.empty(np.shape(e), dtype=np.complex128)
        flat, values = np.reshape(e, -1), out.reshape(-1)
        for s in range(0, flat.size, 1 << 14):
            values[s : s + (1 << 14)] = _turns(flat[s : s + (1 << 14)], n)
        return out
    b, fine, coarse = _turn_tables(n)
    out = coarse[e >> b]
    out *= fine[e & ((1 << b) - 1)]
    return out


@functools.lru_cache(maxsize=4)
def _twiddle_block(rows: int, cols: int, n: int, sign: int) -> np.ndarray:
    """exp(sign*2*pi*i*j*c/n) at j < rows and c < cols, read-only: the
    offsets of a block's rows from its first row, one table for every
    block and call of a transform of that shape."""
    block = _turns(_reduce(np.multiply.outer(np.arange(rows), sign * np.arange(cols)), n), n)
    block.flags.writeable = False
    return block


def _twiddle(y: np.ndarray, a: int, n: int, sign: int) -> None:
    """y *= exp(sign*2*pi*i*k*c/n) in place, at row k of axis a and column
    c of axis a + 1 (every k*c < n): the four-step's twiddle.  Each block
    of min(sqrt(rows), _FFT_BLOCK // columns) rows (at least one) is
    multiplied by _twiddle_block and by its first row's factors, one row
    of _turns a block: no table is longer than a block, and the two
    tables' entries take about as long as each other to build."""
    rows, cols = y.shape[a], y.shape[a + 1]
    step, tail = max(1, min(math.isqrt(rows), _FFT_BLOCK // cols)), (1,) * (y.ndim - a - 2)
    near, c = _twiddle_block(step, cols, n, sign).reshape((step, cols) + tail), sign * np.arange(cols)
    for u in range(0, rows, step):
        block = y[(slice(None),) * a + (slice(u, u + step),)]
        block *= near[: block.shape[a]]
        if u:
            block *= _turns(_reduce(u * c, n), n).reshape((cols,) + tail)


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


def _four_step(m: int) -> tuple[int, int]:
    """(R, P): the four-step's rows R, a power of 2 next to sqrt(m), and
    its length P = R*P2 >= m, P2 the 5-smooth length of the columns; of
    the two powers of 2 around sqrt(m), the one that pads least."""
    b = math.isqrt(m).bit_length()
    return min(((1 << e) * _smooth_length(-(-m >> e)), 1 << e) for e in (b - 1, b))[::-1]


@functools.lru_cache(maxsize=256)
def _fft_plan(shape: tuple[int, ...], k: int = 2, negacyclic: bool = False):
    """A cyclic convolution's FFT over shape, of k operands: the size per
    axis, the axis padded (None if none is), the price points*log2(points)
    (the unit of _PAIR_COST), the axes of length 2, which _butterflies
    transforms, the axes numpy transforms, the last one first (at least
    one is left to numpy, which needs one), their sizes, the padded
    axis's four-step rows R (1 where it takes none), and the FFT's peak in
    words, 7 a padded point (32-56 B measured): the one price of the
    kernel's FFT, which _product_energy and build_instance take before
    they call it.  The owner of the
    lattice's padding rule, which no transform's price reads: the longest
    axis that _rough finds rough is zero-padded to a 5-smooth length
    >= k*n, so axis is not None exactly where shape has a rough length.  A
    negacyclic plan pads axis 0 whether or not it is rough: the kernel's
    negacyclic fold reads the linear product along it.

    From k*n >= _FOUR_STEP points on, the padded axis takes Bailey's
    four-step (D. H. Bailey, J. Supercomputing 4, 1990) instead: its
    length is P = R*P2 (_four_step), read as R rows of P2 columns, and
    numpy transforms the rows axis first (length R, where rfft's halving
    goes), then, after _twiddle, the columns axis and the other axes.  In
    these axes' numbering the padded axis is two, axis and axis + 1, and
    every later axis moves up by one.  Below, R = 1, and numpy transforms
    the axes longest last, the padded one at its 5-smooth length."""
    size = list(shape)
    rough = [j for j, n in enumerate(shape) if _rough(n)]
    axis = 0 if negacyclic else max(rough, key=lambda j: shape[j], default=None)
    split = 1
    if axis is not None:
        m = k * shape[axis]
        split, size[axis] = _four_step(m) if m >= _FOUR_STEP else (1, _smooth_length(m))
    points = math.prod(size)
    two = tuple(j for j, n in enumerate(size) if n == 2)[: len(size) - 1]
    axes = sorted(set(range(len(size))) - set(two), key=lambda j: size[j])
    s = [size[j] for j in axes]
    if split > 1:  # the columns and the other axes, then the rows
        rest = [j for j in axes if j != axis]
        axes = [axis + 1] + [j + (j > axis) for j in rest] + [axis]
        s = [size[axis] // split] + [size[j] for j in rest] + [split]
    return tuple(size), axis, points * math.log2(points + 1), two, tuple(axes), s, split, 7 * points


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


def _lattice_convolution(operands, shape: tuple[int, ...], negacyclic=False) -> tuple[np.ndarray, float | None]:
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
    the FFT (rfft first on real input, fft on complex), max(1, _FFT_BLOCK //
    points) rows a block: each distinct operand's block is transformed
    once, the spectra are multiplied in place (over the first factor's,
    unless a later block or factor reads it again), and one inverse is
    taken.
    The axes of length 2 are transformed by _butterflies (numpy's passes
    along them cost about as much as along a long axis), the rest by numpy
    in _fft_plan's order: the first one numpy transforms (by rfft on real
    input, which halves it) is the longest axis, or the padded axis's rows.
    The longest rough axis (_rough's test: a prime factor above 7) is
    zero-padded to a length P >= k*n, and the linear convolution along it
    folded back onto Z_n, its k blocks of n summed by one reduction into a
    compact result.  Below _FOUR_STEP points P is 5-smooth and numpy takes
    the axis whole; from there on P = R*P2 is read as R rows of P2 columns
    (Bailey's four-step): numpy transforms the rows axis (rfft on real
    input), _twiddle multiplies by exp(-2*pi*i*k*c/P), and numpy
    transforms the columns with the other axes, a block of rows of about
    2^16 points at a time, written back in place, so that no second
    spectrum is held beside the first.  The spectrum stays in that
    transposed order, which the product does not mind, and the inverse runs
    the steps backward, so numpy's scratch is a row long, not P.  Integer
    input (non-negative
    counts) gives an exact int64 result: a row's FFT is accepted only if
    _certified passes it (a residual below 1/4, every entry at most 2^52, an
    exact total, which may pass 2^52); else the tally recounts that row.  A
    row's route is picked by price alone.

    With negacyclic, c is the negacyclic convolution along axis 0, where
    x^n = -1: a product whose indices sum past n is subtracted.  Its plan
    pads that axis whether or not it is rough, the k blocks of the linear
    product are summed with alternating signs, and no row is tallied; the
    operands must be float (an integer one is refused).  The trilinear
    window's odd channel takes it.
    """
    distinct = {id(x): np.asarray(x) for x in operands}
    integer = all(x.dtype.kind in "biu" for x in distinct.values())
    if negacyclic and integer:
        raise ValueError("a negacyclic convolution takes float operands")
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
    size, axis, fft_cost, two, axes, s, split, words = _fft_plan(shape, len(arrays), negacyclic)
    # a row is tallied where the tally prices lower (at step m, the product
    # of m supports); _certified alone judges the FFT's rows
    supports = [[nonzero[id(x)][j % len(x)] for x in arrays] for j in range(b)]
    pairs = [sum(math.prod(n[:m]) for m in range(2, len(n) + 1)) for n in supports]
    tallied = [not negacyclic and p * _PAIR_COST <= fft_cost for p in pairs]
    # the tallied rows first, in order
    c = [_lattice_tally(row, shape) if t else None for row, t in zip(rows, tallied)]
    fft_rows, residuals = [j for j, t in enumerate(tallied) if not t], []
    if fft_rows:
        check_work(words, "7*points FFT words")
        real = all(x.dtype.kind != "c" for x in distinct.values())
        first, last = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)

        def forward(x, lead=1):  # along the lattice axes, behind `lead` axes of rows
            x = _butterflies(x, [j + lead for j in two])
            if split > 1:  # zero-padded to whole rows of the columns; the rows' transform pads to R
                a = axis + lead
                x = np.pad(x, [(0, -x.shape[j] % s[0] if j == a else 0) for j in range(x.ndim)])
                x = x.reshape(x.shape[:a] + (-1, s[0]) + x.shape[a + 1 :])
            y = first(x, s[-1], axes[-1] + lead)
            del x  # a padded copy is not held through the other axes
            if split > 1:
                _twiddle(y, axis + lead, size[axis], -1)
            return others(np.fft.fftn, y, lead)

        def others(f, y, lead):  # f along the axes but the last numpy's; the four-step's in place
            parts = min(y.shape[axis + lead], y.size >> 16) if split > 1 else 1
            if parts < 2:
                return f(y, s[:-1], [j + lead for j in axes[:-1]])
            for block in np.array_split(y, parts, axis + lead):  # ~2^16 points: one block's scratch
                block[...] = f(block, s[:-1], [j + lead for j in axes[:-1]])
            return y

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
            kept = {id(f) for f in (*once.values(), *factors[2:])}  # read again: not written over
            out = np.multiply(factors[0], factors[1], out=None if id(factors[0]) in kept else factors[0])
            for j in range(2, len(factors)):
                out *= factors[j]
            del factors
            lead = out.ndim - len(size) - (split > 1)
            out = others(np.fft.ifftn, out, lead)  # the product dropped, or written over
            if split > 1:
                _twiddle(out, axis + lead, size[axis], 1)
            out = last(out, s[-1], axes[-1] + lead)  # here, or here if no axis was left to ifftn
            if split > 1:  # the rows and columns read back as the padded axis
                out = out.reshape(out.shape[: axis + lead] + (-1,) + out.shape[axis + lead + 2 :])
            out = _butterflies(out, [j + lead for j in two], 0.5)
            if axis is not None:  # the k blocks of n along the padded axis, summed
                a, blocks = axis + lead, (len(arrays), shape[axis])
                out = out[(slice(None),) * a + (slice(0, math.prod(blocks)),)]
                out = out.reshape(out.shape[:a] + blocks + out.shape[a + 1 :])
                if negacyclic:  # x^n = -1: the odd blocks negated
                    out[(slice(None),) * a + (slice(1, None, 2),)] *= -1
                out = out.sum(axis=a)
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
        return _reduce(np.arange(first, first + self.length, dtype=np.int64), q)

    def __contains__(self, value: int) -> bool:
        return self.start + 1 <= value <= self.start + self.length


@dataclass(frozen=True)
class CyclicFactor:
    """One cyclic factor of the units mod q: `generator` has `order` mod the
    prime power `modulus`.  Its discrete logs are one digit of
    ResidueRing.log_index; no factor keeps a table of its own."""

    modulus: int
    generator: int
    order: int


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
        yield i * step, _reduce(block, modulus)


def _cyclic_factors(p: int, e: int) -> list[CyclicFactor]:
    """The unit group mod p^e as cyclic factors, generators and orders only
    (the logs are written once, into log_index): one of order p^(e-1)*(p-1)
    generated by a primitive root for odd p; <-1> of order 2 for 4 | p^e and
    also <5> of order 2^(e-2) for 8 | p^e (units mod 2^e are (-1)^s * 5^t,
    uniquely; none for 2)."""
    pe = p**e
    if p != 2:
        return [CyclicFactor(pe, _primitive_root(p, e), pe // p * (p - 1))]
    return [CyclicFactor(pe, g, n) for g, n in zip([pe - 1, 5], [2, pe // 4][: e - 1])]


def _unit_walk(q: int, factors, stop: int):
    """Yield (s, k, block) blocks that cover the flat exponent-tuple indices
    (C order) below stop, a multiple of the last factor's order or at most
    it: block[i, j] is the unit at the tuple whose leading digits have flat
    index s + i and whose last digit is k + j.  Each factor's generator is
    lifted to the unit that is the generator mod its prime power and 1 mod
    the rest of q, so the unit at a tuple is the product of the lifted
    powers: an outer product of the leading units with one _power_blocks
    block of the last factor's powers, about 2^16 units a block.  The one
    owner of the lattice's order of the units, which _unit_group and
    _lattice_units read."""
    lifted = [
        (1 + (f.generator - 1) * (q // f.modulus) * pow(q // f.modulus, -1, f.modulus)) % q
        for f in factors
    ]
    *lead_generators, g = lifted or [1]
    *lead_orders, n = [f.order for f in factors] or [1]
    lead = np.ones(1, dtype=np.int64)  # the units at the leading exponent tuples
    for h, m in zip(lead_generators, lead_orders):
        powers = np.concatenate([block for _, block in _power_blocks(h, m, q)])
        lead = _reduce(np.multiply.outer(lead, powers).reshape(-1), q)
    lead = lead[: max(1, stop // n)]
    for k, powers in _power_blocks(g, min(n, stop), q):
        step = max(1, (1 << 16) // powers.size)  # leading units a block: ~2^16 units held
        for s in range(0, lead.size, step):  # lead = [1] alone: the powers are the units
            yield s, k, (powers[None] if lead.size == 1
                         else _reduce(np.multiply.outer(lead[s : s + step], powers), q))


def _unit_group(q: int, factors, units: np.ndarray) -> np.ndarray:
    """log_index, the one index of the units mod q as a product of the cyclic
    factors, which the characters and the lattice read: the
    flat exponent-tuple index (C order) per residue, -1 off units, read-only.
    Each block of _unit_walk's units is written its flat indices.  Nothing
    but log_index outlives the call."""
    orders = [f.order for f in factors]
    if math.prod(orders) != units.size:
        raise AssertionError(f"character count {math.prod(orders)} != phi {units.size}")
    n = orders[-1] if orders else 1
    log_index = np.full(q, -1, dtype=np.int64)
    for s, k, block in _unit_walk(q, factors, units.size):
        rows = np.arange(s, s + len(block))[:, None] * n  # each row's first flat index
        log_index[block] = rows + np.arange(k, k + block.shape[1])
    log_index.flags.writeable = False
    return log_index


def _lattice_units(ring: ResidueRing, stop: int) -> np.ndarray:
    """The units at the flat exponent-tuple indices below stop, in that
    order, from _unit_walk's blocks: with stop = phi/2, the half of the
    lattice whose first digit is below half its axis.  No q-long table is
    read."""
    out = np.empty(stop, dtype=np.int64)
    rows = out.reshape(-1, min(ring.shape[-1], stop))
    for s, k, block in _unit_walk(ring.q, ring.factors, stop):
        rows[s : s + len(block), k : k + block.shape[1]] = block
    return out


def _minus_one(ring: ResidueRing) -> np.ndarray:
    """The exponent tuple of -1: half of each axis whose generator's half
    power is -1 mod its prime power (every odd p^e and the 2-adic <-1>, so
    the first axis whenever phi > 1), 0 on the 2-adic <5> axis."""
    return np.array([f.order // 2 if pow(f.generator, f.order // 2, f.modulus) == f.modulus - 1
                     else 0 for f in ring.factors] or [0])


def _to_lattice(ring: ResidueRing, interval: IntervalSet, values=None) -> np.ndarray:
    """Lattice array, shaped ring.shape, holding at each exponent tuple how
    many of the interval's members land on it, or with values (aligned with
    the members) the sum of their values; non-units are dropped.  The index
    is read before the members are reduced mod q."""
    flat = ring.log_index[interval.residues(ring.q)]
    flat += 1  # non-units land in bin 0, cut below
    size = ring.phi + 1
    if values is None:
        out = np.bincount(flat, minlength=size)
    else:
        out = np.bincount(flat, values.real, size) + 1j * np.bincount(flat, values.imag, size)
    return out[1:].reshape(ring.shape)


def _negated(lattice: np.ndarray) -> np.ndarray:
    """The lattice array read at the negated exponent tuples: out[k] = lattice[-k]."""
    return np.roll(np.flip(lattice), 1, axis=tuple(range(lattice.ndim)))


@dataclass(frozen=True, eq=False)
class ResidueRing:
    """Arithmetic context for Z_q: q, its factorization ``primes`` and the
    unit group's decomposition into cyclic factors, ``factors``; ``phi``,
    ``tau`` and the exponent-tuple lattice ``shape`` are read off them.

    Treated as immutable after construction; safe to share across threads.
    Compares and hashes by identity.  Every q-long table is built on its
    first read: ``unit_mask`` (whose read prices the ring's 7*q words),
    ``units``, ``log_index``, the one index every character and lattice
    reads, and ``inv_table``; e_q is read through eq_eval, which
    holds no q-long table.  The ring also holds, in
    its ``__dict__`` beside them, the latest trilinear unit window computed
    on it, so everything derived from q is freed with its ring.
    """

    q: int
    primes: tuple[tuple[int, int], ...]
    factors: tuple[CyclicFactor, ...]

    @property
    def phi(self) -> int:
        return math.prod(p ** (e - 1) * (p - 1) for p, e in self.primes)

    @property
    def tau(self) -> int:
        return math.prod(e + 1 for _, e in self.primes)

    @property
    def shape(self) -> tuple[int, ...]:
        """The exponent-tuple lattice; the trivial group is one point."""
        return tuple(f.order for f in self.factors) or (1,)

    @functools.cached_property
    def unit_mask(self) -> np.ndarray:
        """unit_mask[x] = gcd(x, q) == 1, built on first read, once the
        ring's 7*q words fit the work budget."""
        check_work(_RING_WORDS * self.q, "7*q ring words")
        mask = np.ones(self.q, dtype=bool)
        for p, _ in self.primes:
            mask[::p] = False
        return mask

    @functools.cached_property
    def units(self) -> np.ndarray:
        """The units in increasing order, as int64, built on first read."""
        return np.flatnonzero(self.unit_mask).astype(np.int64, copy=False)

    @functools.cached_property
    def log_index(self) -> np.ndarray:
        """The flat exponent-tuple index per residue, -1 off units, built on
        first read by _unit_group."""
        return _unit_group(self.q, self.factors, self.units)

    @functools.cached_property
    def inv_table(self) -> np.ndarray:
        """inv_table[x] = x^-1 mod q at units, 0 elsewhere, built on first
        read: the inverse of a unit is the unit with the negated exponent
        tuple.  No index is read: the units come in lattice order."""
        unit_at = _lattice_units(self, self.phi)  # the unit at each exponent tuple
        inv = np.zeros(self.q, dtype=np.int64)
        inv[unit_at] = _negated(unit_at.reshape(self.shape)).reshape(-1)
        return inv


def _check_modulus(q: int) -> None:
    """Refuse, with a ValueError, q < 2 or q > MAX_MODULUS."""
    if q < 2:
        raise ValueError(f"modulus too small: need q >= 2, got {q}")
    if q > MAX_MODULUS:
        raise ValueError(
            f"modulus too large: need q <= {MAX_MODULUS} for int64 products, got {q}"
        )


def build_ring(q: int) -> ResidueRing:
    """The arithmetic context for Z_q, for any 2 <= q <= MAX_MODULUS: q's
    factorization and cyclic factors, with no table of size q."""
    _check_modulus(q)
    primes = tuple(factorize(q))
    factors = tuple(f for p, e in primes for f in _cyclic_factors(p, e))
    return ResidueRing(q=q, primes=primes, factors=factors)


def mod_inverse(ring: ResidueRing, x: int) -> int:
    """Multiplicative inverse of x mod q; raises NotAUnitError off units."""
    r = int(x) % ring.q
    if (g := math.gcd(r, ring.q)) != 1:
        raise NotAUnitError(f"{x} is not a unit modulo {ring.q} (gcd = {g})")
    return pow(r, -1, ring.q)


def eq_eval(ring: ResidueRing, z) -> complex | np.ndarray:
    """exp(2*pi*i*z/q); the argument is reduced mod q before evaluation, and
    the value read off _turns' two tables of about sqrt(q) entries, so no
    q-long table is built."""
    if isinstance(z, (int, np.integer)):
        return complex(_turns(np.array([int(z) % ring.q]), ring.q)[0])
    return _turns(_reduce(np.array(z, dtype=np.int64), ring.q), ring.q)


def centered_rep(ring: ResidueRing, u) -> int | np.ndarray:
    """Representative of u mod q in the window (-q/2, q/2]."""
    if isinstance(u, (int, np.integer)):
        r = int(u) % ring.q
        return r if 2 * r <= ring.q else r - ring.q
    r = _reduce(np.array(u, dtype=np.int64), ring.q)
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
        out[t] = f @ eq_pows[_reduce(t * idx, q)]
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
    out = _reduce(a0 * t, 2 * q)
    return _reduce(out + q * (t & 1), 2 * q) if a1 else out


def _sin_half_turns(h: np.ndarray, q: int) -> np.ndarray:
    """sin(pi*h/q) for a contiguous int64 array of 0 <= h < 2q, in any
    order, written over h's buffer as float64 and returned.  Each block of
    2^14 is folded branch-free by exact int64 steps, h - q*[h >= q] and then
    min(h, q - h) in [0, q/2], the sign carried, as np.sin near pi or 2*pi
    loses ~q*eps; the first-quadrant sine is the imaginary part of
    _turns(h, 2q), whose gathers hit two tables of about sqrt(2q) entries,
    so no input order runs slower than another, and the temporaries stay a
    block long (a whole-array _turns would hold twice the output).  The
    sign is a multiply: a masked negative runs ~10x slower on a scattered
    mask.  3.6-3.8 ms at 5*10^5 points in either order, where np.sin after
    masked folds took 22 ms scrambled and 6.9 ms ascending (2-vCPU Xeon)."""
    heights, out = h.reshape(-1), h.reshape(-1).view(np.float64)
    for s in range(0, heights.size, 1 << 14):
        upper = heights[s : s + (1 << 14)] >= q
        e = heights[s : s + (1 << 14)] - q * upper  # a copy: out overwrites the block
        np.minimum(e, q - e, out=e)
        np.multiply(_turns(e, 2 * q).imag, 1 - 2.0 * upper, out=out[s : s + (1 << 14)])
    return out.reshape(h.shape)


def _phase_sums(q: int, intervals, t: np.ndarray):
    """Yield, for each interval in turn, sum_{m in interval} e_q(m*t) at
    the residues 0 <= t < q (an int64 array, not overwritten).  The
    intervals share one sin(pi*t/q), the denominator, and consecutive
    intervals of one length share the ratio sin(pi*length*t/q)/sin(pi*t/q),
    written over the denominator once no later length reads it."""
    # sum_{k=1..length} e_q((v+k)*x)
    #   = e^(i*pi*(2v+length+1)*x/q) * sin(pi*length*x/q) / sin(pi*x/q)
    # evaluated in place, to hold the temporaries near one result's size
    den = _sin_half_turns(np.maximum(t, 1), q)  # the t = 0 entries are set below
    ratio = length = None
    for i, interval in enumerate(intervals):
        if interval.length != length:
            length, ratio = int(interval.length), None  # the last length's ratio dropped first
            num = _sin_half_turns(_half_turns(length % (2 * q), t, q), q)
            last = all(iv.length == length for iv in intervals[i + 1 :])
            ratio = np.divide(num, den, out=den if last else num)
            del num
        out = _turns(_half_turns((2 * int(interval.start) + length + 1) % (2 * q), t, q), 2 * q)
        out *= ratio
        out[t == 0] = length
        yield out
        del out  # not held through the next interval's


def interval_phase_sum(ring: ResidueRing, interval: IntervalSet, x):
    """Geometric sum over the interval: sum_{m in interval} e_q(m*x), for an
    int x (a complex result) or an integer array x (an array), in any order.

    Evaluated in closed form (Dirichlet-kernel shape) by _phase_sums; the
    value is the interval length where x = 0 mod q, and |value| <= min(length,
    q/<x>_q).  The interval and a Python-int x are reduced mod 2q and q
    before any int64 product and both sines are read at folded arguments off
    _turns' tables, so any start, length and x give the value to a few ulps
    relative.  Reads only ring.q.
    """
    q = ring.q
    scalar = isinstance(x, (int, np.integer))
    t = np.array([int(x) % q]) if scalar else _reduce(np.array(x, dtype=np.int64), q)
    out = next(_phase_sums(q, (interval,), t))
    return complex(out[0]) if scalar else out
