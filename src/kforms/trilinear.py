"""Weighted trilinear forms over double Kloosterman sums.

The form S_q(alpha; L, M, N) = sum_l alpha_l sum_m sum_n K_q(l, m, n) is
evaluated two ways: a brute-force oracle over double sums, and a fast path
through the window W_l = sum_m sum_n K_q(l, m, n), which over the units l is
W(l) = sum_{u*v*w = l} mu(u) nu(v) e_q(w), with mu/nu the interval phase sums
of the M and N windows: a three-way convolution on the unit group (Rader's
reindexing of e_q).  The three operands are conjugate-symmetric, so their
cas (Hartley) forms Re f + Im f are real, and the package's one lattice
kernel, ring._lattice_convolution, convolves all three in one call over the
ring's CRT lattice (ring.shape), read only at l and -l for the units l of
L: one real transform of each operand, their product and one inverse, in
O(phi log phi).  The operands are evaluated in lattice order, at the units
of half the lattice that ring._lattice_units walks from the lifted
generators, and the other half is their translate by the exponent tuple of
-1: the ring's walk is not built and no operand is scattered.  On a cyclic unit
group, one axis Z_n on which -1 is the translate by n/2, the window may
instead split x^n - 1 = (x^(n/2) - 1)(x^(n/2) + 1) (Nussbaumer, Fast
Fourier Transform and Convolution Algorithms, 1981): the characters with
chi(-1) = 1 see the operands' real parts, convolved cyclically over
Z_{n/2}, those with chi(-1) = -1 their imaginary parts, convolved
negacyclically, and each channel's mu * nu is dotted against cos or sin
of e_q at the reads, slab by slab, where _window_route prices that under
the chain: no cas form and no translate, every operand n/2 long and given
to the kernel as a function that reads the half's points, so no operand is
held whole.  A multi-axis lattice, where -1's translate also rolls the
other axes, keeps the chain.  _window_route picks the route from q's
factorization and L's unit count alone, so the instance's price
(sweeps.build_instance) is the route's own, before the ring builds a table.  The kernel knows nothing of
the reads.  The window is built once per instance and held on its ring,
one slot keyed by the three intervals, so it lives as long as the ring and
no longer.
The proof trace's collision sums T_i(lam) = sum alpha_l mu_x [l * inv(x)
= lam] take the same kernel, one call per block of level sets, each set's
mu a row, so alpha is transformed once a block; T vanishes off the units,
so its rows are read at the units alone.  An instance's weights are
validated on construction (|alpha_l| <= 1, and 0 at every non-unit l), so
the form reads the unit window alone.  Its oracle, _window_gather, which
also serves a non-unit l, is kloosterman's O(phi)-per-l gather, the one
double_fast reads K_q(l, m, n) through: at the one-point intervals
M = {m}, N = {n} the window W_l is K_q(l, m, n) itself.
The trace machinery splits the fast form over a dyadic decomposition of the
centered unit representatives and records every intermediate quantity next
to its reference envelope (all absorbed constants set to 1); a level set's
mirror -(j, +) is (j, -), so one reciprocal transform serves both signs.
Each family of maps (the references J_r, the T maps, the U maps) is
computed in blocks of max(1, _FFT_BLOCK // q) rows of length up to q: a trace
at q below ~3,000 with M, N ~ sqrt(q) takes one call per family, and from
q ~ 16,000 on each block is one row, so the trace holds no more than a
level-by-level one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .counts import _reciprocal_counts, _unit_count
from .kloosterman import _unit_dft, _unit_gather, double_naive
from .reports import BoundReport, _ratio, make_report
from .ring import (
    _FFT_BLOCK,
    IntervalSet,
    ResidueRing,
    _fft_plan,
    _lattice_convolution,
    _lattice_units,
    _minus_one,
    _phase_sums,
    _to_lattice,
    _turns,
    check_work,
    cyclic_dft,
    euler_phi,
    interval_phase_sum,
)

WEIGHT_MODES = ("ones", "rademacher", "phase", "extremal")

# _window_route's price of the dots, in the unit of ring._PAIR_COST (one
# transform is a third of it, 0.6-0.9 ns per point times log2 of the
# points): one element of a read's two dots, one a channel, costs _DOT_COST
# (0.55 ns at n/2 = 5*10^5), and each distinct read costs as much as
# _DOT_CALL more elements, its calls' overhead; L's unit members are
# priced as the reads.  The call's fixed work, with no fold left in it, no
# longer measures apart from the transforms.  These route the window within
# 0.01-0.2 ms of the faster route, summed over 55 cases that take 1.25 s by
# the faster routes (two fits): 52 primes from 2003 to 10^6+3 with
# L = min(sqrt(q), 4.8*10^7/phi) and distinct M, N of length sqrt(q), and
# three with M = N, each timed both ways; no sweep-sized case (q from 2000
# to 2999, L = M = N = sqrt(q)) takes the dots.  Fitted with OpenBLAS on one
# thread (OPENBLAS_NUM_THREADS=1, which perfbench/run.py pins), 2-vCPU Xeon
# host.  The CLI, the tests and library callers run at numpy's default
# thread count, where the q = 100,003 window (L = 316) stalled ~1 s in its
# dots in 6 of 67 fresh processes (see ROADMAP.md).
_DOT_COST = 0.17
_DOT_CALL = 12000


@dataclass(frozen=True)
class WeightVector:
    """Complex weights on an interval, supported on units, |w| <= 1."""

    interval: IntervalSet
    weights: np.ndarray

    def validate(self, ring: ResidueRing) -> None:
        if self.weights.shape != (self.interval.length,):
            raise ValueError("weights must align with the interval members")
        if not np.all(np.abs(self.weights) <= 1 + 1e-12):  # NaN fails too
            raise ValueError("weights must satisfy |w| <= 1")
        off_units = ~ring.unit_mask[self.interval.residues(ring.q)]
        if np.any(self.weights[off_units] != 0):
            raise ValueError("weights must vanish off units")


@dataclass(frozen=True)
class TrilinearInstance:
    """A weighted form; the weights are validated against the ring."""

    ring: ResidueRing
    weights: WeightVector
    m_interval: IntervalSet
    n_interval: IntervalSet

    def __post_init__(self):
        self.weights.validate(self.ring)


@dataclass(frozen=True)
class DyadicDecomposition:
    """Partition of the centered unit representatives into annuli whose radii
    grow by factor e, separately for each sign.

    ``q_sets[(i, sign)]`` holds the representatives for level i on the M side
    (``r_sets`` for the N side); level 0 covers 0 < |x| <= q/length and level
    i covers e^(i-1) q/length < |x| <= min(q/2, e^i q/length).
    """

    levels_m: int
    levels_n: int
    q_sets: dict
    r_sets: dict


@dataclass(frozen=True)
class MomentCheck:
    value: float
    reference: float
    ratio: float | None


@dataclass(frozen=True)
class TraceCell:
    i: int
    sign_x: int
    j: int
    sign_y: int
    value: complex
    holder_bound: float
    holder_ratio: float | None


@dataclass(frozen=True)
class ProofTrace:
    r: int
    total: complex  # sum of all cell values
    fast_value: complex  # full fast evaluation, for the reconstruction check
    decomposition: DyadicDecomposition
    # the T maps themselves are not kept: each is read for its moments and
    # its row of cells
    first_moments: dict  # (i, sign) -> sum |T| over the units vs q*L
    second_moments: dict  # (i, sign) -> sum |T|^2 over the units vs q*L^2 + e^-i q*L*M
    y_moments: dict  # (j, sign) -> sum_lam |U|^(2r) vs e^(-2rj) q N^(2r) J_r
    cells: list[TraceCell]


def _window_gather(
    ring: ResidueRing, ls, m_interval: IntervalSet, n_interval: IntervalSet
) -> np.ndarray:
    """W_l for each l in ls, as sum_{x,y units} eta_x kappa_y e_q(l*x*y):
    summing K_q(l, m, n) over the windows folds the twists e_q(m*inv(x)),
    e_q(n*inv(y)) into the weights eta = mu(inv x), kappa = nu(inv y).  One
    _unit_dft of nu, which prices itself, then kloosterman's O(phi)-per-l
    gather, the one that reads K_q(l, m, n) off the single sums: this is
    K_q(l, m, n) itself at the one-point windows M = {m}, N = {n}.  Priced
    first at its gathers' elements, len(ls) * phi."""
    check_work(len(ls) * ring.phi, "len(ls)*phi gather elements")
    f = _unit_dft(ring, lambda xb: interval_phase_sum(ring, n_interval, xb))
    eta = interval_phase_sum(ring, m_interval, ring.inverses)
    return _unit_gather(ring, eta, f, ls)


def _window_route(ring: ResidueRing, l_interval, m_interval, n_interval) -> tuple[bool, int]:
    """(dots, words): the route the window takes and its FFT's peak words,
    read off q's factorization, _fft_plan and L's unit count alone, so no
    table is built: the one rule that picks the route, which _unit_window
    runs and sweeps.build_instance prices.  The dots need a one-axis
    lattice Z_n of even order (a cyclic unit group); their heads (1 where M
    = N, else 2) are convolved as two channels of n/2 points, one cyclic
    and one negacyclic, a third of points*log2(points) a transform, one per
    head and the inverse, each channel; then each read costs its two dots'
    n/2 elements and _DOT_CALL, at _DOT_COST an element.  The reads are
    counted as L's unit members, an upper bound on the distinct indices mod
    n/2 the window reads, which it meets unless L holds both l and -l or
    wraps past q.  The chain costs one transform per head, one of e_q and
    the inverse, at three operands over Z_n.  The dots are taken where they
    cost no more than the chain.  The dots' words are the larger of the two
    channel plans' (the channels run one after the other), the chain's are
    its own plan's."""
    chain, half = _fft_plan(ring.shape, 3), (ring.phi // 2,)
    if len(ring.shape) > 1 or ring.phi % 2:
        return False, chain[7]
    even, odd = _fft_plan(half), _fft_plan(half, 2, True)
    heads = 1 + (m_interval != n_interval)
    reads = _unit_count(l_interval, ring.q, ring.primes) * (half[0] + _DOT_CALL) * _DOT_COST
    dots = reads + (heads + 1) * (even[2] + odd[2]) / 3 <= (heads + 2) * chain[2] / 3
    return dots, max(even[7], odd[7]) if dots else chain[7]


def _dots_at(a: np.ndarray, b: np.ndarray, k: np.ndarray, sign: int) -> np.ndarray:
    """c(k) = sum_j a(j) b(k - j) over j < h = a.size at the indices
    0 <= k < h, b extended h-periodically (sign 1) or h-antiperiodically
    (sign -1, b(x - h) = -b(x)): one channel of the window, read against
    its part of e_q.  Each read is one contiguous slice of a doubled,
    reversed copy of b, and the dots are summed over slabs of 2^16
    elements of a, every read's slab against one slab in turn, so that
    the slab stays in cache across the reads."""
    h = a.size
    tiled = np.concatenate((b[::-1], sign * b[::-1]))
    starts = (h - 1 - k).tolist()
    dots = np.zeros(k.size)
    for j in range(0, h, 1 << 16):
        slab = a[j : j + (1 << 16)]
        dots += [slab @ tiled[s + j : s + j + slab.size] for s in starts]
    return dots


def _unit_window(
    ring: ResidueRing,
    l_interval: IntervalSet,
    m_interval: IntervalSet,
    n_interval: IntervalSet,
) -> np.ndarray:
    """Read-only array aligned with l_interval.members(): W_l = sum_{m in M}
    sum_{n in N} K_q(l, m, n) at every unit l, 0 at the rest.

    With u = inv(x), v = inv(y) in _window_gather's sum, W(l) is
    sum_{u*v*w = l} mu(u) nu(v) e_q(w), and reads no inverse.  The
    operands are evaluated in lattice order, at the units of the half
    x_0 < n_0/2 that ring._lattice_units walks, so ring.units is not read;
    the M and N phase sums share one denominator, mu is evaluated once when
    M = N, and e_q is read off _turns' two tables.  The reads at l and -l
    for the units l of L come from one pass of a marker of +-L over the
    half.

    The chain: the cas forms Re f + Im f of the three operands (each has
    f(-u) = conj f(u)) convolve to a real r, and W(l) = (r(l) + r(-l))/2
    + i (r(-l) - r(l))/2: a character with chi(-1) = 1 sees f's transform,
    one with chi(-1) = -1 i times it.  Each cas form is written
    contiguously: Re + Im on the half and Re - Im on its translate by eps,
    ring._minus_one's exponent tuple of -1 (n_0/2 on the first axis, so the
    translate is the other half, rolled along the rest), and one kernel
    call convolves the three, read only at l and -l: with equal M and N
    intervals mu is one operand given twice, so the chain takes 3
    transforms, else 4.

    The channels, on a one-axis lattice Z_n of even order (a cyclic unit
    group) where _window_route, taken before the walk, picks them (L may
    hold l beside -l, or wrap past q, and its reads are then fewer than
    priced): -1 is the translate by h = n/2,
    so f(x + h) = conj f(x), and f's reductions mod x^h - 1 and x^h + 1 are
    2 Re f and 2i Im f on the half.  The kernel convolves Re mu with Re nu
    cyclically and Im mu with Im nu negacyclically, over Z_h, one call a
    channel, and _dots_at reads each against cos or sin of e_q at k, the
    half's point of l or -l: W(l) = 4 (c+(k) - i s c-(k)), s = 1 where l's
    point is k and -1 where it is k + h.  The operands are functions, Re or
    Im of _phase_sums' sums, which hold the half's units and one Dirichlet
    ratio sin(pi*M*t/q)/sin(pi*t/q) a length for both channels and read
    them through the kernel's reader: past its four-step threshold the
    kernel calls them a block of points at a time, so no operand is held
    whole.  A channel's dots are taken, against its part of e_q built a
    block at a time, before the next channel starts.  At the peak, inside
    a channel's kernel call, the route holds the units and the ratio (4 B a
    residue each at a prime), one spectrum and one stage-one buffer (8 B a
    residue each): 33 B a residue in all at 10^6+3, with the mask and the
    blocks in flight.  The window is held in the ring's __dict__, as
    functools.cached_property holds units, one slot keyed by (L, M, N):
    every caller on one instance reads one window, and it is freed with its
    ring.
    """
    key = (l_interval, m_interval, n_interval)
    held = ring.__dict__.get("_unit_window")
    if held is not None and held[0] == key:
        return held[1]
    dots = _window_route(ring, l_interval, m_interval, n_interval)[0]
    q, shape, phi = ring.q, ring.shape, ring.phi
    half = -(-phi // 2)  # q = 2's one unit is its own negative
    units, eps = _lattice_units(ring, half), _minus_one(ring)
    residues = l_interval.residues(q)
    on_units = ring.unit_mask[residues]
    ls = residues[on_units]
    marked = np.zeros(q, dtype=bool)
    marked[ls] = marked[q - ls] = True
    x = np.flatnonzero(marked[units])  # the points of the half whose unit is l or -l
    del marked
    y = np.ravel_multi_index(np.unravel_index(x, shape) + eps[:, None], shape, mode="wrap")  # -u's points
    keys, points = np.concatenate((units[x], q - units[x])), np.concatenate((x, y))
    sorter = np.argsort(keys)
    at = points[sorter[np.searchsorted(keys, np.concatenate((ls, q - ls)), sorter=sorter)]]
    intervals = (m_interval,) if n_interval == m_interval else (m_interval, n_interval)
    window = np.zeros(residues.size, dtype=np.complex128)
    if dots:  # k, the half's point of l or -l; s = 1 where it is l's own
        s = np.where(at[: ls.size] < half, 1, -1)
        k, slot = np.unique(at[: ls.size] - half * (s < 0), return_inverse=True)
        sums, channels = _phase_sums(q, intervals, units), []  # the ratios held once, for both channels
        for part, sign in (("real", 1), ("imag", -1)):  # a channel's dots are in before the next starts
            heads = tuple(lambda read, f=f, part=part: getattr(f(read), part) for f in sums)
            c = _lattice_convolution((heads * 2)[:2], (half,), sign < 0)[0]  # M = N: one operand twice
            e = np.empty(half)  # e_q's part, a block at a time: its complex values are never held whole
            for j in range(0, half, 1 << 14):
                e[j : j + (1 << 14)] = getattr(_turns(units[j : j + (1 << 14)], q), part)
            channels.append(_dots_at(c, e, k, sign))
            del c, e
        window[on_units] = 4 * (channels[0][slot] - 1j * s * channels[1][slot])
    else:
        # the half's translate by eps, the points of -u, in order: the half's
        # points rolled once along the later axes (a gather; none on one axis)
        back = slice(phi - half) if len(shape) == 1 else np.roll(
            np.arange(half).reshape((-1,) + shape[1:]), eps[1:], tuple(range(1, len(shape)))).reshape(-1)

        def cas(f):
            lattice, g = np.empty(phi), f[back]
            np.add(f.real, f.imag, out=lattice[:half])
            np.subtract(g.real, g.imag, out=lattice[half:])
            return lattice.reshape(shape)

        heads = tuple(cas(f()) for f in _phase_sums(q, intervals, units))  # each sum dropped once cast
        r = _lattice_convolution((heads * 2)[:2] + (cas(_turns(units, q)),), shape)[0].reshape(-1)[at]
        window[on_units] = (0.5 - 0.5j) * r[: ls.size] + (0.5 + 0.5j) * r[ls.size :]
    window.flags.writeable = False
    ring.__dict__["_unit_window"] = (key, window)
    return window


def make_weights(
    ring: ResidueRing,
    l_interval: IntervalSet,
    mode: str = "ones",
    seed: int = 0,
    m_interval: IntervalSet | None = None,
    n_interval: IntervalSet | None = None,
) -> WeightVector:
    """Weight models for the harness; deterministic given (mode, seed).

    ``extremal`` aligns each weight against the inner double-sum window
    W_l so that |S_q| attains sum_l |W_l|; it needs the M and N intervals.
    """
    if mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weight mode {mode!r}; pick one of {WEIGHT_MODES}")
    on_units = ring.unit_mask[l_interval.residues(ring.q)]
    if mode == "ones":
        weights = on_units.astype(np.complex128)
    elif mode == "rademacher":
        rng = np.random.default_rng(seed)
        weights = rng.choice(np.array([-1.0, 1.0]), size=on_units.size) + 0j
        weights[~on_units] = 0
    elif mode == "phase":
        rng = np.random.default_rng(seed)
        weights = np.exp(2j * np.pi * rng.random(on_units.size))
        weights[~on_units] = 0
    else:
        if m_interval is None or n_interval is None:
            raise ValueError("extremal weights need the M and N intervals")
        window = _unit_window(ring, l_interval, m_interval, n_interval)
        mags = np.abs(window)
        # W_l = 0 (and the window is 0 off units) would give 0/0; those
        # weights are set to 0
        weights = np.where(mags > 0, np.conj(window) / np.where(mags > 0, mags, 1), 0)
    return WeightVector(interval=l_interval, weights=weights)


def _check_naive_work(q: int, lengths) -> None:
    """Refuse, with a ValueError, an oracle form at modulus q over windows
    of the given lengths whose 4*L*M*N*phi^2 words exceed the work budget:
    one double_naive, 4*phi^2 words, per (l, m, n).  trilinear_naive's one
    price, which the CLI takes before it builds the instance."""
    check_work(4 * math.prod(lengths) * euler_phi(q) ** 2, "4*L*M*N*phi^2")


def trilinear_naive(instance: TrilinearInstance) -> complex:
    """Oracle evaluation straight from the definition, one double sum per
    (l, m, n); O(L*M*N*phi^2), priced first by _check_naive_work."""
    ring = instance.ring
    _check_naive_work(ring.q, [iv.length for iv in (instance.weights.interval, instance.m_interval,
                                                   instance.n_interval)])
    total = 0j
    for l, alpha in zip(instance.weights.interval.members(), instance.weights.weights):
        if alpha == 0:
            continue
        block = 0j
        for m in instance.m_interval.members():
            for n in instance.n_interval.members():
                block += double_naive(ring, int(l), int(m), int(n))
        total += alpha * block
    return total


def trilinear_fast(instance: TrilinearInstance) -> complex:
    """Fast evaluation: sum_l alpha_l W_l over the instance's unit-group
    window (the weights vanish off units)."""
    ring, weights = instance.ring, instance.weights
    window = _unit_window(ring, weights.interval, instance.m_interval, instance.n_interval)
    return complex(np.sum(weights.weights * window))


def _level_count(length: int) -> int:
    # ceil of the natural log of length/2; lengths <= 2 stay at level 0
    return math.ceil(math.log(length / 2))


def _levels(q: int, length: int, residues: np.ndarray) -> tuple[int, np.ndarray]:
    """The one dyadic level rule for window length `length`: (levels, key),
    key[k] the index of the sign/level set of the unit residues[k] (int8,
    in DyadicDecomposition order: level i of |x| for the representative
    x = residues[k] when 2x <= q, levels + 1 + i for x - q, when 2x > q)."""
    levels = _level_count(length)  # e^levels q/length >= q/2 >= every radius: the top needs no bound
    negative = 2 * residues > q
    radii, key = np.where(negative, q - residues, residues), negative * np.int8(levels + 1)
    for bound in np.exp(np.arange(levels)) * q / length:  # 2.5x a searchsorted of unsorted radii
        key += radii > bound
    return levels, key


def _sign_sets(ring: ResidueRing, length: int) -> tuple[int, dict]:
    units = ring.unit_mask.nonzero()[0]  # increasing, as each level set is kept
    levels, key = _levels(ring.q, length, units)
    reps = np.where(2 * units > ring.q, units - ring.q, units)
    names = [(i, sign) for sign in (1, -1) for i in range(levels + 1)]
    return levels, {name: reps[key == k] for k, name in enumerate(names)}


def _level_points(ring: ResidueRing, length: int):
    """(key, points, starts): the level rule's key at each lattice point's
    inverse, ring.inverses, the points sorted stably by it, and where each
    set's points start in that order (with the end last), so that a block
    of consecutive sets is one slice of points."""
    levels, key = _levels(ring.q, length, ring.inverses)
    starts = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=2 * levels + 2))))
    return key, np.argsort(key, kind="stable"), starts


def _phase_rows(ring: ResidueRing, interval: IntervalSet, sets, s: int, stop: int, width: int,
                slots=None) -> np.ndarray:
    """Row i holds, at each lattice point u whose inverse x = inverses[u]
    is in set s + i < stop of sets (_level_points'), the interval's phase
    sum at x, written at u, or at slots[u] (width = ring.phi or q): one
    slice of the sorted points and one phase-sum call a block."""
    key, points, starts = sets
    at = points[starts[s] : starts[stop]]
    rows = np.zeros((stop - s, width), dtype=np.complex128)
    values = interval_phase_sum(ring, interval, ring.inverses[at])
    rows[key[at] - s, at if slots is None else slots[at]] = values
    return rows


def dyadic_decomposition(ring: ResidueRing, m_len: int, n_len: int) -> DyadicDecomposition:
    """Split the centered unit representatives into the sign/level annuli for
    window lengths m_len (M side) and n_len (N side)."""
    if m_len < 1 or n_len < 1:
        raise ValueError("window lengths must be >= 1")
    levels_m, q_sets = _sign_sets(ring, m_len)
    levels_n, r_sets = _sign_sets(ring, n_len)
    return DyadicDecomposition(levels_m, levels_n, q_sets, r_sets)


def _check_trace_work(q: int, m_len: int) -> None:
    """Refuse, with a ValueError, a trace at modulus q whose (48 + 4*levels)*q
    words, levels the M side's dyadic level count for window length m_len,
    exceed the work budget: 2 complex T maps (phi wide) per M-side level,
    412-604 B per residue at q ~ 10^6.  The trace's one price, which
    proof_trace takes, and the CLI before it builds the instance."""
    check_work((48 + 4 * _level_count(m_len)) * q, "(48 + 4*levels)*q trace words")


def _moment_check(value: float, reference: float) -> MomentCheck:
    return MomentCheck(value=value, reference=reference, ratio=_ratio(value, reference))


def proof_trace(instance: TrilinearInstance, r: int) -> ProofTrace:
    """Trace the dyadic split of the fast form cell by cell.

    Per (i, sign): the collision sums T(lam) = sum over l in L and x in the
    level set with l*inv(x) = lam of alpha_l mu_x, their first and second
    moments against q*L and q*L^2 + e^-i q*L*M.  Per (j, sign): the 2r-th
    moment of U(lam) = sum_y nu_y e_q(lam*inv(y)) against
    e^(-2rj) q N^(2r) J_r(q; min(q, floor(e^j q/N))), with U_{j,-} read as
    conj U_{j,+}.  Per cell: the value sum_lam T*U and its three-factor
    Hoelder bound.  The cell values sum back to the full form exactly.

    The maps are computed a family at a time, max(1, _FFT_BLOCK // q) rows
    of length up to q a block.  The J_r references are one counts call whose
    rows are the inverse indicators of the distinct K.  The T maps are
    kernel calls on alpha and a block of rows, row i the mu of level set i
    (one phase-sum call a block), so alpha is transformed once a block, and
    a block's lattice rows are the T stack's, one (level sets x phi) array
    in lattice order: T vanishes off the units.  The U maps are one
    cyclic_dft a block of N-side levels, whose columns of cells are one
    product of the T stack with the block read at ring.units, which walks
    the units in that order.  At
    sweep-sized q (below ~3,000 with M, N ~ sqrt(q)) each family is one
    call; from q ~ 16,000 a block is one row, and the trace holds what a
    level-by-level trace held.

    The references J_r are counted before the T maps, largest K first (the
    kernel tallies its rows first, in order), so that a J_r over the work
    budget refuses the trace up front.  J_r's FFT is certified entry by
    entry (ring._certified), whatever its total units^r, so at every r only
    the trace's own price limits q (~3.3*10^6).
    """
    if r not in (1, 2, 3):
        raise ValueError(f"r unsupported: trace needs r in {{1, 2, 3}}, got {r}")
    ring, q = instance.ring, instance.ring.q
    l_len, m_len, n_len = (
        iv.length for iv in (instance.weights.interval, instance.m_interval, instance.n_interval)
    )
    if m_len > q or n_len > q:
        raise ValueError("trace needs M, N <= q")
    _check_trace_work(q, m_len)

    # J_r(q; K) at K = min(q, floor(e^j q/N)), which is >= 1 as N <= q, for
    # every N-side level j, in one counts call, largest K first: a J_r over
    # the budget refuses the trace before any T map is built.  The counts
    # read the ring's walk, units and inverses, before the level sets are
    # held
    ks = [min(q, math.floor(math.exp(j) * q / n_len)) for j in range(_level_count(n_len) + 1)]
    j_r = _reciprocal_counts(ring, r, ks)[0]
    dec = dyadic_decomposition(ring, m_len, n_len)
    # T(lam) is a convolution on the unit group: alpha at the point of l, mu
    # at the point u of inv(x), x = inverses[u]; the weights vanish off
    # units.  A kernel call convolves alpha with a block of rows, row i the
    # mu of level set i, its points one slice of the points sorted by set
    alpha_lat = _to_lattice(ring, instance.weights.interval, instance.weights.weights)
    # T vanishes off the units, so the T maps are the rows of one array read
    # at the units, and a block of U maps' columns of cells is one matrix
    # product with the block read there: values[row of T, column of U]
    t_stack = np.empty((len(dec.q_sets), ring.phi), dtype=np.complex128)
    step = max(1, _FFT_BLOCK // q)  # level sets a block
    sets = _level_points(ring, m_len)
    for s in range(0, len(t_stack), step):
        rows = _phase_rows(ring, instance.m_interval, sets, s, min(s + step, len(t_stack)), ring.phi)
        rows = _lattice_convolution((alpha_lat, rows.reshape((-1,) + ring.shape)), ring.shape)[0]
        t_stack[s : s + step] = rows.reshape(len(rows), -1)  # in lattice order, as ring.units
    del rows  # the last block's, which the U maps need not hold
    first_moments, second_moments = {}, {}
    for (i, sign), t_map in zip(dec.q_sets, t_stack):
        abs_t = np.abs(t_map)
        first_moments[(i, sign)] = _moment_check(float(abs_t.sum()), q * l_len)
        second_moments[(i, sign)] = _moment_check(
            float((abs_t**2).sum()), q * l_len**2 + math.exp(-i) * q * l_len * m_len
        )

    # one U map per N-side level: (j, -1) is -(j, +1) and nu(-y) = conj nu(y), so
    # U_{j,-} = conj U_{j,+}, with the same moment; at q = 2 the (j, -1) set is
    # empty and its column and moment stay 0.  A block of levels is one
    # cyclic_dft of their rows g, nu(y) at the residue inv(y) = units[u] for
    # the points u of the positive set j (the first in key order), dropped
    # once its moments and columns of cells are in.
    levels = dec.levels_n + 1
    y_moments = dict.fromkeys(dec.r_sets)  # the value matrix's columns, in order
    values = np.zeros((len(t_stack), len(y_moments)), dtype=np.complex128)
    if n_len != m_len:  # equal lengths share their level sets
        sets = _level_points(ring, n_len)
    mirrored = np.array([dec.r_sets[(j, -1)].size > 0 for j in range(levels)])
    for s in range(0, levels, step):
        u_maps = cyclic_dft(ring, _phase_rows(
            ring, instance.n_interval, sets, s, min(s + step, levels), q, ring.units))
        plus, minus = slice(s, s + len(u_maps)), slice(levels + s, levels + s + len(u_maps))
        for j, u_map in zip(range(s, levels), u_maps):
            reference = math.exp(-2 * r * j) * q * float(n_len) ** (2 * r) * j_r[ks[j]]
            y_moments[(j, 1)] = _moment_check(float(np.sum(np.abs(u_map) ** (2 * r))), reference)
            y_moments[(j, -1)] = y_moments[(j, 1)] if mirrored[j] else _moment_check(0.0, reference)
        u_maps = u_maps[:, ring.units]
        values[:, plus] = t_stack @ u_maps.T
        values[:, minus] = (t_stack @ np.conj(u_maps, out=u_maps).T) * mirrored[plus]
        del u_maps

    # the Hoelder bounds s1^(1-1/r) s2^(1/2r) y^(1/2r): rows times columns
    moments = (first_moments, second_moments, y_moments)
    s1, s2, y = (np.array([check.value for check in d.values()]) for d in moments)
    bounds = np.outer(s1 ** (1 - 1 / r) * s2 ** (1 / (2 * r)), y ** (1 / (2 * r)))
    cells = [
        TraceCell(i, sign_x, j, sign_y, value, bound, _ratio(abs(value), bound))
        for (i, sign_x), value_row, bound_row in zip(dec.q_sets, values.tolist(), bounds.tolist())
        for (j, sign_y), value, bound in zip(y_moments, value_row, bound_row)
    ]
    return ProofTrace(
        r=r, total=complex(values.sum()), fast_value=trilinear_fast(instance), decomposition=dec,
        first_moments=first_moments, second_moments=second_moments, y_moments=y_moments,
        cells=cells,
    )


def theorem1_bounds(instance: TrilinearInstance) -> BoundReport:
    """|S_q| (fast path) against the two fixed-modulus envelopes, their
    minimum, and the trivial bound L*M*N*q; every ratio is reported."""
    t0 = time.perf_counter()
    q = instance.ring.q
    L, M, N = (iv.length for iv in (instance.weights.interval, instance.m_interval, instance.n_interval))
    measured = abs(trilinear_fast(instance))
    b1 = (L + math.sqrt(L * M)) * math.sqrt(N) * q**1.5
    b2 = (L + L**0.75 * M**0.25) * (N**0.125 * q**1.75 + math.sqrt(N) * q**1.5)
    trivial = float(L * M * N * q)
    params = {
        "q": q,
        "l_start": instance.weights.interval.start,
        "L": L,
        "m_start": instance.m_interval.start,
        "M": M,
        "n_start": instance.n_interval.start,
        "N": N,
        "bound_b1": b1,
        "bound_b2": b2,
        "bound_trivial": trivial,
        "ratio_b1": measured / b1,
        "ratio_b2": measured / b2,
        "ratio_trivial": measured / trivial,
    }
    return make_report(params=params, measured=measured, reference=min(b1, b2), t0=t0)

