"""Weighted trilinear forms over double Kloosterman sums.

The form S_q(alpha; L, M, N) = sum_l alpha_l sum_m sum_n K_q(l, m, n) is
evaluated two ways: a brute-force oracle over double sums, and a fast path
through the window W_l = sum_m sum_n K_q(l, m, n), which over the units l is
W(l) = sum_{u*v*w = l} mu(u) nu(v) e_q(w), with mu/nu the interval phase sums
of the M and N windows: a three-way convolution on the unit group (Rader's
reindexing of e_q).  The three operands are conjugate-symmetric, so their
cas (Hartley) forms Re f + Im f are real, and the package's one lattice
kernel, ring._lattice_convolution, convolves all three in one call over the
ring's CRT lattice (ring.shape, indexed by ring.log_index), read only at l
and -l for the units l of L: one real transform of each operand, their
product and one inverse, in O(phi log phi).  On a cyclic unit group the window itself may instead
have the kernel convolve mu with nu alone and dot that against e_q at the
reads, where _dots_price says the dots undercut the transform of e_q; the
kernel knows nothing of the reads.  The window is built once per instance
and held on its ring, one slot keyed by the three intervals, so it lives as
long as the ring and no longer.
The proof trace's collision sums T_i(lam) = sum alpha_l mu_x [l * inv(x)
= lam] take the same kernel, one call per block of level sets, each set's
mu a row, so alpha is transformed once a block; T vanishes off the units,
so its rows are read at the units alone.  An instance's weights are
validated on construction (|alpha_l| <= 1, and 0 at every non-unit l), so
the form reads the unit window alone; window_sums still serves a non-unit
l, with one O(phi) gather.  That gather is kloosterman's, the one
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

from .counts import _reciprocal_counts
from .kloosterman import _unit_dft, _unit_gather, double_naive
from .reports import BoundReport, make_report
from .ring import (
    _FFT_BLOCK,
    IntervalSet,
    ResidueRing,
    _fft_plan,
    _lattice_convolution,
    _reduce,
    _to_lattice,
    check_work,
    cyclic_dft,
    eq_eval,
    interval_phase_sum,
)

WEIGHT_MODES = ("ones", "rademacher", "phase", "extremal")

# _dots_price, in the unit of ring._PAIR_COST (one transform is a third of
# it, ~1.6 ns per point times log2 of the points): one element of a read's
# two dots costs _DOT_COST (0.73 ns at n/2 = 5*10^4), about twice that past
# n/2 = _DOT_CACHE, where a read's ~24 B per n/2 element outgrow a 4 MiB L2
# (1.25-1.72 ns at n/2 = 1.5*10^5 to 5*10^5); each distinct read costs as
# much as _DOT_CALL more elements (~4 us).  A call's fixed work, the folded
# operands (11-14 ns per n/2 element) and the reads reduced mod n/2, costs
# as much as _DOT_FOLD reads: 30 routes the window best over 55 cases at 52
# primes from 2003 to 10^6+3, timed both ways.  Fitted with OpenBLAS on one
# thread (OPENBLAS_NUM_THREADS=1, which perfbench/run.py pins), 2-vCPU Xeon
# host.  The CLI, the tests and library callers run at numpy's default
# thread count, where the q = 100,003 window (L = 316) stalled ~1 s in its
# dots in 6 of 67 fresh processes (see ROADMAP.md).
_DOT_COST = 0.15
_DOT_CALL = 5500
_DOT_CACHE = 1 << 17
_DOT_FOLD = 30


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
    eta = interval_phase_sum(ring, m_interval, ring.inv_table[ring.units])
    return _unit_gather(ring, eta, f, ls)


def _dots_price(heads, shape: tuple[int, ...], at: np.ndarray) -> float:
    """What reading the convolution of the k - 1 >= 2 operands `heads` and
    one more, distinct, operand at the indices `at` by _dots_at costs, on a
    one-axis lattice Z_n of even order, less what it saves, in the unit of
    ring._PAIR_COST: negative where the dots undercut the chained FFT of
    all k.  The dots cost, per distinct index mod half = n/2, its dots'
    elements (twice past _DOT_CACHE) and _DOT_CALL, and the call's fixed
    work as _DOT_FOLD reads, at _DOT_COST an element.  They save the
    chain's transforms less those of the heads' chain, a third of
    points*log2(points) a transform: one per distinct operand and the
    inverse."""
    half = shape[0] // 2
    # return_inverse: a bare unique imports numpy.ma
    reads = np.unique(_reduce(at.copy(), half), return_inverse=True)[0].size
    dots = reads * (half * (1 + (half > _DOT_CACHE)) + _DOT_CALL) + _DOT_FOLD * (half + _DOT_CALL)
    distinct = len({id(x) for x in heads})
    chain = (distinct + 2) * _fft_plan(shape, len(heads) + 1)[2] / 3
    return dots * _DOT_COST - chain + (distinct + 1) * _fft_plan(shape, len(heads))[2] / 3


def _dots_at(a: np.ndarray, b: np.ndarray, at: np.ndarray) -> np.ndarray:
    """c(k) = sum_j a(j) b(k - j) over Z_n, n even, at the indices `at`.
    With h = n/2, c(k) + c(k+h) and c(k) - c(k+h) are the dots over j < h of
    a(j) +- a(j+h) with the h-periodic and h-antiperiodic b(x) +- b(x+h),
    each one contiguous slice of a doubled, reversed copy of the latter."""
    h = a.size // 2
    k, slot = np.unique(_reduce(at.copy(), h), return_inverse=True)
    sums = []
    for sign in (1, -1):
        af, bf = a[:h] + sign * a[h:], (b[:h] + sign * b[h:])[::-1]
        tiled = np.concatenate((bf, sign * bf))
        sums.append(np.array([af @ tiled[s : s + h] for s in (h - 1 - k).tolist()])[slot])
    plus, minus = sums
    return (plus + np.where(at < h, minus, -minus)) / 2


def _unit_window(
    ring: ResidueRing,
    l_interval: IntervalSet,
    m_interval: IntervalSet,
    n_interval: IntervalSet,
) -> np.ndarray:
    """Read-only array aligned with l_interval.members(): W_l = sum_{m in M}
    sum_{n in N} K_q(l, m, n) at every unit l, 0 at the rest.

    With u = inv(x), v = inv(y) in _window_gather's sum, W(l) is
    sum_{u*v*w = l} mu(u) nu(v) e_q(w), and reads no inverse.  The cas forms
    Re f + Im f of the three operands (each has f(-u) = conj f(u)) convolve
    to a real r, and W(l) = (r(l) + r(-l))/2 + i (r(-l) - r(l))/2: a
    character with chi(-1) = 1 sees f's transform, one with chi(-1) = -1
    i times it.  The operands are evaluated at the units below q/2, ascending
    (where numpy's sin runs fastest), and mirrored onto the rest as Re - Im;
    mu is evaluated once when M = N, and e_q and the phase factors are read
    off _turns' two tables, not computed by cos, sin or exp.  r = cas mu * cas nu * cas e_q is one
    kernel call read only at l and -l for the units l of L: with equal M and
    N intervals mu is one operand given twice, so the chain takes 3
    transforms, else 4.  The window, not the kernel, picks the route: on a
    one-axis lattice of even order (a cyclic unit group) where _dots_price
    is at most 0, the kernel convolves cas mu with cas nu alone and
    _dots_at reads that against cas e_q at l and -l; cas e_q is then built
    after that convolution, not held through it.  The window is held in
    the ring's __dict__, as functools.cached_property holds inv_table, one
    slot keyed by (L, M, N): every caller on one instance reads one window,
    and it is freed with its ring.
    """
    key = (l_interval, m_interval, n_interval)
    held = ring.__dict__.get("_unit_window")
    if held is not None and held[0] == key:
        return held[1]
    log_index = ring.log_index  # built before any operand is evaluated
    q, units = ring.q, ring.units
    low = units[2 * units <= q]

    def cas(f):
        lattice = np.empty(ring.phi)  # every unit's slot is written
        lattice[log_index[low]] = f.real + f.imag  # the slots of u
        lattice[log_index[q - low]] = f.real - f.imag  # and of -u
        return lattice.reshape(ring.shape)

    mu = cas(interval_phase_sum(ring, m_interval, low))
    heads = (mu, mu if n_interval == m_interval else cas(interval_phase_sum(ring, n_interval, low)))
    del mu
    residues = l_interval.residues(q)
    on_units = ring.unit_mask[residues]
    ls = residues[on_units]
    at = log_index[np.concatenate((ls, q - ls))]
    shape = ring.shape
    if len(shape) == 1 and shape[0] % 2 == 0 and _dots_price(heads, shape, at) <= 0:
        r = _lattice_convolution(heads, shape)[0]
        del heads  # cas e_q is built once mu * nu is in, not held through it
        r = _dots_at(r, cas(eq_eval(ring, low)), at)
    else:
        r = _lattice_convolution(heads + (cas(eq_eval(ring, low)),), shape)[0].reshape(-1)[at]
    window = np.zeros(residues.size, dtype=np.complex128)
    window[on_units] = (0.5 - 0.5j) * r[: ls.size] + (0.5 + 0.5j) * r[ls.size :]
    window.flags.writeable = False
    ring.__dict__["_unit_window"] = (key, window)
    return window


def window_sums(
    ring: ResidueRing,
    l_interval: IntervalSet,
    m_interval: IntervalSet,
    n_interval: IntervalSet,
) -> np.ndarray:
    """W_l = sum_{m in M} sum_{n in N} K_q(l, m, n) for every l in L.

    Each non-unit l costs one O(phi) gather, run (and priced) first, so
    that an over-priced L is refused before the unit window's lattice
    FFT; the units l read the instance's unit-group window.
    """
    residues = l_interval.residues(ring.q)
    off_units = ~ring.unit_mask[residues]
    ls = residues[off_units]
    gathered = _window_gather(ring, ls, m_interval, n_interval) if ls.size else 0
    out = _unit_window(ring, l_interval, m_interval, n_interval).copy()
    out[off_units] = gathered
    return out


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


def trilinear_naive(instance: TrilinearInstance) -> complex:
    """Oracle evaluation straight from the definition, one double sum per
    (l, m, n); O(L*M*N*phi^2)."""
    ring = instance.ring
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


def _sign_sets(ring: ResidueRing, length: int) -> tuple[int, dict]:
    q = ring.q
    levels = _level_count(length)
    bounds = np.minimum(np.exp(np.arange(levels + 1)) * q / length, q / 2)
    bounds[levels] = q / 2  # e^levels >= length/2 guarantees the cap
    pos = ring.units[2 * ring.units <= q]
    neg = ring.units[2 * ring.units > q] - q
    sets = {}
    for sign, reps in ((1, pos), (-1, neg)):
        idx = np.searchsorted(bounds, np.abs(reps), side="left")
        for i in range(levels + 1):
            sets[(i, sign)] = reps[idx == i]
    return levels, sets


def _phase_rows(ring: ResidueRing, sets: list, interval: IntervalSet, lattice: bool = False):
    """Row i holds, at each member x of sets[i] (reduced mod q), the
    interval's phase sum at x, written at inv(x), or with `lattice` at the
    lattice point of inv(x) (every member a unit): one phase-sum call."""
    xs = _reduce(np.concatenate(sets), ring.q)
    slots = ring.inv_table[xs]
    rows = np.zeros((len(sets), ring.phi if lattice else ring.q), dtype=np.complex128)
    at = np.repeat(np.arange(len(sets)), [x.size for x in sets])
    rows[at, ring.log_index[slots] if lattice else slots] = interval_phase_sum(ring, interval, xs)
    return rows.reshape((len(sets),) + ring.shape) if lattice else rows


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
    ratio = value / reference if reference > 0 else None
    return MomentCheck(value=value, reference=reference, ratio=ratio)


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
    a block's lattice rows are read at the units' lattice points into the T
    stack, one (level sets x phi) array: T vanishes off the units.  The U
    maps are one cyclic_dft a block of N-side levels, whose columns of cells
    are one product of the T stack with the block read at the units.  At
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
    # the budget refuses the trace before any T map is built.  Its inverses
    # build the ring's unit-group index before the level sets are held
    ks = [min(q, math.floor(math.exp(j) * q / n_len)) for j in range(_level_count(n_len) + 1)]
    j_r = _reciprocal_counts(ring, r, ks)[0]
    dec = dyadic_decomposition(ring, m_len, n_len)
    # T(lam) is a convolution on the unit group: alpha at log l, mu at
    # log inv(x); the weights vanish off units.  A kernel call convolves
    # alpha with a block of rows, row i the mu of level set i
    alpha_lat = _to_lattice(ring, instance.weights.interval, instance.weights.weights)
    # T vanishes off the units, so the T maps are the rows of one array read
    # at the units, and a block of U maps' columns of cells is one matrix
    # product with the block read there: values[row of T, column of U]
    t_stack = np.empty((len(dec.q_sets), ring.phi), dtype=np.complex128)
    step = max(1, _FFT_BLOCK // q)  # level sets a block
    for s in range(0, len(t_stack), step):
        rows = _phase_rows(ring, list(dec.q_sets.values())[s : s + step], instance.m_interval, True)
        rows = _lattice_convolution((alpha_lat, rows), ring.shape)[0]  # mu rows to T rows
        t_stack[s : s + step] = rows.reshape(len(rows), -1)[:, ring.log_index[ring.units]]
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
    # cyclic_dft of their rows g, dropped once its moments and columns of cells
    # are in.
    levels = dec.levels_n + 1
    y_moments = dict.fromkeys(dec.r_sets)  # the value matrix's columns, in order
    values = np.zeros((len(t_stack), len(y_moments)), dtype=np.complex128)
    sets = [dec.r_sets[(j, 1)] for j in range(levels)]  # positive: residues already
    mirrored = np.array([dec.r_sets[(j, -1)].size > 0 for j in range(levels)])
    for s in range(0, levels, step):
        u_maps = cyclic_dft(ring, _phase_rows(ring, sets[s : s + step], instance.n_interval))
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
        TraceCell(i, sign_x, j, sign_y, value, bound, abs(value) / bound if bound > 0 else None)
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

