"""Property tests: the vectorized kernels against per-element oracles over
randomly drawn moduli and windows."""

import itertools
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kforms.counts
import kforms.ring
from kforms import (
    IntervalSet,
    TrilinearInstance,
    build_characters,
    build_ring,
    cyclic_dft,
    factorize,
    interval_character_sums,
    interval_phase_sum,
    is_prime,
    make_weights,
    multiplicative_energy,
    proof_trace,
    reciprocal_count_mod,
    reciprocal_count_naive,
    reciprocal_count_rational,
    trilinear_fast,
)
from kforms.ring import _power_blocks
from kforms.counts import (
    _product_counts, _product_energy, _sum_of_squares, _unit_count, _unit_members,
)
from kforms.ring import _PAIR_COST, _fft_plan, _lattice_convolution, _to_lattice
from kforms.trilinear import _unit_window, _window_gather

ODD_PRIMES = [p for p in range(3, 2000) if is_prime(p)]

# primes, odd prime powers, 2, 4, 2^e with e >= 3, and mixed products
MODULI = st.one_of(
    st.sampled_from(ODD_PRIMES),
    st.sampled_from([p**e for p in ODD_PRIMES[:8] for e in range(2, 7) if p**e <= 2000]),
    st.integers(1, 11).map(lambda e: 2**e),
    st.integers(6, 2000).filter(lambda q: len(factorize(q)) >= 2),
)

# the same families, q <= 400, for the exact counts and their tally oracles
COUNT_MODULI = st.one_of(
    st.sampled_from([p for p in ODD_PRIMES if p <= 400]),
    st.sampled_from([9, 25, 27, 49, 81, 121, 125, 169, 243, 289, 343, 361]),
    st.integers(1, 8).map(lambda e: 2**e),
    st.integers(6, 400).filter(lambda q: len(factorize(q)) >= 2),
)

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def windows(draw, q):
    start = draw(st.integers(-q, q))
    return IntervalSet(start, draw(st.integers(1, q)))


@SETTINGS
@given(data=st.data())
def test_unit_window_matches_gather_on_every_unit(data):
    q = data.draw(MODULI, label="q")
    m_iv = data.draw(windows(q), label="M")
    n_iv = data.draw(windows(q), label="N")
    l_iv = IntervalSet(data.draw(st.integers(-q, q), label="L start"), q)  # every residue
    ring = build_ring(q)
    window = _unit_window(ring, l_iv, m_iv, n_iv)
    members = l_iv.members()
    units = ring.unit_mask[members % q]
    gathered = _window_gather(ring, members[units], m_iv, n_iv)
    tol = 1e-9 * m_iv.length * n_iv.length * ring.phi
    assert np.max(np.abs(window[units] - gathered)) <= tol
    assert np.all(window[~units] == 0)
    assert not window.flags.writeable


@st.composite
def trace_instances(draw):
    q = draw(MODULI, label="q")
    ring = build_ring(q)
    l_iv = IntervalSet(draw(st.integers(-q, q)), draw(st.integers(1, 12)))
    m_iv, n_iv = (IntervalSet(draw(st.integers(-q, q)), draw(st.integers(1, min(q, 12))))
                  for _ in range(2))
    weights = make_weights(ring, l_iv, "phase", seed=draw(st.integers(0, 2**32 - 1)))
    return TrilinearInstance(ring, weights, m_iv, n_iv)


@SETTINGS
@given(instance=trace_instances(), r=st.sampled_from([1, 2, 3]))
def test_trace_cells_sum_to_the_fast_value(instance, r):
    trace = proof_trace(instance, r)
    scale = instance.weights.interval.length * instance.m_interval.length
    scale *= instance.n_interval.length * instance.ring.q
    assert abs(sum(cell.value for cell in trace.cells) - trilinear_fast(instance)) <= 1e-9 * scale
    assert trace.fast_value == trilinear_fast(instance)


@SETTINGS
@given(instance=trace_instances())
def test_collision_sums_match_pair_tally(instance):
    ring, q = instance.ring, instance.ring.q
    # mu_x and nu_y by direct summation, T(lam) tallied pair by pair over
    # (l, x), and U(lam) = sum_y nu_y e_q(lam*inv(y)) summed directly over
    # each N-side level set; the trace keeps each T's moments and cells
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    mu, nu = (roots[iv.members()[:, None] % q * np.arange(q) % q].sum(axis=0)
              for iv in (instance.m_interval, instance.n_interval))
    ls = instance.weights.interval.members().tolist()
    trace = proof_trace(instance, 1)
    cells = {(c.i, c.sign_x, c.j, c.sign_y): c.value for c in trace.cells}
    u_maps = {key: nu[ys % q] @ roots[ring.inv_table[ys % q][:, None] * np.arange(q) % q]
              for key, ys in trace.decomposition.r_sets.items()}
    t_scale = len(ls) * instance.m_interval.length  # |T| <= L*M
    tol = 1e-9 * t_scale  # on each T(lam)
    for key, xs in trace.decomposition.q_sets.items():
        tally = np.zeros(q, dtype=np.complex128)
        for l, alpha in zip(ls, instance.weights.weights):
            if alpha != 0:
                for x in xs.tolist():
                    tally[l * pow(x, -1, q) % q] += alpha * mu[x % q]
        abs_t = np.abs(tally)
        assert abs(trace.first_moments[key].value - abs_t.sum()) <= tol * q
        assert abs(trace.second_moments[key].value - (abs_t**2).sum()) <= 2 * tol * t_scale * q
        for y_key, u_map in u_maps.items():
            u_scale = instance.n_interval.length * trace.decomposition.r_sets[y_key].size
            assert abs(cells[key + y_key] - tally @ u_map) <= tol * q * u_scale  # |U| <= N*|set|


@SETTINGS
@given(q=MODULI)
def test_log_index_inverts_powers(q):
    ring = build_ring(q)
    table = build_characters(ring)
    for factor in table.factors:
        m, g, order = factor.modulus, factor.generator, factor.order
        oracle = [pow(g, k, m) for k in range(order)]
        blocks = list(_power_blocks(g, order, m))
        assert [k for k, _ in blocks] == list(np.cumsum([0] + [b.size for _, b in blocks])[:-1])
        assert np.concatenate([b for _, b in blocks]).tolist() == oracle
    assert np.all(table.log_index[[u for u in range(q) if math.gcd(u, q) > 1]] == -1)
    # each unit's digits, read off its flat index, rebuild it mod every prime
    # power from the generators of the factors sharing that modulus (the
    # 2-adic ones as (-1)^s * 5^t)
    for u in ring.units.tolist():
        digits = np.unravel_index(int(table.log_index[u]), table.shape)
        for p, e in factorize(q):
            pe = p**e
            rebuilt = 1
            for factor, t in zip(table.factors, digits):
                if factor.modulus == pe:
                    rebuilt = rebuilt * pow(factor.generator, int(t), pe) % pe
            assert rebuilt == u % pe


@SETTINGS
@given(q=st.one_of(MODULI, st.integers(2, 20000)))
def test_inverse_table_matches_pow(q):
    ring = build_ring(q)
    assert ring.inv_table.tolist() == [
        pow(u, -1, q) if math.gcd(u, q) == 1 else 0 for u in range(q)
    ]


@SETTINGS
@given(data=st.data())
def test_interval_character_sums_match_full_transform(data):
    q = data.draw(MODULI, label="q")
    interval = data.draw(windows(q), label="H")
    table = build_characters(build_ring(q))
    counts = _to_lattice(table, interval)
    full = np.fft.ifftn(counts).reshape(-1) * table.phi
    sums = interval_character_sums(table, interval)
    assert np.max(np.abs(sums - full)) <= 1e-12 * interval.length


@SETTINGS
@given(
    q=st.integers(2, 2000),
    start=st.integers(-10**18, 10**18),
    data=st.data(),
)
def test_interval_phase_sum_matches_direct_sum(q, start, data):
    length = data.draw(st.integers(1, q), label="length")
    xs = data.draw(st.lists(st.integers(-10**18, 10**18), min_size=1, max_size=16), label="x")
    # the direct sum, with every member reduced mod q in Python ints
    members = np.array([m % q for m in range(start + 1, start + length + 1)], dtype=np.int64)
    x = np.array(xs, dtype=np.int64)
    direct = np.exp(2j * np.pi * (members[:, None] * (x % q)[None, :] % q) / q).sum(axis=0)
    closed = interval_phase_sum(build_ring(q), IntervalSet(start, length), x)
    assert np.max(np.abs(closed - direct)) <= 1e-9 * q


@SETTINGS
@given(q=st.one_of(MODULI, st.integers(2, 5000)), seed=st.integers(0, 2**32 - 1))
def test_cyclic_dft_parseval(q, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-6, 7)
    f = scale * (rng.standard_normal(q) + 1j * rng.standard_normal(q))
    energy = np.sum(np.abs(f) ** 2)
    assert abs(np.sum(np.abs(cyclic_dft(build_ring(q), f)) ** 2) - q * energy) <= 1e-9 * q * energy


@SETTINGS
@given(
    shape=st.lists(st.sampled_from([1, 2, 3, 4, 6, 11, 13, 22, 37]), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 1.0),
    kind=st.sampled_from(["int", "large", "complex"]),
)
def test_exact_convolution_matches_shifted_sum(shape, seed, density, kind):
    shape = tuple(shape)
    rng = np.random.default_rng(seed)

    def draw():
        support = rng.random(shape) < density
        if kind == "int":
            return rng.integers(0, 4, shape) * support
        if kind == "large":  # each sum in (2^27, 2^31 + 2^16]: a total past 2^52, below 2^63
            support.flat[rng.integers(support.size)] = True
            top = 2 * int(rng.integers(2**27, 2**30)) // np.count_nonzero(support) + 2
            return rng.integers(top // 2, top, shape) * support
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * support

    a, b = draw(), draw()
    oracle = np.zeros(shape, dtype=np.result_type(a, b))
    for j in zip(*np.nonzero(a)):
        oracle += a[j] * np.roll(b, j, axis=tuple(range(len(shape))))
    got, residual = _lattice_convolution((a, b), shape)
    # a self-convolution transforms a once, with the same bits as two copies
    square, square_residual = _lattice_convolution((a, a), shape)
    assert np.array_equal(square, _lattice_convolution((a, a.copy()), shape)[0])
    assert square_residual == _lattice_convolution((a, a.copy()), shape)[1]
    if kind == "large":
        assert 2**52 < a.sum() * b.sum() < 2**63
    if kind != "complex":  # exact, whether the FFT or the tally ran
        assert got.dtype == np.int64 and np.array_equal(got, oracle)
        assert residual is None or residual < 0.25
    else:
        scale = np.abs(a).sum() * np.abs(b).max(initial=0)
        assert residual is None and got.shape == shape
        assert np.max(np.abs(got - oracle)) <= 1e-12 * (1 + scale)


@SETTINGS
@given(q=COUNT_MODULI, r=st.sampled_from([1, 2, 3]), data=st.data())
def test_reciprocal_count_matches_naive(q, r, data):
    K = data.draw(st.integers(1, min(q, (400, 150, 25)[r - 1])), label="K")
    ring = build_ring(q)
    assert reciprocal_count_mod(ring, r, K).value == reciprocal_count_naive(ring, r, K)


def _dense_energy(q, a_interval, b_interval):
    # every unit product a*b mod q, tallied densely
    a = [x % q for x in a_interval.members().tolist() if math.gcd(x, q) == 1]
    b = [x % q for x in b_interval.members().tolist() if math.gcd(x, q) == 1]
    counts = Counter((x * y) % q for x in a for y in b)
    return sum(c * c for c in counts.values())


@SETTINGS
@given(q=COUNT_MODULI, data=st.data())
def test_lattice_energy_matches_dense_tally(q, data):
    # lengths up to 2q, so that residues repeat and the lattice counts exceed 1
    a_iv, b_iv = (
        IntervalSet(data.draw(st.integers(-q, q)), data.draw(st.integers(1, 2 * q)))
        for _ in range(2)
    )
    assert multiplicative_energy(build_ring(q), a_iv, b_iv).value == _dense_energy(q, a_iv, b_iv)


def _tally_cases(q):
    # starts down to -3q and lengths up to 3q
    interval = st.builds(IntervalSet, st.integers(-3 * q, q), st.integers(1, 3 * q))
    return st.tuples(st.just(q), interval, interval)


@SETTINGS
@given(case=st.one_of(
    COUNT_MODULI, st.sampled_from([210, 2310, 30030, 512, 1024, 3**6, 7**3])
).flatmap(_tally_cases))
@example(case=(30030, IntervalSet(0, 82441), IntervalSet(0, 82429)))  # 250,003,532 unit pairs
def test_residue_tally_matches_lattice_fft(case):
    # members repeat residues and non-units fall in; the short intervals key
    # distinct products, the long ones q bins.  Unit pairs over the work
    # budget are refused by the tally, and the energy takes the lattice
    q, a_iv, b_iv = case
    primes = factorize(q)
    ra, rb = (_unit_members(iv, q, primes) for iv in (a_iv, b_iv))
    assert (ra.size, rb.size) == (_unit_count(a_iv, q, primes), _unit_count(b_iv, q, primes))
    table = build_characters(build_ring(q))
    assert math.prod(table.shape) == table.units.size
    a, b = (_to_lattice(table, iv) for iv in (a_iv, b_iv))
    c = np.rint(np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(b)).real).astype(np.int64)
    reference = int(np.sum(c * c))
    if ra.size * rb.size > kforms.ring.DEFAULT_WORK_BUDGET:
        with pytest.raises(ValueError, match="product pairs"):
            _product_counts(ra, rb, q)
    else:
        assert _sum_of_squares(_product_counts(ra, rb, q)) == reference
    assert _product_energy(table, a_iv, b_iv)[0] == reference


@SETTINGS
@given(
    q=st.one_of(COUNT_MODULI, st.sampled_from([210, 2310, 512, 1024, 3**6, 7**3])),
    same=st.booleans(),
    cost=st.sampled_from([0, 1, 4, math.inf]),
    data=st.data(),
)
def test_progression_tally_matches_keyed_and_dense_tally(q, same, cost, data):
    # starts down to -3q and lengths up to 150 (past q for q < 150): intervals
    # cross multiples of q, non-units fall in, and rows above q/2 walk down;
    # a slice price of 0 walks every row, inf none
    a_iv, b_iv = (
        IntervalSet(data.draw(st.integers(-3 * q, q)), data.draw(st.integers(1, 150)))
        for _ in range(2)
    )
    b_iv = a_iv if same else b_iv
    primes = factorize(q)
    ra = _unit_members(a_iv, q, primes)
    rb = ra if same else _unit_members(b_iv, q, primes)
    keyed = _product_counts(ra, rb.copy(), q)  # not rb is ra: every ordered pair keyed
    with mock.patch.object(kforms.counts, "_SEGMENT_COST", cost):
        walked = _product_counts(ra, rb, q, b_iv, primes)
    if q <= 8 * ra.size * rb.size:  # the q bins, where the progressions run
        assert walked.dtype == np.int32 and np.array_equal(walked, keyed)
    assert _sum_of_squares(walked) == _dense_energy(q, a_iv, b_iv)


@SETTINGS
@given(
    q=st.one_of(COUNT_MODULI, st.sampled_from([210, 2310, 30030, 512, 1024, 3**6, 7**3])),
    data=st.data(),
)
def test_intervals_longer_than_q_take_the_lattice_fft(q, data):
    # an interval longer than q holds every unit, and phi^2 pairs outprice
    # the padded lattice FFT at every q, so two such intervals, or one with
    # itself, never reach the member tally
    a_iv, b_iv = (
        IntervalSet(data.draw(st.integers(-3 * q, q)), data.draw(st.integers(q + 1, 3 * q)))
        for _ in range(2)
    )
    ring = build_ring(q)
    for pair in ((a_iv, a_iv), (a_iv, b_iv)):
        assert _product_energy(ring, *pair)[1] is not None


@SETTINGS
@given(q=COUNT_MODULI, same=st.booleans(), data=st.data())
def test_energy_route_follows_the_member_pair_price(q, same, data):
    # starts down to -3q and lengths up to 3q: the energy is tallied, with no
    # residual and no table of the ring read, exactly when _PAIR_COST per
    # pair of unit members undercuts the padded lattice FFT.  The route is
    # read off the unit mask: past it the kernel may still tally a sparse lattice
    # (q = 257, IntervalSet(0, 1) against IntervalSet(0, 258)).
    a_iv, b_iv = (
        IntervalSet(data.draw(st.integers(-3 * q, q)), data.draw(st.integers(1, 3 * q)))
        for _ in range(2)
    )
    b_iv = a_iv if same else b_iv
    units = [sum(math.gcd(x, q) == 1 for x in iv.members().tolist()) for iv in (a_iv, b_iv)]
    ring = build_ring(q)
    residual = _product_energy(ring, a_iv, b_iv)[1]
    tallied = _PAIR_COST * units[0] * units[1] <= _fft_plan(ring.shape)[2]
    assert ("unit_mask" not in vars(ring)) == tallied
    if tallied:
        assert residual is None


@SETTINGS
@given(r=st.sampled_from([1, 2, 3]), data=st.data())
def test_rational_count_matches_fraction_tally(r, data):
    K = data.draw(st.integers(1, (60, 40, 12)[r - 1]), label="K")
    reciprocals = [Fraction(1, x) for x in range(1, K + 1)]
    tally = Counter(sum(c) for c in itertools.product(reciprocals, repeat=r))
    assert reciprocal_count_rational(r, K).value == sum(c * c for c in tally.values())
