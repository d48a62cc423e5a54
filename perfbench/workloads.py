"""Workloads of the kforms benchmark: the cases each seed generates, how one
case calls kforms, and the checks its output must pass.

A workload is a list of rounds, each a fixed mix of case types.  The
benchmark runs whole rounds, so every run of a workload has the same mix
whatever its length.  The seed chooses, for every case type, the order in
which its menu of moduli is used and the option each case takes (interval
offsets and lengths, K, H, Q), plus the Kloosterman triples and the oracle
subsample.  No modulus repeats within a round.  Menus are finite so that
every case a seed can generate has a value recorded from the reference
code in ``recorded.json`` (written by ``record.py``).

This module uses only the standard library; kforms is passed in as ``kf``.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

RECORDED_PATH = Path(__file__).with_name("recorded.json")

# Tolerances are the tier-1 ones for the same quantity.
TRILINEAR_RTOL = 1e-7  # |S - S'| <= 1e-7 * L*M*N*q
DOUBLE_RTOL = 1e-8  # |K - K'| <= 1e-8 * phi^2
MOMENT_RTOL = 1e-6  # fourth moment against its orthogonality twin
HOLDER_SLACK = 1e-9  # per-cell Hoelder ratio <= 1 + slack

THM1_OFFSETS = ((0, 0, 0), (17, -5, 1000))

PRIMES_3E3 = (2999, 3001, 3011, 3019, 3023, 3037, 3041, 3049)
PRIMES_3E4 = (30011, 30013, 30029, 30047, 30059, 30071, 30089, 30091)
PRIMES_1E5 = (100003, 100019, 100043, 100049, 100057, 100069, 100103, 100109)
PRIMES_1E6 = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121)
# Composites whose prime support is exactly {2,3,5} or {2,3,5,7}, closest to
# 1e5, 2e5 and 3e5 inside the same power-of-two octave, so that phi/q and
# the Bluestein length barely move with the seed's choice.
SMOOTH_1E5 = (96000, 97200, 100800, 101250, 102060, 102900, 103680, 105000)
SMOOTH_2E5 = (194400, 196830, 198450, 201600, 202500, 204120, 205800, 207360)
SMOOTH_3E5 = (291600, 294000, 300000, 302400, 303750, 306180, 307200, 308700)

SWEEP_SMALL_MODULI = tuple(range(2000, 3000))
SWEEP_SMALL_ROUND = 5  # the last case of every round also traces and queries
KLOOSTERMAN_QUERIES = 16


def euler_phi(n: int) -> int:
    # Input generation does not call kforms, so a change to kforms cannot
    # change the inputs.
    phi, d = n, 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            phi -= phi // d
        d += 1
    if n > 1:
        phi -= phi // n
    return phi


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


@dataclass(frozen=True)
class Thm1Case:
    """``kforms verify-thm1 --q q --weights extremal`` for one modulus.

    With ``kloosterman`` set, the case also runs ``kforms proof-trace`` with
    r=2 on the same instance and answers a batch of double Kloosterman sums
    K_q(l, m, n) that share one single-sum table: (n, ((l, m), ...)).
    """

    q: int
    starts: tuple[int, int, int]
    lengths: tuple[int, int, int]
    kloosterman: tuple | None = None

    @property
    def key(self) -> str:
        spans = " ".join(f"{s}:{n}" for s, n in zip(self.starts, self.lengths))
        return f"thm1 q={self.q} {spans}"

    def run(self, kf, out_path: str) -> dict:
        specs = [f"{s}:{n}" for s, n in zip(self.starts, self.lengths)]
        result = kf.verify_thm1_sweep(
            [self.q], *specs, mode="extremal", budget_ms=None
        )
        kf.emit_report(result, "csv", out_path)
        out = {"measured": result.reports[0].measured}
        if self.kloosterman is not None:
            ring = kf.build_ring(self.q)
            l_int, m_int, n_int = (kf.IntervalSet(s, n) for s, n in zip(self.starts, self.lengths))
            weights = kf.make_weights(
                ring, l_int, "extremal", m_interval=m_int, n_interval=n_int,
            )
            trace = kf.proof_trace(kf.TrilinearInstance(ring, weights, m_int, n_int), 2)
            n, queries = self.kloosterman
            table = kf.single_table(ring, n)
            out["ksums"] = [kf.double_fast(ring, l, m, n, table=table) for l, m in queries]
            ratios = [c.holder_ratio for c in trace.cells if c.holder_ratio is not None]
            out["trace"] = (trace.total, trace.fast_value, max(ratios, default=0.0))
        return out

    def recorded_value(self, out: dict) -> float:
        return out["measured"]

    def check(self, out: dict, want: float) -> str | None:
        tol = TRILINEAR_RTOL * math.prod(self.lengths) * self.q
        if not _close(out["measured"], want, tol):
            return f"measured {out['measured']!r}, recorded {want!r}"
        if "trace" in out:
            total, fast, holder = out["trace"]
            if not _close(total, fast, tol):
                return f"trace cells sum to {total!r}, fast form is {fast!r}"
            if not _close(abs(fast), out["measured"], tol):
                return f"trace fast form {abs(fast)!r} differs from the sweep's value"
            if holder > 1 + HOLDER_SLACK:
                return f"Hoelder ratio {holder!r} exceeds 1"
            trivial = euler_phi(self.q) ** 2 * (1 + 1e-9)
            if not all(abs(k) <= trivial for k in out["ksums"]):
                return "a double Kloosterman sum exceeds the trivial bound phi(q)^2"
        return None


@dataclass(frozen=True)
class LemmaCase:
    """``kforms verify-lemma --lemma X --grid G`` for a one-cell grid."""

    lemma: str
    grid: dict

    @property
    def key(self) -> str:
        return f"lemma {self.lemma} {json.dumps(self.grid, sort_keys=True, separators=(',', ':'))}"

    def run(self, kf, out_path: str) -> dict:
        result = kf.verify_lemma_sweeps(self.lemma, self.grid, budget_ms=None)
        kf.emit_report(result, "csv", out_path)
        report = result.reports[0]
        # Lemma 2.5 measures sum_total / Q; its exact count is the numerator.
        return {"measured": report.params.get("sum_total", report.measured)}

    def recorded_value(self, out: dict) -> float:
        return out["measured"]

    def check(self, out: dict, want: float) -> str | None:
        tol = MOMENT_RTOL * abs(want) if self.lemma == "2.1" else 0  # the rest are counts
        if not _close(out["measured"], want, tol):
            return f"measured {out['measured']!r}, recorded {want!r}"
        return None


@dataclass(frozen=True)
class CharMomentCase:
    """``kforms char-moment --q q --k k --H H``: the fourth moment of the
    character sums over an interval and its orthogonality twin."""

    q: int
    k: int
    H: int

    @property
    def key(self) -> str:
        return f"char-moment q={self.q} k={self.k} H={self.H}"

    def run(self, kf, out_path: str) -> dict:
        t0 = time.perf_counter()
        table = kf.build_characters(kf.build_ring(self.q))
        interval = kf.IntervalSet(self.k, self.H)
        moment = kf.fourth_moment(table, interval)
        _, twin = kf.moment_identity_check(table, interval)
        report = kf.reports.make_report(
            params={"q": self.q, "k": self.k, "H": self.H},
            measured=moment, reference=float(self.H**2), t0=t0,
        )
        kf.emit_report(kf.SweepResult(reports=[report]), "csv", out_path)
        return {"measured": moment, "twin": twin}

    def recorded_value(self, out: dict) -> float:
        return out["twin"]

    def check(self, out: dict, want: float) -> str | None:
        if out["twin"] != want:
            return f"twin count {out['twin']!r}, recorded {want!r}"
        if not _close(out["measured"], want, MOMENT_RTOL * want):
            return f"fourth moment {out['measured']!r} misses its twin {want!r}"
        return None


@dataclass(frozen=True)
class Menu:
    """The candidates of one case type and the options a seed picks among.

    ``make(candidate, option, rng, position)`` builds the case; with
    ``rng=None`` it builds the case's recorded-value twin (no extra
    queries), which has the same key.  Each round takes ``per_round``
    successive candidates of one seeded order, so no candidate repeats
    within a round.
    """

    candidates: Sequence
    options: Sequence
    make: Callable
    per_round: int = 1

    def draw(self, rng: random.Random, rounds: int) -> list[list]:
        order = rng.sample(list(self.candidates), len(self.candidates))
        cases = [self.make(order[k % len(order)], rng.choice(self.options), rng, k)
                 for k in range(rounds * self.per_round)]
        return [cases[i:i + self.per_round] for i in range(0, len(cases), self.per_round)]

    def universe(self) -> list:
        return [self.make(c, o, None, 0) for c in self.candidates for o in self.options]


def _thm1_large_case(gathers: int):
    # L is set so that L*phi(q), the gathers of one window evaluation, meets
    # the type's target: the seed moves the modulus, not the work.
    def make(q, starts, rng, position):
        side = math.isqrt(q)
        length = round(gathers / euler_phi(q))
        return Thm1Case(q, starts, (length, side, side))
    return make


def _sweep_small_case(q, starts, rng, position):
    side = math.isqrt(q)
    if rng is None:
        return Thm1Case(q, starts, (side, side, side))
    queries = None
    if position % SWEEP_SMALL_ROUND == SWEEP_SMALL_ROUND - 1:
        n = rng.randrange(1, q)
        pairs = tuple((rng.randrange(q), rng.randrange(q)) for _ in range(KLOOSTERMAN_QUERIES))
        queries = (n, pairs)
    return Thm1Case(q, starts, (side, side, side), queries)


def _lemma(lemma: str, grid: Callable):
    return lambda c, o, rng, position: LemmaCase(lemma, grid(c, o))


# Rounds are laid out so that the median case lies well inside one case type
# and the 90th percentile inside the slowest type, under the +-15% per-case
# noise of a shared machine: thm1_large has five types of one case each,
# sweep_small 80% light and 20% heavy cases, and lemma_counts two cheaper
# cases, eight Lemma 2.2 cells, then four dearer cases and two Lemma 2.1
# cells.
WORKLOADS = {
    # Few big moduli: the O(L*phi) gathers of window_sums/trilinear_fast,
    # plus build_ring and Bluestein at q ~ 1e6.
    "thm1_large": [
        Menu(PRIMES_1E5, THM1_OFFSETS, _thm1_large_case(31_600_000)),
        Menu(SMOOTH_1E5, THM1_OFFSETS, _thm1_large_case(8_000_000)),
        Menu(SMOOTH_2E5, THM1_OFFSETS, _thm1_large_case(12_000_000)),
        Menu(SMOOTH_3E5, THM1_OFFSETS, _thm1_large_case(44_000_000)),
        Menu(PRIMES_1E6, THM1_OFFSETS, _thm1_large_case(48_000_000)),
    ],
    # Many tiny thm1 cases over consecutive moduli: per-call setup dominates.
    "sweep_small": [
        Menu(SWEEP_SMALL_MODULI, THM1_OFFSETS, _sweep_small_case, SWEEP_SMALL_ROUND),
    ],
    # The Lemma 2.1-2.5 checks at enlarged sizes: counts and characters.
    "lemma_counts": [
        Menu(PRIMES_3E4, ((0, 1000), (11, 700)),
             lambda q, kh, rng, position: CharMomentCase(q, *kh)),
        Menu(tuple(range(200, 208)), (40, 60),
             _lemma("2.5", lambda Q, K: {"r": 2, "Qs": [Q], "Ks": [K]})),
        # Interval (start, q - shortfall): all q residues, or 150 fewer.
        Menu(PRIMES_3E3, ((0, 0), (11, 150)),
             _lemma("2.2", lambda q, sd: {"qs": [q], "intervals": [[sd[0], q - sd[1]]]}), 8),
        # Below PRIMES_3E4, so that no modulus of a round repeats.
        Menu(tuple(range(29984, 29992)), (173, 1732),
             _lemma("2.3", lambda q, K: {"qs": [q], "Ks": [K]})),
        Menu(tuple(range(29992, 30000)), (866, 3000),
             _lemma("2.3", lambda q, K: {"qs": [q], "Ks": [K]})),
        Menu(tuple(range(296, 304)), (2,),
             _lemma("2.4", lambda K, r: {"r": r, "Ks": [K]})),
        Menu(PRIMES_1E6, ((0, 1000), (3, 316)),
             _lemma("2.1", lambda q, kh: {"qs": [q], "ks": [kh[0]], "Hs": [kh[1]]}), 2),
    ],
}


@dataclass(frozen=True)
class Oracle:
    """A small instance whose fast path is compared with its brute-force
    oracle.  ``kind`` names the pair; ``args`` its inputs."""

    kind: str
    q: int
    args: tuple

    def check(self, kf) -> str | None:
        return _ORACLE_CHECKS[self.kind](kf, kf.build_ring(self.q), *self.args)


def _check_trilinear(kf, ring, spans, mode, seed):
    l_int, m_int, n_int = (kf.IntervalSet(s, n) for s, n in spans)
    weights = kf.make_weights(ring, l_int, mode, seed=seed, m_interval=m_int, n_interval=n_int)
    instance = kf.TrilinearInstance(ring, weights, m_int, n_int)
    fast, naive = kf.trilinear_fast(instance), kf.trilinear_naive(instance)
    tol = TRILINEAR_RTOL * l_int.length * m_int.length * n_int.length * ring.q
    return None if _close(fast, naive, tol) else f"trilinear_fast {fast!r} != naive {naive!r}"


def _check_double(kf, ring, n, pairs):
    table = kf.single_table(ring, n)
    for l, m in pairs:
        fast = kf.double_fast(ring, l, m, n, table=table)
        naive = kf.double_naive(ring, l, m, n)
        if not _close(fast, naive, DOUBLE_RTOL * ring.phi**2):
            return f"double_fast({l},{m},{n}) {fast!r} != naive {naive!r}"
    return None


def _check_recip(kf, ring, r, K):
    fast = kf.reciprocal_count_mod(ring, r, K).value
    naive = kf.reciprocal_count_naive(ring, r, K)
    return None if fast == naive else f"reciprocal_count_mod {fast} != naive {naive}"


def _check_energy(kf, ring, a, b):
    a_int, b_int = kf.IntervalSet(*a), kf.IntervalSet(*b)
    exact = kf.multiplicative_energy(ring, a_int, b_int).value
    identity = kf.energy_character_identity(ring, kf.build_characters(ring), a_int, b_int)[0]
    ok = _close(identity, exact, max(MOMENT_RTOL * exact, 1e-6))
    return None if ok else f"energy {exact} != character identity {identity!r}"


def _check_moment(kf, ring, start, length):
    table = kf.build_characters(ring)
    interval = kf.IntervalSet(start, length)
    moment = kf.fourth_moment(table, interval)
    _, twin = kf.moment_identity_check(table, interval)
    ok = moment <= 1e-6 if twin == 0 else _close(moment, twin, MOMENT_RTOL * twin)
    return None if ok else f"fourth moment {moment!r} != twin {twin!r}"


_ORACLE_CHECKS = {
    "trilinear": _check_trilinear,
    "double": _check_double,
    "recip": _check_recip,
    "energy": _check_energy,
    "moment": _check_moment,
}


def _interval(rng, q, max_len):
    return (rng.randrange(-q, q), rng.randint(1, max_len))


def _oracle(kind: str, rng: random.Random) -> Oracle:
    if kind == "trilinear":
        q = rng.randint(20, 150)
        spans = tuple(_interval(rng, q, 6) for _ in range(3))
        mode = rng.choice(("ones", "rademacher", "phase", "extremal"))
        return Oracle(kind, q, (spans, mode, rng.randrange(2**31)))
    if kind == "double":
        q = rng.randint(50, 700)
        pairs = tuple((rng.randrange(-q, 2 * q), rng.randrange(-q, 2 * q)) for _ in range(3))
        return Oracle(kind, q, (rng.randrange(-q, 2 * q), pairs))
    if kind == "recip":
        q = rng.randint(50, 400)
        return Oracle(kind, q, (2, rng.randint(1, 30)))
    q = rng.randint(20, 300)
    if kind == "energy":
        return Oracle(kind, q, (_interval(rng, q, q), _interval(rng, q, q)))
    return Oracle(kind, q, _interval(rng, q, q))


ORACLES = {
    "thm1_large": ("trilinear",) * 4,
    "sweep_small": ("trilinear",) * 3 + ("double",) * 4 + ("recip",) * 2,
    "lemma_counts": ("recip",) * 3 + ("energy",) * 3 + ("moment",) * 3,
}


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: list  # list of case lists, in run order; a pass runs each at most once
    oracles: list


def build(name: str, seed: int) -> Workload:
    """The workload's inputs for one seed; the same seed gives the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    menus = WORKLOADS[name]
    count = max(len(menu.candidates) // menu.per_round for menu in menus)
    draws = [menu.draw(rng, count) for menu in menus]
    rounds = [[case for draw in draws for case in draw[i]] for i in range(count)]
    oracles = [_oracle(kind, rng) for kind in ORACLES[name]]
    return Workload(name, rounds, oracles)


def universe(name: str) -> list:
    """Every case key a seed can generate for the workload, as cases."""
    return [case for menu in WORKLOADS[name] for case in menu.universe()]


def load_recorded(path: Path = RECORDED_PATH) -> dict:
    return json.loads(path.read_text())["values"]
