"""Tracing for the benchmark's traced run.

``Tracer`` wraps every public function of the kforms modules at every module
binding it is reached through (``build_ring`` and ``cyclic_dft`` are imported
by name into sweeps, counts, trilinear and kloosterman, so patching only
ring.py would miss those calls).  Each call becomes a span kept in memory:
name, start, end, parent span, case index and the q/phi/L/M/N/H/A/B/K/r/Q
attributes read from its arguments.  ``layer_metrics`` turns the spans into
the per-layer numbers; counts there are computed from the span attributes,
not measured.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "kforms"
# cli only parses arguments and calls sweeps, so it is not a layer.
LAYER_OF_MODULE = {
    "ring": "ring",
    "characters": "characters",
    "kloosterman": "kloosterman",
    "counts": "counts",
    "trilinear": "trilinear",
    "sweeps": "sweeps",
    "sweeps_util": "sweeps",
    "reports": "reports",
}
LAYERS = ("ring", "characters", "kloosterman", "counts", "trilinear", "sweeps", "reports")

SELF_TIMED = (
    "trilinear.window_sums",
    "trilinear.trilinear_fast",
    "trilinear.make_weights",
    "trilinear.theorem1_bounds",
    "trilinear.proof_trace",
    "ring.build_ring",
    "ring.phase_sum_table",
    "ring.cyclic_dft",
    "counts.reciprocal_count_mod",
    "counts.reciprocal_count_rational",
    "counts.average_reciprocal_sweep",
    "counts.multiplicative_energy",
    "characters.build_characters",
    "characters.interval_character_sums",
    "characters.moment_identity_check",
    "kloosterman.single_table",
    "kloosterman.double_fast",
    "reports.emit_report",
)

_INT_ARGS = ("q", "K", "r", "Q")
_INTERVAL_ARGS = {
    "l_interval": "L", "m_interval": "M", "n_interval": "N",
    "interval": "H", "a_interval": "A", "b_interval": "B",
}


def _attrs(params, args, kwargs) -> dict:
    out = {}
    for name, value in itertools.chain(zip(params, args), kwargs.items()):
        if name in _INT_ARGS and isinstance(value, int):
            out[name] = value
        elif name in _INTERVAL_ARGS and hasattr(value, "length"):
            out[_INTERVAL_ARGS[name]] = value.length
        elif name == "ring":
            out["q"], out["phi"] = value.q, value.phi
        elif name == "instance":
            out["q"], out["phi"] = value.ring.q, value.ring.phi
            out["L"] = value.weights.interval.length
            out["M"], out["N"] = value.m_interval.length, value.n_interval.length
        elif name == "table" and hasattr(value, "char_count"):
            out["q"], out["phi"] = value.q, value.char_count
    return out


class Tracer:
    """Installs span-recording wrappers while used as a context manager."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, case, attrs]
        self.case = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn):
        name = f"{LAYER_OF_MODULE[fn.__module__.split('.')[1]]}.{fn.__name__}"
        params = list(inspect.signature(fn).parameters)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case,
                    _attrs(params, args, kwargs)]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if not (inspect.isfunction(value) and not value.__name__.startswith("_")):
                    continue
                parts = value.__module__.split(".")
                if parts[0] != PACKAGE or len(parts) != 2 or parts[1] not in LAYER_OF_MODULE:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value)
                setattr(module, attr, wrappers[value])
                self._patches.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        return False

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines after one header line; times in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, case, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "case": case, "attrs": attrs,
                }) + "\n")


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("_frac"):
        return "fraction"
    if metric.split(".")[-1] in ("per_modulus", "per_table", "evals_per_case"):
        return "ratio"
    return "count"


def layer_metrics(spans, cases: int, wall_s: float, is_prime) -> dict:
    """Per-layer numbers from a traced run of ``cases`` cases.

    Times and counts are per case; ``per_modulus``, ``per_table`` and
    ``evals_per_case`` are ratios; ``pair_bytes`` is the largest single
    call; ``sweeps.cases`` is the run's case count.  ``untraced.self_ms``
    is wall time not inside any kforms span, so the layer self times and
    it add up to ``trace.wall_ms``.
    """
    n = len(spans)
    child = [0.0] * n
    top = [0] * n
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
        top[i] = i if parent < 0 else top[parent]
    own = defaultdict(float)
    layer = defaultdict(float)
    calls = Counter()
    for i, (name, start, end, _, _, _) in enumerate(spans):
        ms = (end - start - child[i]) * 1000
        own[name] += ms
        layer[name.split(".")[0]] += ms
        calls[name] += 1

    def attrs_of(*names):
        return [s[5] for s in spans if s[0] in names]

    per = 1 / max(cases, 1)
    m = {f"{name}.self_ms": layer[name] * per for name in LAYERS}
    m["untraced.self_ms"] = (wall_s * 1000 - sum(layer.values())) * per
    m["trace.wall_ms"] = wall_s * 1000 * per
    m.update({f"{name}.self_ms": own[name] * per for name in SELF_TIMED})

    m["trilinear.gathers"] = per * sum(
        a["L"] * a["phi"] for a in attrs_of("trilinear.window_sums", "trilinear.trilinear_fast"))
    thm1 = calls["sweeps.verify_thm1_sweep"]
    evals = sum(
        1 for i, s in enumerate(spans)
        if s[0] in ("trilinear.window_sums", "trilinear.trilinear_fast")
        and spans[top[i]][0] == "sweeps.verify_thm1_sweep"
    )
    m["trilinear.evals_per_case"] = evals / thm1 if thm1 else 0.0

    rings = attrs_of("ring.build_ring")
    m["ring.build_ring.calls"] = len(rings) * per
    moduli = len({a["q"] for a in rings})
    m["ring.build_ring.per_modulus"] = len(rings) / moduli if moduli else 0.0
    dft = [a["q"] for a in attrs_of("ring.cyclic_dft")]
    prime_points = sum(q for q in dft if is_prime(q))
    m["ring.cyclic_dft.calls"] = len(dft) * per
    m["ring.cyclic_dft.points"] = sum(dft) * per
    m["ring.cyclic_dft.points_prime"] = prime_points * per
    m["ring.cyclic_dft.points_composite"] = (sum(dft) - prime_points) * per

    m["counts.reciprocal_count_mod.conv_ops"] = per * sum(
        (a["r"] - 1) * a["q"] ** 2 for a in attrs_of("counts.reciprocal_count_mod"))
    m["counts.reciprocal_count_rational.states"] = per * sum(
        a["K"] ** a["r"] for a in attrs_of("counts.reciprocal_count_rational"))
    m["counts.multiplicative_energy.pair_bytes"] = float(max(
        (8 * a["A"] * a["B"] for a in attrs_of("counts.multiplicative_energy")), default=0))
    m["characters.group_points"] = per * sum(
        a["phi"] for a in attrs_of("characters.build_characters"))
    tables = calls["kloosterman.single_table"]
    m["kloosterman.double_fast.per_table"] = (
        calls["kloosterman.double_fast"] / tables if tables else 0.0)
    m["sweeps.cases"] = float(cases)
    return m
