"""Tests of the benchmark itself, at a tiny size.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import CharMomentCase, LemmaCase, Oracle, Thm1Case, Workload  # noqa: E402

kf = run.import_kforms()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_CASES = [
    Thm1Case(101, (0, 3, -7), (10, 10, 10)),
    Thm1Case(103, (2, 0, 1), (6, 7, 8), kloosterman=(5, ((1, 2), (3, 4)))),
    LemmaCase("2.1", {"qs": [97], "ks": [3], "Hs": [16]}),
    LemmaCase("2.2", {"qs": [97], "intervals": [[11, 80]]}),
    LemmaCase("2.3", {"qs": [97], "Ks": [20]}),
    LemmaCase("2.4", {"r": 2, "Ks": [20]}),
    LemmaCase("2.5", {"r": 2, "Qs": [20], "Ks": [10]}),
    CharMomentCase(97, 3, 16),
]
TINY_ORACLES = [
    Oracle("trilinear", 31, (((0, 3), (2, 3), (-4, 3)), "extremal", 1)),
    Oracle("double", 53, (7, ((1, 2), (-3, 60)))),
    Oracle("recip", 61, (2, 12)),
    Oracle("energy", 41, ((0, 9), (5, 12))),
    Oracle("moment", 43, (2, 11)),
]


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """Runs run.main on a given case list, with both passes in this process;
    returns (stdout lines, result)."""
    recorded = {c.key: c.recorded_value(c.run(kf, str(tmp_path / "r.csv"))) for c in TINY_CASES}
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(run, "spawn_pass", lambda argv: run.pass_main(run.parse_args(argv)))

    def go(capsys, cases=TINY_CASES, recorded=recorded, trace=0):
        monkeypatch.setattr(workloads, "build", lambda name, seed: Workload(name, [cases], TINY_ORACLES))
        monkeypatch.setattr(workloads, "load_recorded", lambda: recorded)
        argv = ["--workload", "sweep_small", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
        assert run.main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return lines, json.loads(lines[-1])

    go.recorded = recorded
    return go


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(bench, capsys, trace, group):
    lines, result = bench(capsys, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(TINY_CASES) + len(TINY_ORACLES)  # two passes
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)


def test_traced_self_times_add_up_to_wall(bench, capsys):
    _, result = bench(capsys, trace=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layers = ("ring", "characters", "kloosterman", "counts", "trilinear", "sweeps", "reports")
    total = sum(m[f"{layer}.self_ms"] for layer in layers) + m["untraced.self_ms"]
    assert total == pytest.approx(m["trace.wall_ms"])
    assert m["trilinear.evals_per_case"] == 2.0
    assert m["kloosterman.double_fast.per_table"] == 2.0
    assert m["ring.build_ring.calls"] > 0 and m["characters.group_points"] > 0


def test_corrupted_recorded_value_counts_as_failed(bench, capsys):
    recorded = dict(bench.recorded)
    recorded[TINY_CASES[4].key] += 1  # an exact count, off by one
    lines, result = bench(capsys, recorded=recorded)
    attempted = 2 * len(TINY_CASES) + len(TINY_ORACLES)
    assert not result["correct"]
    assert (result["failed"], result["attempted"]) == (2, attempted)  # once per pass
    assert f"fail_frac = {2 / attempted:.6g} (2/{attempted})" in lines


def test_work_guard_refusal_counts_as_failed(bench, capsys):
    refused = Thm1Case(1000003, (0, 0, 0), (1000, 4, 4))  # L*q > 5e8
    lines, result = bench(capsys, cases=[refused] + TINY_CASES)
    assert not result["correct"]
    assert result["failed"] == 2  # once per pass
    assert result["attempted"] == 2 * (1 + len(TINY_CASES)) + len(TINY_ORACLES)


def test_real_workload_in_fresh_pass_processes(tmp_path):
    """One round of sweep_small, both passes in their own interpreters,
    checked against the committed recorded values."""
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep_small", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    rounds = workloads.build("sweep_small", 3).rounds
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(rounds[0]) + len(workloads.ORACLES["sweep_small"])
    # --seconds 0 times a set-up before every case, up to half the samples a pass
    setups = 2 * min(len(rounds[0]), run.SETUP_SAMPLES // 2)
    assert f"set-ups timed: {setups}\n" in done.stdout


def test_rounds_repeat_no_modulus():
    for name in workloads.WORKLOADS:
        for round_ in workloads.build(name, 5).rounds:
            keys = [case.key for case in round_]
            assert len(keys) == len(set(keys)), name
    lemma = workloads.build("lemma_counts", 5).rounds[0]
    moduli = [c.q for c in lemma if isinstance(c, CharMomentCase)]
    moduli += [q for c in lemma if isinstance(c, LemmaCase) for q in c.grid.get("qs", [])]
    assert len(moduli) == len(set(moduli))


def test_tracer_sees_calls_through_every_binding():
    with Tracer() as tracer:
        kf.verify_thm1_sweep([101], "0:5", "0:5", "0:5", mode="extremal", budget_ms=None)
    names = {span[0] for span in tracer.spans}
    # build_ring and cyclic_dft are reached through sweeps' and trilinear's own names
    assert {"ring.build_ring", "ring.cyclic_dft", "trilinear.window_sums"} <= names
    assert kf.sweeps.build_ring is kf.ring.build_ring
    assert not hasattr(kf.trilinear.window_sums, "__wrapped__")


def test_exits_nonzero_without_kforms_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
