import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import kforms
import kforms.characters
import kforms.cli
import kforms.counts
import kforms.kloosterman
import kforms.ring
import kforms.sweeps
from kforms.cli import build_parser, main
from kforms.reports import read_report

README = Path(__file__).resolve().parents[1] / "README.md"


class TestSingleValueCommands:
    def test_ring_info(self, capsys):
        assert main(["ring-info", "--q", "360"]) == 0
        out = capsys.readouterr().out
        assert "phi(q) = 96" in out
        assert "tau(q) = 24" in out

    def test_ksum(self, capsys):
        assert main(["ksum", "--q", "5", "--m", "1", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "0.3819660113" in out

    def test_ksum2_fast_and_naive_agree(self, capsys):
        assert main(["ksum2", "--q", "5", "--l", "1", "--m", "1", "--n", "1"]) == 0
        fast_out = capsys.readouterr().out
        assert main(["ksum2", "--q", "5", "--l", "1", "--m", "1", "--n", "1", "--naive"]) == 0
        naive_out = capsys.readouterr().out
        assert "2.545084972" in fast_out
        assert "2.545084972" in naive_out

    def test_trilinear(self, capsys):
        code = main([
            "trilinear", "--q", "101", "--L", "0:10", "--M", "0:10", "--N", "0:10",
            "--weights", "ones",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bound_b1" in out and "ratio vs min bound" in out

    def test_energy(self, capsys):
        assert main(["energy", "--q", "5", "--A", "0:2", "--B", "0:2"]) == 0
        assert "E(A,B) = 6" in capsys.readouterr().out

    def test_energy_negative_start_joined_with_equals(self, capsys):
        # argparse reads "-3:7" as its own word as a flag; "--A=-3:7" passes it.
        # Both A intervals cover every residue mod 7, so the counts agree.
        lines = []
        for a_flag in (["--A=-3:7"], ["--A", "0:7"]):
            assert main(["energy", "--q", "7", *a_flag, "--B", "0:3"]) == 0
            lines.append(capsys.readouterr().out.splitlines()[0])
        assert lines[0] == lines[1] and lines[0].startswith("E(A,B) = 54 ")

    def test_jr_mod(self, capsys):
        assert main(["jr-mod", "--q", "5", "--r", "2", "--K", "2"]) == 0
        assert "J_2(5;2) = 6" in capsys.readouterr().out

    def test_jr_mod_counts_once_and_prints_residual(self, capsys, monkeypatch):
        calls = []
        count = kforms.counts.reciprocal_count_mod
        monkeypatch.setattr(
            kforms.counts, "reciprocal_count_mod", lambda *a: calls.append(a) or count(*a)
        )
        assert main(["jr-mod", "--q", "1009", "--K", "500", "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert len(calls) == 1
        assert "FFT certificate residual = " in out and "none" not in out
        assert "q,r,K,measured,reference,ratio,runtime_ms" in out.splitlines()
        assert main(["jr-mod", "--q", "1009", "--K", "5"]) == 0
        assert "FFT certificate residual = none" in capsys.readouterr().out

    def test_char_moment_transforms_once(self, capsys, monkeypatch):
        calls = []
        sums = kforms.characters.interval_character_sums
        monkeypatch.setattr(
            kforms.characters, "interval_character_sums", lambda *a: calls.append(a) or sums(*a)
        )
        assert main(["char-moment", "--q", "1009", "--k", "3", "--H", "40", "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert len(calls) == 1
        assert "orthogonality twin = " in out
        assert "q,k,H,measured,reference,ratio,runtime_ms" in out.splitlines()

    def test_jr_rat(self, capsys):
        assert main(["jr-rat", "--r", "2", "--K", "3"]) == 0
        assert "J_2(3) = 15" in capsys.readouterr().out

    def test_char_moment(self, capsys):
        assert main(["char-moment", "--q", "5", "--H", "2"]) == 0
        assert "fourth moment = 24" in capsys.readouterr().out

    def test_char_moment_ratio_matches_the_lemma_cell(self, capsys):
        assert main(["char-moment", "--q", "1997", "--k", "0", "--H", "1997",
                     "--format", "json", "--out", "-"]) == 0
        out = capsys.readouterr().out
        ratio = json.loads(out[out.index("\n[") + 1:])[0]["ratio"]
        grid = {"qs": [1997], "ks": [0], "Hs": [1997]}
        cell = kforms.verify_lemma_sweeps("2.1", grid).reports[0]
        assert ratio == pytest.approx(cell.ratio, rel=1e-12)
        assert 0.99 < ratio < 1

    def test_proof_trace(self, capsys):
        code = main([
            "proof-trace", "--q", "101", "--r", "2",
            "--L", "0:8", "--M", "0:8", "--N", "0:8",
        ])
        assert code == 0
        assert "reconstruction" in capsys.readouterr().out

    def test_trilinear_far_window_start(self, capsys):
        # 10^17 = 10 mod 101, so both windows give the same phase sums
        values = []
        for start in ("100000000000000000", "10"):
            assert main(["trilinear", "--q", "101", "--L", "0:5", "--M", f"{start}:10",
                         "--N", "0:5"]) == 0
            values.append(capsys.readouterr().out.split()[2])
        assert values[0] == values[1]

    @pytest.mark.parametrize("command", [
        ["char-moment", "--q", "101", "--H", "50", "--k"],
        ["trilinear", "--q", "101", "--M", "0:10", "--N", "0:10", "--L"],
    ])
    def test_interval_start_past_int64(self, command, capsys):
        # a start at or above 2^63 reads the residues of its start reduced mod 101
        outs = []
        for start in (2**63 + 5, (2**63 + 5) % 101):
            arg = str(start) if command[0] == "char-moment" else f"{start}:10"
            assert main(command + [arg]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_proof_trace_runtime_covers_the_trace(self, tmp_path):
        # a ~50 ms run: every cell's runtime_ms counts the build and the trace
        out_path = tmp_path / "trace.json"
        code = main([
            "proof-trace", "--q", "2003", "--L", "0:40", "--M", "0:40", "--N", "0:40",
            "--format", "json", "--out", str(out_path),
        ])
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert rows and all(row["runtime_ms"] >= 1 for row in rows)


class TestVerifyCommands:
    def test_thm1_sweep_emits_csv(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code = main([
            "verify-thm1", "--q", "101..140", "--primes",
            "--L", "0:10", "--M", "0:10", "--N", "0:10",
            "--format", "csv", "--out", str(out_path),
        ])
        assert code == 0
        rows = read_report(str(out_path), "csv")
        assert len(rows) == 9  # primes in [101, 140]
        assert {"measured", "reference", "ratio", "runtime_ms"} <= set(rows[0])

    def test_budget_bounds_the_prime_filter(self, monkeypatch, capsys):
        # the moduli are tested as the sweep reaches them, so a spent budget
        # stops the test too: a handful of the 299,001 moduli are looked at
        tested = []
        is_prime = kforms.sweeps.is_prime
        monkeypatch.setattr(kforms.sweeps, "is_prime", lambda q: tested.append(q) or is_prime(q))
        argv = ["verify-thm1", "--q", "1000..300000", "--primes", "--budget-ms", "1",
                "--L", "0:3", "--M", "0:3", "--N", "0:3"]
        assert main(argv) == 0
        assert "truncated" in capsys.readouterr().out
        assert 1 <= len(tested) < 10_000 and tested == list(range(1000, 1000 + len(tested)))

    def test_unwritable_out_refused_before_the_run(self, monkeypatch, tmp_path, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr(kforms.cli, "verify_thm1_sweep", unreachable)
        argv = ["verify-thm1", "--q", "101", "--L", "0:10", "--M", "0:10", "--N", "0:10"]
        assert main(argv + ["--out", "/nonexistent/dir/x.csv"]) == 2
        assert "io error writing report" in capsys.readouterr().err
        # the check leaves an existing report as it is when the run then fails
        monkeypatch.undo()
        kept = tmp_path / "kept.csv"
        kept.write_text("q,measured\n")
        assert main(["verify-thm1", "--q", "1", "--out", str(kept)]) == 2
        assert kept.read_text() == "q,measured\n"

    def test_thm1_threshold_failure_exit_code(self, capsys):
        code = main([
            "verify-thm1", "--q", "101,103", "--L", "0:10", "--M", "0:10",
            "--N", "0:10", "--C", "1e-9",
        ])
        assert code == 1

    def test_thm2_reports_allowance(self, capsys):
        code = main([
            "verify-thm2", "--Q", "20", "--r", "2",
            "--L", "0:4", "--M", "0:4", "--N", "0:4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "allowed exceptions" in out

    def test_verify_lemma_json_output(self, tmp_path):
        out_path = tmp_path / "lemma.json"
        code = main([
            "verify-lemma", "--lemma", "2.3",
            "--grid", json.dumps({"qs": [30, 97], "Ks": [5, 30]}),
            "--format", "json", "--out", str(out_path),
        ])
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert len(rows) == 4

    def test_verify_lemma_threshold(self, capsys):
        code = main([
            "verify-lemma", "--lemma", "2.3",
            "--grid", json.dumps({"qs": [30], "Ks": [5]}),
            "--C", "1e-12",
        ])
        assert code == 1
        assert "exceptions = 1" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("grid", [
        "[1]", "5", '{"qs": "97", "Ks": [5]}', '{"qs": [97.5], "Ks": [5]}',
        '{"qs": [97], "Ks": ["5"]}',
    ])
    def test_malformed_grid_exits_two(self, grid, capsys):
        assert main(["verify-lemma", "--lemma", "2.3", "--grid", grid]) == 2
        assert "invalid grid" in capsys.readouterr().err

    @pytest.mark.parametrize("lemma, keys", [
        ("2.1", "['qs', 'ks', 'Hs']"), ("2.2", "['qs', 'intervals']"), ("2.3", "['qs', 'Ks']"),
        ("2.4", "['r', 'Ks']"), ("2.5", "['r', 'Qs', 'Ks']"),
    ])
    def test_empty_grid_names_every_key_in_order(self, lemma, keys, capsys):
        assert main(["verify-lemma", "--lemma", lemma, "--grid", "{}"]) == 2
        assert f"missing or malformed {keys}" in capsys.readouterr().err


def _unit_group_reached(q, *args):
    raise AssertionError(f"the unit group of {q} was built before the refusal")


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        # 4*L*M*N*phi^2 ~ 4.1e9
        ["trilinear", "--q", "1009", "--L", "0:10", "--M", "0:10", "--N", "0:10", "--naive"],
        # 4*phi^2 ~ 4.0e10
        ["ksum2", "--q", "100003", "--l", "1", "--m", "1", "--n", "1", "--naive"],
        # 4*phi^2 ~ 2.0e9: double_naive holds 32 B per pair
        ["ksum2", "--q", "22343", "--l", "1", "--m", "1", "--n", "1", "--naive"],
        # 8*K^r = 8.0e9 rational-tally words
        ["jr-rat", "--r", "3", "--K", "1000"],
        # (10^6 + 1)*(5*1000 + 4*10^6) ~ 4.0e12: 10^6 + 1 moduli, 4*10^6 FFT points each
        ["verify-lemma", "--lemma", "2.5", "--grid", '{"r":2,"Qs":[1000000],"Ks":[1000]}'],
    ])
    def test_oversized_work_refused_up_front(self, argv, no_table, capsys):
        assert main(argv) == 2
        assert "dimension too large" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, module, name", [
        # 7*q ring words ~ 3.5e9, refused before the unit mask is allocated
        (["ring-info", "--q", "499999993"], kforms.ring.np, "ones"),
        # (48 + 4*8)*q trace words ~ 8.0e8, refused before the level sets
        (["proof-trace", "--q", "10000019", "--L", "0:10", "--M", "0:3162", "--N", "0:3162"],
         kforms.trilinear, "dyadic_decomposition"),
        # r past 63, refused before the first rational or modular step
        (["jr-rat", "--r", "40000000", "--K", "1"], kforms.counts, "np"),
        (["jr-mod", "--q", "97", "--r", "100000000", "--K", "1"],
         kforms.counts, "_unit_inverses_upto"),
        # 7*q ring + 7*points window FFT words ~ 7.5e8, refused before the
        # unit group
        (["trilinear", "--q", "35714279", "--L", "0:5", "--M", "0:5", "--N", "0:5"],
         kforms.ring, "_unit_group"),
        # 7*q ring words ~ 2.1e8 and 7*points window FFT words ~ 2.1e8 each
        # fit, but their sum ~ 4.2e8 does not: refused before the unit mask
        (["verify-thm1", "--q", "30000001", "--weights", "extremal"],
         kforms.ring.ResidueRing, "unit_mask"),
        # ~4*10^16 unit pairs price the energy onto the lattice, whose
        # 3*length member words ~ 6.0e8 are refused before any unit member
        (["energy", "--q", "2000000011", "--A", "0:200000000", "--B", "0:200000000"],
         kforms.counts, "_unit_members"),
        # 2*10^8 pairs take the tally, whose 3*length member words ~ 3.0e8
        # are refused before the interval's residues
        (["energy", "--q", "2000000011", "--A", "0:100000000", "--B", "0:2"],
         kforms.ring.IntervalSet, "residues"),
    ])
    def test_refused_before_the_work(self, argv, module, name, monkeypatch, capsys):
        monkeypatch.setattr(module, name, None)  # any use raises a TypeError or AttributeError
        assert main(argv) == 2
        assert "dimension too large" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # 11*q ring and single-sum words ~ 1.1e5 at q = 10007: refused before
        # the sum reads the ring's inverse table
        ["ksum", "--q", "10007", "--m", "1", "--n", "1"],
        # 27*q ring and transform words ~ 2.7e5 at the prime 10007: _unit_dft
        # refuses before it reads the inverse table, and so before its DFT
        ["ksum2", "--q", "10007", "--l", "1", "--m", "1", "--n", "1"],
    ])
    def test_kloosterman_sums_priced_past_the_ring(self, argv, monkeypatch, capsys):
        # under a 10^5-word budget the ring's 7*q words fit, its sums' do not,
        # and both are refused before the ring's unit group is built (ring-info
        # builds none); at 30*q words both run
        monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", 10**5)
        monkeypatch.setattr(kforms.ring.ResidueRing, "inv_table", None)
        monkeypatch.setattr(kforms.kloosterman, "cyclic_dft", None)
        monkeypatch.setattr(kforms.ring, "_unit_group", _unit_group_reached)
        assert main(argv) == 2
        assert "dimension too large" in capsys.readouterr().err
        assert main(["ring-info", "--q", "10007"]) == 0
        monkeypatch.undo()
        monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", 30 * 10007)
        assert main(argv) == 0

    @pytest.mark.parametrize("argv, label", [
        # 27*q ring and transform words ~ 2.7e5 at the prime 10007: the twin's
        # _unit_dft refuses before J_r is counted
        (["jr-mod", "--q", "10007", "--r", "2", "--K", "5"], "27*q ring and transform"),
        # the packed lattice Z_5003 is rough: 14*q words ~ 1.4e5, refused
        # before the fourth moment's twin count
        (["char-moment", "--q", "10007", "--H", "5"], "14*q ring and character-sum"),
    ])
    def test_orthogonality_twins_priced_before_the_count(self, argv, label, monkeypatch, capsys):
        # under a 10^5-word budget the ring's 7*q words fit, the twins' do not,
        # and they are refused before the ring's unit group is built; at
        # 3*10^5 words both run
        monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", 10**5)
        monkeypatch.setattr(kforms.counts, "_reciprocal_counts", None)
        monkeypatch.setattr(kforms.characters, "_product_energy", None)
        monkeypatch.setattr(kforms.ring, "_unit_group", _unit_group_reached)
        assert main(argv) == 2
        assert f"dimension too large: {label} words" in capsys.readouterr().err
        monkeypatch.undo()
        monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", 3 * 10**5)
        assert main(argv) == 0

    @pytest.mark.parametrize("q, code", [(10000, 0), (10007, 2), (9999, 2)])
    def test_transform_priced_from_the_factorization(self, q, code, monkeypatch, capsys):
        # numpy's FFT takes Bluestein only where q has a prime factor above 7:
        # the 7-smooth 2^4*5^4 costs 14*q words, the prime 10007 and
        # 9999 = 3^2*11*101 cost 27*q, over a 2*10^5-word budget
        monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", 2 * 10**5)
        assert main(["ksum2", "--q", str(q), "--l", "3", "--m", "5", "--n", "7"]) == code
        if code:
            assert f"dimension too large: 27*q ring and transform words = {27 * q}" in (
                capsys.readouterr().err)

    def test_energy_lattice_members_priced_before_the_ring(self, no_table, monkeypatch, capsys):
        # 4*10^5 x 10 unit pairs price the energy onto the lattice at q = 10007.
        # Its residues and their int64 gather hold 3 words a member there, so
        # 1.2*10^6 words are refused under a 10^6-word budget before the
        # ring's tables and the residues, though the ring's 7*q words and the
        # interval's 1 word a member fit; at 1.2*10^6 words it runs
        argv = ["energy", "--q", "10007", "--A", "0:400000", "--B", "0:10"]
        monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", 10**6)
        monkeypatch.setattr(kforms.ring.IntervalSet, "residues", None)
        assert main(argv) == 2
        assert "dimension too large: 3*length lattice member words" in capsys.readouterr().err
        monkeypatch.undo()
        monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", 3 * 400_000)
        assert main(argv) == 0
        assert "E(A,B) = " in capsys.readouterr().out

    def test_modulus_range_priced_before_expansion(self, monkeypatch, capsys):
        # 10^5 moduli at 14 words each are over a 10^6-word budget: refused
        # before the list is built and before any case runs
        monkeypatch.setattr(kforms.ring, "DEFAULT_WORK_BUDGET", 10**6)
        monkeypatch.setattr(kforms.sweeps, "build_instance", None)
        assert main(["verify-thm1", "--q", "2..100001"]) == 2
        assert "dimension too large" in capsys.readouterr().err

    def test_long_weight_interval_runs(self, capsys):
        # the window is O(phi log phi) whatever L is
        assert main(["trilinear", "--q", "1000003", "--L", "0:1000", "--M", "0:5",
                     "--N", "0:5"]) == 0
        assert "S_q = " in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["char-moment", "--q", "97", "--H", "100000000000"],
        ["energy", "--q", "97", "--A", "0:100000000000", "--B", "0:3"],
    ])
    def test_oversized_interval_refused_up_front(self, argv, capsys):
        assert main(argv) == 2
        assert "dimension too large" in capsys.readouterr().err

    @pytest.mark.parametrize("r", [0, -2, 64])
    def test_lemma_25_r_out_of_range_exits_two(self, r, capsys):
        grid = json.dumps({"r": r, "Qs": [10], "Ks": [5]})
        assert main(["verify-lemma", "--lemma", "2.5", "--grid", grid]) == 2
        assert "error: " in capsys.readouterr().err

    def test_value_errors_exit_two(self, capsys):
        assert main(["jr-mod", "--q", "5", "--r", "2", "--K", "6"]) == 2
        assert "K out of range" in capsys.readouterr().err
        assert main(["ring-info", "--q", "1"]) == 2
        assert main(["ring-info", "--q", "2000000011"]) == 2
        assert "dimension too large" in capsys.readouterr().err
        assert main(["verify-thm1", "--q", "9..3"]) == 2
        assert "empty range '9..3'" in capsys.readouterr().err
        assert main(["verify-thm2", "--Q", "1"]) == 2
        assert "Q must be >= 2, got 1" in capsys.readouterr().err

    def test_argparse_rejects_unknown_choice(self):
        with pytest.raises(SystemExit) as info:
            main(["verify-lemma", "--lemma", "3.7"])
        assert info.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


# Run one call in a fresh interpreter (by default the command line given as
# its arguments) and print the call's value, the largest work it priced
# through the check_work binding of any kforms module and its ru_maxrss (KiB
# on Linux) above the import's, in bytes
_PEAK_PROBE = """
import contextlib, io, resource, sys
import kforms, kforms.cli, kforms.ring
priced, check = [0], kforms.ring.check_work
def spy(work, label):
    priced[0] = max(priced[0], work)
    check(work, label)
for name, module in list(sys.modules.items()):
    if name.startswith("kforms") and getattr(module, "check_work", None) is check:
        module.check_work = spy
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with contextlib.redirect_stdout(io.StringIO()):
    code = CALL
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, priced[0], 1024 * (peak - base))
"""


def _peak_probe(argv=(), call="kforms.cli.main(sys.argv[1:])"):
    """(value, priced words, bytes held above the import) of one call in a
    fresh interpreter, with one BLAS thread."""
    src = str(Path(kforms.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _PEAK_PROBE.replace("CALL", call), *argv],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return tuple(map(int, run.stdout.split()))


def _points(n: int, k: int) -> int:
    """The padded points of a k-operand lattice FFT over Z_n, as the kernel
    prices them."""
    return math.prod(kforms.ring._fft_plan((n,), k)[0])


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in KiB, as Linux reports it")
class TestPeakRss:
    @pytest.mark.parametrize("argv, priced", [
        # numpy's Bluestein scratch sets ksum2's peak at a prime: 176 B a
        # residue at 10^6+3, against 27 words (216 B); 77 B at 2^20 against
        # 14 words (112 B)
        (["ksum2", "--q", "1000003", "--l", "3", "--m", "5", "--n", "7"], 27 * 1000003),
        (["ksum2", "--q", "1048576", "--l", "3", "--m", "5", "--n", "7"], 14 * 2**20),
        # 56 and 32 B a residue against 11 words (88 B)
        (["ksum", "--q", "1000003", "--m", "5", "--n", "7"], 11 * 1000003),
        (["ksum", "--q", "1048576", "--m", "5", "--n", "7"], 11 * 2**20),
        # jr-mod's twin is one _unit_dft: 175 B a residue against 27 words
        # at 10^6+3, 80 B against 14 words at 2^20
        (["jr-mod", "--q", "1000003", "--r", "2", "--K", "1000"], 27 * 1000003),
        (["jr-mod", "--q", "1048576", "--r", "2", "--K", "1000"], 14 * 2**20),
        # char-moment's packed lattice Z_500001 is rough: 98 B a residue
        # against 14 words; Z_2^18 x Z_2 is not: 36 B under the ring's 7 words
        (["char-moment", "--q", "1000003", "--H", "1000"], 14 * 1000003),
        (["char-moment", "--q", "1048576", "--H", "1000"], 7 * 2**20),
        # 9 B a residue (the unit mask and the units) against the ring's 7
        # words: ring-info builds no unit-group index
        (["ring-info", "--q", "1000003"], 7 * 1000003),
        # 49 B a residue against the lattice FFT's 7 words a padded point
        # (115 B a residue)
        (["energy", "--q", "1000003", "--A", "0:300000", "--B", "0:300000"], 7 * _points(1000002, 2)),
        # the same count as a Lemma 2.2 cell, whose builder holds the ring: 49 B
        (["verify-lemma", "--lemma", "2.2", "--grid", '{"qs":[1000003],"intervals":[[0,300000]]}'],
         7 * _points(1000002, 2)),
        # 69 B a residue against the ring's 7 words and the window FFT's 7
        # a padded point (228 B a residue)
        (["trilinear", "--q", "1000003", "--L", "0:48", "--M", "0:1000", "--N", "0:1000",
          "--weights", "extremal"], 7 * 1000003 + 7 * _points(1000002, 3)),
        # the same instance as one sweep cell: 69 B
        (["verify-thm1", "--q", "1000003", "--L", "0:48", "--M", "0:1000", "--N", "0:1000",
          "--weights", "extremal"], 7 * 1000003 + 7 * _points(1000002, 3)),
    ])
    def test_fresh_process_peak_under_its_price(self, argv, priced):
        code, words, held = _peak_probe(argv)
        assert (code, words) == (0, priced)
        assert held <= 8 * words, f"{held} B held over {8 * words} B priced"

    @pytest.mark.parametrize("argv", [
        ["jr-mod", "--q", "9259277", "--r", "2", "--K", "10"],
        ["ksum2", "--q", "9259277", "--l", "1", "--m", "1", "--n", "1"],
        ["ksum", "--q", "22727279", "--m", "1", "--n", "1"],
        ["char-moment", "--q", "17857153", "--H", "10"],
        # the energy's lattice FFT, priced before the unit-group index (it
        # held 934 MiB before exit 2 when the kernel priced it)
        ["energy", "--q", "29999999", "--A", "0:29999999", "--B", "0:29999999"],
        # (48 + 4*7)*q trace words ~ 2.51e8, priced before the instance (it
        # held ~409 MiB before exit 2 when the instance was built first)
        ["proof-trace", "--q", "3300019", "--r", "2", "--L", "0:400", "--M", "0:1000",
         "--N", "0:1000", "--weights", "extremal"],
        # q = 3^16: the packed axis 3^15 is 7-smooth, so the ring's own 7*q
        # words ~ 3.0e8 refuse the character sums
        ["char-moment", "--q", "43046721", "--H", "10"],
    ])
    def test_refused_run_builds_no_table(self, argv):
        # each kernel's price, just past the work budget, refuses before the
        # ring holds any q-long table (a ring that built its mask and units up
        # front held 69-185 MiB at these q)
        code, words, held = _peak_probe(argv)
        assert code == 2 and words > kforms.ring.DEFAULT_WORK_BUDGET
        assert held <= 4 * 2**20, f"{held} B held by a refused run"

    def test_energy_identity_peak_under_its_price(self):
        # with A != B the sums of A are held through B's transform: 122 B a
        # residue at 10^6+3 against 16 words (128 B), past one transform's 14
        # words (112 B); the value is 0 where the call returned
        call = ("kforms.energy_character_identity(ring := kforms.build_ring(1000003), "
                "kforms.build_characters(ring), kforms.IntervalSet(0, 1000), "
                "kforms.IntervalSet(5, 1000)) and 0")
        code, words, held = _peak_probe(call=call)
        assert code == 0 and held <= 8 * words, f"{held} B held over {8 * words} B priced"
        assert words == 16 * 1000003


class TestReadme:
    @staticmethod
    def tour():
        """Every README tour command as an (absent, present) pair of argvs:
        each bracketed flag left out, then put in."""
        for line in README.read_text().splitlines():
            if line.startswith("kforms "):
                absent = re.sub(r"\s*\[--[^\]]*\]", "", line)
                present = re.sub(r"\[(--[^\]]*)\]", r"\1", line)
                yield shlex.split(absent)[1:], shlex.split(present)[1:]

    def test_cli_tour_parses(self):
        pairs = list(self.tour())
        assert len(pairs) >= 10
        parser = build_parser()
        for argv in (argv for pair in pairs for argv in pair):
            args = parser.parse_args(argv)
            assert callable(args.func), argv

    def test_library_example_runs(self):
        text = README.read_text().split("## Library use", 1)[1]
        block = text.split("```python\n", 1)[1].split("```", 1)[0]
        scope = {}
        exec(block, scope)
        value, trace = scope["value"], scope["trace"]
        assert abs(trace.total - value) <= 1e-9 * abs(value)

    def test_cli_tour_runs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for absent, present in self.tour():
            assert main(absent) == 0, absent
            assert main(present) == 0, present
            if absent[0] == "ring-info":
                continue
            capsys.readouterr()
            assert main(absent + ["--out", "-"]) == 0, absent
            lines = capsys.readouterr().out.splitlines()
            assert any(line.endswith(",measured,reference,ratio,runtime_ms") for line in lines)
            assert main(absent + ["--format", "json", "--out", "-"]) == 0, absent
            out = capsys.readouterr().out
            rows = json.loads(out[out.index("\n[") + 1:])
            assert isinstance(rows, list) and rows, absent

    @pytest.mark.parametrize("grid, C, code", [
        ('{"qs": [30], "Ks": [5]}', "inf", 0),
        ('{"qs": [30], "Ks": [5]}', "1e-12", 1),
        ("[1]", "inf", 2),
    ])
    def test_exit_codes_pass_through_python_m(self, grid, C, code):
        src = str(Path(kforms.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["verify-lemma", "--lemma", "2.3", "--grid", grid, "--C", C]
        run = subprocess.run([sys.executable, "-m", "kforms", *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == code, run.stderr
