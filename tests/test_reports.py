import gc
import json
import math
import os
import time
import weakref

import numpy as np
import pytest

import kforms.characters
import kforms.ring
import kforms.sweeps
from kforms import (
    BoundReport,
    IntervalSet,
    SweepResult,
    build_characters,
    build_ring,
    emit_report,
    fit_exponent,
    fourth_moment,
    read_report,
    verify_lemma_sweeps,
    verify_thm1_sweep,
    verify_thm2_sweep,
)
from kforms.cli import main
from kforms.reports import _ratio, make_report
from kforms.sweeps import parse_int_list, resolve_interval


def sample_reports():
    reports = []
    for q, measured in ((11, 3.0), (13, 5.5), (17, 0.0)):
        reports.append(
            BoundReport(
                params={"q": q, "mode": "ones", "seed": 0},
                measured=measured,
                reference=float(q),
                ratio=measured / q,
                runtime_ms=2,
            )
        )
    return SweepResult(reports=reports)


class TestFitExponent:
    def test_pure_power(self):
        points = [(x, x**2) for x in (1.0, 2.0, 5.0, 9.0)]
        assert fit_exponent(points) == pytest.approx(2.0, abs=1e-12)

    def test_constant(self):
        points = [(x, 7.25) for x in (1.0, 3.0, 10.0)]
        assert fit_exponent(points) == pytest.approx(0.0, abs=1e-9)

    def test_insufficient_points(self):
        with pytest.raises(ValueError, match="insufficient"):
            fit_exponent([(2.0, 4.0)])
        with pytest.raises(ValueError, match="insufficient"):
            fit_exponent([(2.0, 4.0), (2.0, 5.0)])

    def test_nonpositive_values(self):
        with pytest.raises(ValueError, match="nonpositive"):
            fit_exponent([(1.0, 1.0), (2.0, -4.0)])
        with pytest.raises(ValueError, match="nonpositive"):
            fit_exponent([(0.0, 1.0), (2.0, 4.0)])


class TestEmitReport:
    def test_csv_round_trip(self, tmp_path):
        result = sample_reports()
        path = tmp_path / "out.csv"
        emit_report(result, "csv", str(path))
        rows = read_report(str(path), "csv")
        assert len(rows) == 3
        for row, report in zip(rows, result.reports):
            emitted = report.row()
            for key, value in emitted.items():
                if isinstance(value, float):
                    assert row[key] == pytest.approx(value, rel=1e-11)
                else:
                    assert row[key] == value
        # a second emit of the parsed rows is byte-identical
        reparsed = SweepResult(
            reports=[
                BoundReport(
                    params={k: row[k] for k in ("q", "mode", "seed")},
                    measured=row["measured"],
                    reference=row["reference"],
                    ratio=row["ratio"],
                    runtime_ms=row["runtime_ms"],
                )
                for row in rows
            ]
        )
        path2 = tmp_path / "out2.csv"
        emit_report(reparsed, "csv", str(path2))
        assert path.read_text() == path2.read_text()

    def test_csv_line_count(self, tmp_path):
        path = tmp_path / "three.csv"
        emit_report(sample_reports(), "csv", str(path))
        assert len(path.read_text().splitlines()) == 4  # header + 3 rows

    def test_empty_sweep_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report(SweepResult(), "csv", str(path))
        assert path.read_text().splitlines() == ["measured,reference,ratio,runtime_ms"]
        jpath = tmp_path / "empty.json"
        emit_report(SweepResult(), "json", str(jpath))
        assert json.loads(jpath.read_text()) == []

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        emit_report(sample_reports(), "json", str(path))
        rows = read_report(str(path), "json")
        assert [row["q"] for row in rows] == [11, 13, 17]
        assert rows[1]["measured"] == pytest.approx(5.5)

    def test_degenerate_ratio_serializes_empty(self, tmp_path):
        report = make_report(params={"q": 3}, measured=1.0, reference=0.0, t0=0.0)
        assert report.ratio is None
        path = tmp_path / "degen.csv"
        emit_report(SweepResult(reports=[report]), "csv", str(path))
        row = read_report(str(path), "csv")[0]
        assert row["ratio"] is None

    def test_twelve_significant_digits(self, tmp_path):
        value = math.pi * 1e6
        report = BoundReport(params={"q": 2}, measured=value, reference=1.0,
                             ratio=value, runtime_ms=0)
        path = tmp_path / "digits.csv"
        emit_report(SweepResult(reports=[report]), "csv", str(path))
        text = path.read_text().splitlines()[1]
        assert "3141592.65359" in text

    def test_io_error(self, tmp_path):
        with pytest.raises(ValueError, match="io error"):
            emit_report(sample_reports(), "csv", str(tmp_path / "missing" / "out.csv"))

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit_report(sample_reports(), "xml", "-")

    def test_read_unknown_format(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_report(sample_reports(), "csv", str(path))
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            read_report(str(path), "xml")

    def test_reports_with_different_columns_are_refused(self):
        a = make_report(params={"q": 3}, measured=1.0, reference=2.0, t0=0.0)
        b = make_report(params={"q": 5, "K": 2}, measured=1.0, reference=2.0, t0=0.0)
        for format in ("csv", "json"):
            with pytest.raises(ValueError, match="must share the same columns"):
                emit_report(SweepResult(reports=[a, b]), format, "-")

    def test_bools_are_bools_in_both_formats(self, tmp_path):
        # a Python bool is an int: it must not be written as 1 in JSON
        params = {"q": 7, "flag": True, "np_flag": np.False_, "count": np.int64(4)}
        result = SweepResult(reports=[make_report(params, 1.0, 2.0, t0=0.0)])
        csv_path, json_path = tmp_path / "b.csv", tmp_path / "b.json"
        emit_report(result, "csv", str(csv_path))
        emit_report(result, "json", str(json_path))
        assert csv_path.read_text().splitlines()[1].startswith("7,True,False,4,")
        row = json.loads(json_path.read_text())[0]
        assert [type(row[k]) for k in params] == [int, bool, bool, int]
        assert (row["flag"], row["np_flag"], row["count"]) == (True, False, 4)
        assert '"flag": true' in json_path.read_text()


class TestSpecs:
    def test_int_lists(self):
        assert parse_int_list("3, 5,9..11,") == [3, 5, 9, 10, 11]
        with pytest.raises(ValueError, match="empty range '7..3'"):
            parse_int_list("7..3")
        with pytest.raises(ValueError, match="no integers in ','"):
            parse_int_list(",")

    def test_interval_specs(self):
        interval = IntervalSet(2, 5)
        assert resolve_interval(interval, 101) is interval
        assert resolve_interval((3, 4), 101) == IntervalSet(3, 4)
        assert resolve_interval("7", 101) == resolve_interval("0:7", 101) == IntervalSet(0, 7)
        assert resolve_interval("sqrt", 101) == IntervalSet(0, 10)
        assert resolve_interval("4:sqrt", 99) == IntervalSet(4, 9)
        with pytest.raises(ValueError, match="cannot parse interval spec 5"):
            resolve_interval(5, 101)


class TestSweepDeterminism:
    def strip_runtime(self, text: str) -> str:
        lines = text.splitlines()
        return "\n".join(",".join(line.split(",")[:-1]) for line in lines)

    def test_identical_invocations_identical_data(self, tmp_path):
        texts = []
        for run in range(2):
            result = verify_thm2_sweep(20, 2, "0:4", "0:4", "0:4", mode="rademacher", seed=3)
            path = tmp_path / f"run{run}.csv"
            emit_report(result, "csv", str(path))
            texts.append(self.strip_runtime(path.read_text()))
        assert texts[0] == texts[1]


class TestSweepControls:
    def test_prime_report_count(self):
        from kforms import is_prime

        qs = [q for q in range(101, 200) if is_prime(q)]
        result = verify_thm1_sweep(qs, "0:10", "0:10", "0:10")
        assert len(result.reports) == 21
        assert all(np.isfinite(r.ratio) for r in result.reports)

    def test_single_modulus_measured_value(self):
        from kforms import build_ring, double_naive

        result = verify_thm1_sweep([5], "0:1", "0:1", "0:1")
        expected = abs(double_naive(build_ring(5), 1, 1, 1))
        assert result.reports[0].measured == pytest.approx(expected, abs=1e-9)
        assert result.reports[0].measured == pytest.approx(2.594127, abs=1e-6)

    def test_zero_weight_row(self):
        # the weight interval {5} mod 5 holds no units, so the form vanishes
        result = verify_thm1_sweep([5], "4:1", "0:1", "0:1", threshold=1e-12)
        assert result.reports[0].measured == 0
        assert result.exceptions == 0

    def test_budget_truncates(self):
        result = verify_thm1_sweep(
            list(range(11, 200, 2)), "0:4", "0:4", "0:4", budget_ms=0
        )
        assert result.truncated
        assert len(result.reports) < 90

    def test_exceptions_monotone_in_threshold(self):
        qs = [11, 13, 17, 19, 23, 29]
        counts = []
        for threshold in (0.0, 0.01, 0.05, math.inf):
            result = verify_thm1_sweep(qs, "0:4", "0:4", "0:4", threshold=threshold)
            counts.append(result.exceptions)
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 0

    def test_thm1_runtime_covers_the_instance_build(self, monkeypatch):
        build = kforms.sweeps.build_instance

        def slow(*args):
            time.sleep(0.03)
            return build(*args)

        monkeypatch.setattr(kforms.sweeps, "build_instance", slow)
        result = verify_thm1_sweep([11, 13], "0:4", "0:4", "0:4")
        assert [r.runtime_ms >= 30 for r in result.reports] == [True, True]

    def test_thm2_requires_r_at_least_two(self):
        with pytest.raises(ValueError, match="r >= 2"):
            verify_thm2_sweep(20, 1, "0:4", "0:4", "0:4")

    def test_thm2_requires_Q_at_least_two(self):
        with pytest.raises(ValueError, match="Q must be >= 2, got 1"):
            verify_thm2_sweep(1, 2, "0:4", "0:4", "0:4")

    def test_work_budget_guard(self, no_table):
        # 7*q ring words ~ 2.8e8 exceed the default budget: the instance is
        # refused before its ring builds any table
        with pytest.raises(ValueError, match="dimension too large"):
            verify_thm1_sweep([40000003], "0:5", "0:5", "0:5")

    def test_spent_budget_runs_no_lemma_cell(self):
        result = verify_lemma_sweeps("2.4", grid={"r": 2, "Ks": [100]}, budget_ms=0)
        assert result.reports == [] and result.truncated

    def test_spent_budget_builds_no_table(self, no_table):
        grid = {"qs": [1000003], "ks": [0], "Hs": [10]}
        result = verify_lemma_sweeps("2.1", grid, budget_ms=0)
        assert result.reports == [] and result.truncated
        for lemma, grid in (("2.2", {"qs": [1000003], "intervals": [[0, 5]]}),
                            ("2.3", {"qs": [1000003], "Ks": [5]})):
            result = verify_lemma_sweeps(lemma, grid, budget_ms=0)
            assert result.reports == [] and result.truncated

    def test_default_energy_grid_builds_one_table_per_modulus(self, monkeypatch):
        built = []
        build = kforms.ring._unit_group
        monkeypatch.setattr(
            kforms.ring, "_unit_group", lambda q, *args: built.append(q) or build(q, *args)
        )
        result = verify_lemma_sweeps("2.2")
        qs = kforms.sweeps.DEFAULT_GRIDS["2.2"]["qs"]
        assert len(result.reports) == len(qs) * 25
        assert built == qs

    def test_moment_grid_lets_each_ring_go(self, monkeypatch):
        # the short cells tally residues and build no table; the cells at
        # H = q take the lattice FFT on their modulus's unit-group index, and
        # each ring is freed before the next modulus's first cell is counted
        rings, counted, indexed = [], [], []
        build, count = kforms.sweeps.build_ring, kforms.characters._product_energy
        index = kforms.ring._unit_group

        def tracked(q):
            ring = build(q)
            rings.append((q, weakref.ref(ring)))
            return ring

        def released(ring, a_interval, b_interval):
            assert all(ref() is None for p, ref in rings if p != ring.q)
            counted.append(ring.q)
            return count(ring, a_interval, b_interval)

        monkeypatch.setattr(kforms.sweeps, "build_ring", tracked)
        monkeypatch.setattr(kforms.characters, "_product_energy", released)
        monkeypatch.setattr(
            kforms.ring, "_unit_group", lambda q, *args: indexed.append(q) or index(q, *args)
        )
        result = verify_lemma_sweeps("2.1", {"qs": [101, 103], "ks": [0], "Hs": [5, 103]})
        assert [p for p, _ in rings] == [101, 103] and len(result.reports) == 4
        assert counted == [101, 101, 103, 103]
        assert indexed == [101, 103]

    @pytest.mark.parametrize("lemma, grid", [
        ("2.1", {"qs": [1009, 1013], "ks": [0], "Hs": [5, 1013]}),
        ("2.2", {"qs": [1009, 1013], "intervals": [[0, 5], [0, 1013]]}),
        ("2.3", {"qs": [1009, 1013], "Ks": [5, 20]}),
    ])
    def test_lemma_grids_hold_one_modulus_at_a_time(self, lemma, grid, monkeypatch):
        # each builder builds one ring per modulus, so the last modulus's
        # ring and its tables are freed before the next modulus's
        # unit-group index is built
        refs = []
        build, index = kforms.sweeps.build_ring, kforms.ring._unit_group

        def tracked(q):
            ring = build(q)
            refs.append((q, weakref.ref(ring)))
            return ring

        def indexed(q, *args):
            gc.collect()
            assert all(ref() is None for p, ref in refs if p != q), f"a ring is alive at q = {q}"
            return index(q, *args)

        monkeypatch.setattr(kforms.sweeps, "build_ring", tracked)
        monkeypatch.setattr(kforms.ring, "_unit_group", indexed)
        verify_lemma_sweeps(lemma, grid)
        assert [p for p, _ in refs] == [1009, 1013]

    def test_tally_side_moment_cells_build_no_ring(self, monkeypatch):
        # pairs of unit residues under the padded lattice FFT's price: counted
        # mod q, with no unit group, even past the ring's work budget
        def refuse(q, *args):
            raise AssertionError(f"_unit_group({q}) reached")

        monkeypatch.setattr(kforms.ring, "_unit_group", refuse)
        grid = {"qs": [10007, 1000003, 2000000011], "ks": [0, 7], "Hs": [50]}
        result = verify_lemma_sweeps("2.1", grid)
        assert len(result.reports) == 6
        for report in result.reports:
            q, k, H = (report.params[key] for key in ("q", "k", "H"))
            units = np.array([x for x in range(k + 1, k + H + 1) if math.gcd(x, q) == 1])
            products = (units[:, None] * units % q).reshape(-1)
            quadruples = int(np.sum(products[:, None] == products[None, :]))
            phi = kforms.ring.euler_phi(q)
            assert report.measured == float(phi * quadruples)
            assert report.reference == phi * (H * H * (1 + math.log(H)) + H**4 / q)

    def test_tally_side_energy_builds_no_ring(self, monkeypatch, capsys):
        # no product of 1..50 reaches q, so E counts a1*b1 = a2*b2 over Z
        def refuse(q, *args):
            raise AssertionError(f"_unit_group({q}) reached")

        monkeypatch.setattr(kforms.ring, "_unit_group", refuse)
        products = np.multiply.outer(np.arange(1, 51), np.arange(1, 51)).reshape(-1)
        energy = int(np.sum(np.unique(products, return_counts=True)[1] ** 2))
        q = 2000000011
        assert main(["energy", "--q", str(q), "--A", "0:50", "--B", "0:50"]) == 0
        assert f"E(A,B) = {energy} " in capsys.readouterr().out
        grid = {"qs": [q], "intervals": [[0, 50]]}
        assert main(["verify-lemma", "--lemma", "2.2", "--grid", json.dumps(grid)]) == 0
        (report,) = verify_lemma_sweeps("2.2", grid).reports
        assert report.measured == energy
        assert report.reference == 50**4 / q + 50**2

    def test_fft_side_moment_cells_build_one_table_per_modulus(self, monkeypatch):
        built = []
        build = kforms.ring._unit_group
        monkeypatch.setattr(
            kforms.ring, "_unit_group", lambda q, *args: built.append(q) or build(q, *args)
        )
        result = verify_lemma_sweeps("2.1", {"qs": [97, 101], "ks": [0, 3], "Hs": [97, 101]})
        assert len(result.reports) == 6  # H = 97 at q = 97; H = 97, 101 at q = 101
        assert built == [97, 101]

    @pytest.mark.parametrize(
        "lemma_grid",
        [kforms.sweeps.DEFAULT_GRIDS["2.1"], {"qs": [100003], "ks": [0], "Hs": [316]}],
        ids=["default", "q100003"],
    )
    def test_moment_cells_match_the_character_sums(self, lemma_grid):
        # the cells read the count; the character route must give the same moment
        result = verify_lemma_sweeps("2.1", lemma_grid)
        assert len(result.reports) > 0
        for report in result.reports:
            q, k, H = (report.params[key] for key in ("q", "k", "H"))
            moment = fourth_moment(build_characters(build_ring(q)), IntervalSet(k, H))
            assert abs(report.measured - moment) <= 1e-12 * moment, (q, k, H)

    def test_moment_cell_leaves_the_inverse_unbuilt(self, monkeypatch):
        rings, build = [], kforms.sweeps.build_ring

        def kept(q):
            rings.append(build(q))
            return rings[-1]

        monkeypatch.setattr(kforms.sweeps, "build_ring", kept)
        # H = 100 tallies residues; H = q builds the one ring, through the FFT
        result = verify_lemma_sweeps("2.1", {"qs": [20011], "ks": [0], "Hs": [100, 20011]})
        assert len(rings) == 1 and len(result.reports) == 2
        assert "inv_table" not in vars(rings[0])

    def test_extremal_thm1_case_leaves_the_inverse_unbuilt(self, monkeypatch):
        rings, build = [], kforms.sweeps.build_ring

        def kept(q):
            rings.append(build(q))
            return rings[-1]

        monkeypatch.setattr(kforms.sweeps, "build_ring", kept)
        result = verify_thm1_sweep([20011], "0:100", "-3:141", "5:141", mode="extremal")
        assert len(rings) == 1 and len(result.reports) == 1
        assert "inv_table" not in vars(rings[0])

    def test_complete_lemma_sweep_is_not_truncated(self):
        # the one cell outlasts the budget, but nothing is left out
        result = verify_lemma_sweeps("2.4", grid={"r": 2, "Ks": [500]}, budget_ms=1)
        assert len(result.reports) == 1 and result.reports[0].runtime_ms >= 1
        assert not result.truncated

    def test_invalid_lemma_grid(self):
        with pytest.raises(ValueError, match="unknown lemma"):
            verify_lemma_sweeps("9.9")
        with pytest.raises(ValueError, match="invalid grid"):
            verify_lemma_sweeps("2.1", grid={"qs": [5]})

    def test_lemma_grid_override(self):
        result = verify_lemma_sweeps("2.3", grid={"qs": [30, 60], "Ks": [5, 30]})
        assert len(result.reports) == 4
        assert all(r.ratio is not None for r in result.reports)


class TestRatioRule:
    @pytest.mark.parametrize("reference", [-2.0, 0.0, None])
    def test_none_at_a_degenerate_reference(self, reference):
        assert _ratio(3.0, reference) is None
        if reference is not None:
            assert make_report({}, 3.0, reference, time.perf_counter()).ratio is None

    def test_measured_over_reference(self):
        assert _ratio(3.0, 2.0) == 1.5
        assert make_report({}, 3.0, 2.0, time.perf_counter()).ratio == 1.5
