import csv
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import rankspec.harness as harness
from rankspec.cli import STUDIES, main
from rankspec.harness import Failure, load_records, rate_fit
from rankspec.kernels import SweepReport, SweepRow, inequality_sweep
from rankspec.linalg import CorrMatrix
from rankspec.regularize import TaperSpec, sparse_pca, taper_estimate


def write_sample(path, values):
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(values)


def load_matrix(path):
    with open(path, newline="") as handle:
        return np.array([[float(v) for v in row] for row in csv.reader(handle)])


def read_study(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["metric", "value"]
    return {name: float(value) for name, value in rows[1:]}


class TestEstimate:
    def test_three_row_worked_example(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_sample(src, [(1, 1), (2, 3), (3, 2)])
        assert main(["estimate", "--input", str(src), "--method", "tau",
                     "--output", str(out)]) == 0
        got = load_matrix(out)
        # tau = 1/3 from the three pairs, and sin(pi/6) = 1/2
        assert got == pytest.approx(np.array([[1.0, 0.5], [0.5, 1.0]]), abs=1e-15)
        assert got[0, 0] == 1.0 and got[1, 1] == 1.0

    def test_header_row_autodetected(self, tmp_path):
        bare = tmp_path / "bare.csv"
        headed = tmp_path / "headed.csv"
        write_sample(bare, [(1, 1), (2, 3), (3, 2)])
        write_sample(headed, [("alpha", "beta"), (1, 1), (2, 3), (3, 2)])
        for src, out in ((bare, "a.csv"), (headed, "b.csv")):
            assert main(["estimate", "--input", str(src), "--method", "rho",
                         "--output", str(tmp_path / out)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_both_methods_invariant_under_monotone_warp(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 4))
        write_sample(tmp_path / "x.csv", x.tolist())
        write_sample(tmp_path / "warp.csv", (x ** 3).tolist())
        for src, out in (("x.csv", "est.csv"), ("warp.csv", "west.csv")):
            assert main(["estimate", "--input", str(tmp_path / src),
                         "--method", "both",
                         "--output", str(tmp_path / out)]) == 0
        for method in ("tau", "rho"):
            first = (tmp_path / ("est.%s.csv" % method)).read_bytes()
            second = (tmp_path / ("west.%s.csv" % method)).read_bytes()
            assert first == second

    def test_outputs_are_valid_correlation_matrices(self, tmp_path):
        rng = np.random.default_rng(11)
        write_sample(tmp_path / "x.csv", rng.normal(size=(30, 5)).tolist())
        assert main(["estimate", "--input", str(tmp_path / "x.csv"),
                     "--method", "both", "--output", str(tmp_path / "m.csv")]) == 0
        for method in ("tau", "rho"):
            entries = load_matrix(tmp_path / ("m.%s.csv" % method))
            CorrMatrix(entries)

    def test_tied_column_reported(self, tmp_path, capsys):
        write_sample(tmp_path / "x.csv", [(1, 1, 5), (1, 2, 5), (3, 3, 6)])
        code = main(["estimate", "--input", str(tmp_path / "x.csv"),
                     "--method", "tau", "--output", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "columns 0, 2" in err
        assert not (tmp_path / "o.csv").exists()

    def test_malformed_inputs(self, tmp_path, capsys):
        out = str(tmp_path / "o.csv")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["estimate", "--input", str(empty), "--method", "tau",
                     "--output", out]) == 2
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1,2\n3\n")
        assert main(["estimate", "--input", str(ragged), "--method", "tau",
                     "--output", out]) == 2
        assert "line 2" in capsys.readouterr().err
        words = tmp_path / "words.csv"
        words.write_text("a,b\n1,2\n3,oops\n")
        assert main(["estimate", "--input", str(words), "--method", "tau",
                     "--output", out]) == 2
        assert "line 3" in capsys.readouterr().err
        numeric_header = tmp_path / "numeric_header.csv"
        numeric_header.write_text("1,beta\n2,3\n4,5\n")
        assert main(["estimate", "--input", str(numeric_header), "--method", "tau",
                     "--output", out]) == 2
        assert "line 1" in capsys.readouterr().err
        single = tmp_path / "single.csv"
        single.write_text("1,2\n")
        assert main(["estimate", "--input", str(single), "--method", "tau",
                     "--output", out]) == 2
        missing = tmp_path / "missing.csv"
        assert main(["estimate", "--input", str(missing), "--method", "tau",
                     "--output", out]) == 2

    def test_taper_output_matches_library(self, tmp_path):
        rng = np.random.default_rng(3)
        write_sample(tmp_path / "x.csv", rng.normal(size=(25, 6)).tolist())
        out = tmp_path / "m.csv"
        assert main(["estimate", "--input", str(tmp_path / "x.csv"),
                     "--method", "tau", "--output", str(out),
                     "--taper-k", "2"]) == 0
        plain = load_matrix(out)
        tapered = load_matrix(tmp_path / "m.taper.csv")
        expected = taper_estimate(CorrMatrix(plain), TaperSpec(2)).entries
        assert tapered == pytest.approx(expected, abs=0)
        assert main(["estimate", "--input", str(tmp_path / "x.csv"),
                     "--method", "tau", "--output", str(out),
                     "--taper-k", "0"]) == 2

    def test_sparse_report_matches_library(self, tmp_path):
        rng = np.random.default_rng(8)
        write_sample(tmp_path / "x.csv", rng.normal(size=(30, 5)).tolist())
        out = tmp_path / "m.csv"
        assert main(["estimate", "--input", str(tmp_path / "x.csv"),
                     "--method", "tau", "--output", str(out),
                     "--sparse-pca-s", "2"]) == 0
        picked = sparse_pca(CorrMatrix(load_matrix(out)), 2)
        with open(tmp_path / "m.sparse_pca.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 5
        support = tuple(int(r["index"]) for r in rows if r["in_support"] == "1")
        assert support == picked.support
        vec = np.array([float(r["vector_entry"]) for r in rows])
        assert vec == pytest.approx(picked.leading_vector, abs=0)

    def test_sparse_guard_exit(self, tmp_path):
        rng = np.random.default_rng(1)
        write_sample(tmp_path / "x.csv", rng.normal(size=(50, 40)).tolist())
        code = main(["estimate", "--input", str(tmp_path / "x.csv"),
                     "--method", "tau", "--output", str(tmp_path / "o.csv"),
                     "--sparse-pca-s", "12"])
        assert code == 3

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--sparse-pca-s", "41"], 2),
            (["--sparse-pca-s", "0"], 2),
            (["--sparse-pca-s", "12"], 3),
            (["--taper-k", "0"], 2),
            (["--taper-k", "8", "--sparse-pca-s", "41"], 2),
        ],
        ids=["s-above-d", "s-zero", "s-past-guard", "k-zero", "s-above-d-with-k"],
    )
    def test_bad_flags_fail_before_estimating(self, tmp_path, monkeypatch, flags, code):
        import rankspec.cli as cli

        def never(method, data):
            raise AssertionError("estimated before checking the flags")

        monkeypatch.setattr(cli, "_estimate", never)
        rng = np.random.default_rng(1)
        write_sample(tmp_path / "x.csv", rng.normal(size=(50, 40)).tolist())
        out = tmp_path / "out"
        out.mkdir()
        assert main(["estimate", "--input", str(tmp_path / "x.csv"), "--method", "both",
                     "--output", str(out / "o.csv")] + flags) == code
        assert os.listdir(out) == []

    def test_bad_flag_reported_before_ties(self, tmp_path, capsys):
        write_sample(tmp_path / "x.csv", [(1, 1, 5), (1, 2, 5), (3, 3, 6)])
        code = main(["estimate", "--input", str(tmp_path / "x.csv"), "--method", "tau",
                     "--output", str(tmp_path / "o.csv"), "--taper-k", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bandwidth k" in err and "tied" not in err

    def test_dimension_guard_exit(self, tmp_path, capsys):
        write_sample(tmp_path / "wide.csv", np.arange(3 * 1025.0).reshape(3, 1025).tolist())
        code = main(["estimate", "--input", str(tmp_path / "wide.csv"),
                     "--method", "tau", "--output", str(tmp_path / "o.csv")])
        assert code == 3
        assert "dimension guard" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_module_entry_point(self, tmp_path):
        src = tmp_path / "in.csv"
        write_sample(src, [(1, 1), (2, 3), (3, 2)])
        proc = subprocess.run(
            [sys.executable, "-m", "rankspec.cli", "estimate",
             "--input", str(src), "--method", "tau",
             "--output", str(tmp_path / "out.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "wrote" in proc.stdout


class TestStudies:
    def run_tiny_thm1(self, tmp_path, name, extra=()):
        out = tmp_path / name
        args = ["simulate", "--preset", "thm1", "--seed", "7", "--reps", "2",
                "--n-grid", "100,200", "--out-dir", str(out)]
        return main(args + list(extra)), out

    def test_tiny_thm1_counts_and_metrics(self, tmp_path):
        code, out = self.run_tiny_thm1(tmp_path, "run")
        assert code == 0
        records = load_records(out / "records.csv")
        # 2 sample sizes x 2 replicates x 3 estimators
        assert len(records.records) == 12
        study = read_study(out / "study.csv")
        assert math.isnan(study["slope_tau"])
        assert study["target_slope"] == -0.5
        assert 0.0 < study["ratio_thm1_oracle"] < 1.0
        assert study["ratio_thm1_tau"] > 0.0
        assert (out / "summary.csv").exists()

    def test_same_seed_byte_identical(self, tmp_path, monkeypatch):
        _, first = self.run_tiny_thm1(tmp_path, "a")
        _, second = self.run_tiny_thm1(tmp_path, "b")
        monkeypatch.setenv("RANKSPEC_THREADS", "3")
        _, third = self.run_tiny_thm1(tmp_path, "c")
        for name in ("records.csv", "summary.csv", "study.csv"):
            data = (first / name).read_bytes()
            assert (second / name).read_bytes() == data
            assert (third / name).read_bytes() == data

    def test_assert_gates_tiny_run_fails(self, tmp_path, capsys):
        code, _ = self.run_tiny_thm1(tmp_path, "gated", extra=["--assert"])
        assert code == 1
        assert "assert failed" in capsys.readouterr().err

    def test_assert_fails_on_replicate_failures(self, tmp_path, capsys, monkeypatch):
        # with no metric gates, replicate failures alone must fail --assert
        monkeypatch.setitem(STUDIES, "thm4", replace(STUDIES["thm4"], gates=()))
        real = harness._evaluate
        calls = []

        def flaky(*args):
            calls.append(None)
            if len(calls) % 7 == 0:
                raise ValueError("injected")
            return real(*args)

        monkeypatch.setattr(harness, "_evaluate", flaky)
        argv = ["pca-study", "--preset", "thm4", "--seed", "7", "--reps", "3",
                "--n-grid", "100,200,400", "--out-dir", str(tmp_path / "t4")]
        assert main(argv) == 0
        assert ("warning: 1 replicate failures recorded; first: "
                "functional proj_dist_k2: injected") in capsys.readouterr().err
        calls.clear()
        assert main(argv + ["--assert"]) == 1
        err = capsys.readouterr().err
        assert ("assert failed: 1 replicate failures; first: "
                "functional proj_dist_k2: injected") in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_replicates_failed(self, tmp_path, capsys, monkeypatch):
        # metrics of an empty functional are nan, study.csv is still
        # written, and --assert fails naming the first reason
        def broken(*args):
            raise ValueError("injected")

        monkeypatch.setattr(harness, "_evaluate", broken)
        for preset, nan_metrics in (
            ("thm1", ("ratio_thm1_tau",)),
            ("thm2", ("ratio_thm2_q95",)),
            ("thm3", ("slope_sq", "kcurve_mse_k2", "kcurve_mse_k32",
                      "kcurve_argmin_k", "kcurve_interior")),
            ("thm5", ("slope_median", "median_inversions", "recovery_at_nmax")),
        ):
            out = tmp_path / preset
            argv = [STUDIES[preset].command, "--preset", preset, "--seed", "7",
                    "--reps", "2", "--n-grid", "100,200", "--out-dir", str(out),
                    "--assert"]
            assert main(argv) == 1
            study = read_study(out / "study.csv")
            assert [name for name in nan_metrics if not math.isnan(study[name])] == []
            err = capsys.readouterr().err
            assert "replicate failures; first: functional" in err
            assert "injected" in err

    def test_blas_threads_do_not_change_output(self, tmp_path):
        outputs = []
        for blas in ("1", "2"):
            out = tmp_path / ("blas%s" % blas)
            proc = subprocess.run(
                [sys.executable, "-m", "rankspec.cli", "simulate", "--preset", "thm1",
                 "--seed", "7", "--reps", "3", "--out-dir", str(out)],
                capture_output=True, text=True,
                env=dict(os.environ, OPENBLAS_NUM_THREADS=blas),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(
                [(out / name).read_bytes()
                 for name in ("records.csv", "summary.csv", "study.csv")]
            )
        assert outputs[0] == outputs[1]

    def test_thm2_ratio_metric(self, tmp_path):
        out = tmp_path / "s2"
        assert main(["simulate", "--preset", "thm2", "--seed", "5",
                     "--reps", "3", "--n-grid", "150,300",
                     "--out-dir", str(out)]) == 0
        study = read_study(out / "study.csv")
        assert math.isfinite(study["ratio_thm2_q95"])
        assert study["ratio_thm2_q95"] > 0.0

    def test_taper_study_summary_fields(self, tmp_path):
        out = tmp_path / "t3"
        assert main(["taper-study", "--preset", "thm3", "--seed", "3",
                     "--reps", "2", "--n-grid", "200,400,800",
                     "--out-dir", str(out)]) == 0
        study = read_study(out / "study.csv")
        assert study["target_slope"] == pytest.approx(-2.0 / 3.0)
        assert math.isfinite(study["slope_sq"])
        assert study["kcurve_n"] == 400.0
        assert study["kcurve_argmin_k"] in (2.0, 4.0, 8.0, 16.0, 32.0)
        assert study["kcurve_interior"] in (0.0, 1.0)
        curve = [study["kcurve_mse_k%d" % k] for k in (2, 4, 8, 16, 32)]
        assert min(curve) == study["kcurve_mse_k%d" % int(study["kcurve_argmin_k"])]

    def test_pca_study_presets(self, tmp_path):
        out4 = tmp_path / "t4"
        assert main(["pca-study", "--preset", "thm4", "--seed", "2",
                     "--reps", "2", "--n-grid", "100,200",
                     "--out-dir", str(out4)]) == 0
        study = read_study(out4 / "study.csv")
        assert study["target_slope"] == -0.5
        out5 = tmp_path / "t5"
        assert main(["pca-study", "--preset", "thm5", "--seed", "2",
                     "--reps", "3", "--n-grid", "100,200,400",
                     "--out-dir", str(out5)]) == 0
        study = read_study(out5 / "study.csv")
        assert 0.0 <= study["recovery_at_nmax"] <= 1.0
        assert study["median_inversions"] >= 0.0
        assert study["nmax"] == 400.0

    def test_presets_are_command_specific(self, tmp_path):
        assert main(["simulate", "--preset", "thm3",
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert main(["taper-study", "--preset", "thm1",
                     "--out-dir", str(tmp_path / "x")]) == 2

    def test_out_dir_created_recursively(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        code, _ = self.run_tiny_thm1(tmp_path, str(out))
        assert code == 0
        assert (out / "records.csv").exists()

    def test_bad_grid_and_threads(self, tmp_path, monkeypatch):
        assert main(["simulate", "--preset", "thm1", "--n-grid", "100,abc",
                     "--out-dir", str(tmp_path / "x")]) == 2
        code, _ = self.run_tiny_thm1(tmp_path, "z", extra=["--threads", "0"])
        assert code == 2
        monkeypatch.setenv("RANKSPEC_THREADS", "soup")
        code, _ = self.run_tiny_thm1(tmp_path, "w")
        assert code == 2

    def test_rate_fit_matches_library(self, tmp_path, capsys):
        out = tmp_path / "t3"
        main(["taper-study", "--preset", "thm3", "--seed", "3", "--reps", "2",
              "--n-grid", "200,400,800", "--out-dir", str(out)])
        capsys.readouterr()
        code = main(["rate-fit", "--input", str(out / "records.csv"),
                     "--functional", "taper_err_a1", "--vary", "n",
                     "--power", "2"])
        assert code == 0
        fields = capsys.readouterr().out.split()
        assert fields[0] == "slope" and fields[2] == "stderr"
        expected = rate_fit(
            load_records(out / "records.csv"), "taper_err_a1", vary="n", power=2.0
        )
        assert float(fields[1]) == expected[0]
        assert float(fields[3]) == expected[1]

    def test_rate_fit_input_errors(self, tmp_path):
        missing = str(tmp_path / "none.csv")
        assert main(["rate-fit", "--input", missing,
                     "--functional", "spec_err"]) == 2
        path = tmp_path / "r.csv"
        path.write_text("n,d,estimator,functional,replicate,value\n100,5,tau,spec_err,0,0.1\n")
        assert main(["rate-fit", "--input", str(path),
                     "--functional", "max_err"]) == 2


class TestGateLogic:
    def test_thm1_gates(self):
        gate_failures = STUDIES["thm1"].gate_failures
        ceilings = {name: high for name, _, high in STUDIES["thm1"].gates}
        good = [("slope_tau", -0.5), ("slope_rho", -0.45),
                ("ratio_thm1_tau", 0.9 * ceilings["ratio_thm1_tau"]),
                ("ratio_thm1_rho", 0.9 * ceilings["ratio_thm1_rho"]),
                ("ratio_thm1_oracle", 0.3)]
        assert gate_failures(good) == []
        bad = dict(good)
        bad["slope_tau"] = -0.2
        bad["ratio_thm1_oracle"] = 1.2
        failures = gate_failures(list(bad.items()))
        assert len(failures) == 2
        assert any("slope_tau" in f for f in failures)
        assert any("oracle" in f for f in failures)

    def test_nan_metrics_fail(self):
        failures = STUDIES["thm3"].gate_failures(
            [("slope_sq", math.nan), ("kcurve_interior", 1.0)]
        )
        assert any("slope_sq" in f for f in failures)

    def test_thm5_gates(self):
        gate_failures = STUDIES["thm5"].gate_failures
        good = [("slope_median", -0.5), ("median_inversions", 1.0),
                ("recovery_at_nmax", 0.95)]
        assert gate_failures(good) == []
        worse = [("slope_median", -0.5), ("median_inversions", 2.0),
                 ("recovery_at_nmax", 0.2)]
        assert gate_failures(worse) == [
            "median_inversions=2 exceeds 1",
            "recovery_at_nmax=0.2 below 0.8",
        ]

    def test_replicate_failures_fail(self):
        good = [("slope", -0.5)]
        failure = Failure(250, 10, "tau", "proj_dist_k2", 3, "functional proj_dist_k2: x")
        assert STUDIES["thm4"].gate_failures(good, ()) == []
        assert STUDIES["thm4"].gate_failures(good, (failure, failure)) == [
            "2 replicate failures; first: functional proj_dist_k2: x"
        ]


class TestKernelCheck:
    def test_sweep_passes_and_writes(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["kernel-check", "--grid-size", "15",
                     "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) >= 4
        assert all(float(r["min_slack"]) >= -1e-9 for r in rows)
        printed = capsys.readouterr().out
        assert "worst slack" in printed

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        assert main(["kernel-check", "--grid-size", "9", "--out", str(path)]) == 0
        report = inequality_sweep(grid_size=9)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["inequality", "min_slack", "arg_x", "arg_y", "arg_rho"]
        assert len(rows) == 5
        for parsed, row in zip(rows[1:], report.rows):
            assert parsed[0] == row.inequality
            assert float(parsed[1]) == row.min_slack
            assert float(parsed[4]) == row.arg_rho

    def test_grid_guard(self, tmp_path, capsys):
        # refused before any grid is built, so the oversized sweep never runs
        out = tmp_path / "s.csv"
        assert main(["kernel-check", "--grid-size", "202", "--out", str(out)]) == 3
        assert "grid guard 201" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_too_small(self, tmp_path):
        assert main(["kernel-check", "--grid-size", "2",
                     "--out", str(tmp_path / "s.csv")]) == 2

    def test_failing_sweep_exits_one(self, tmp_path, capsys, monkeypatch):
        import rankspec.cli as cli

        row = SweepRow("fake_bound", -0.5, 0.0, 0.0, 0.0)
        monkeypatch.setattr(
            cli, "inequality_sweep", lambda grid_size: SweepReport((row,))
        )
        code = main(["kernel-check", "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "fake_bound" in capsys.readouterr().err


class TestParserPlumbing:
    def test_missing_subcommand(self):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "estimate" in capsys.readouterr().out

    def test_missing_required_flags(self):
        assert main(["estimate"]) == 2
        assert main(["simulate", "--preset", "thm1"]) == 2

    def test_unknown_flag(self, tmp_path):
        assert main(["kernel-check", "--out", str(tmp_path / "s.csv"),
                     "--plot"]) == 2
