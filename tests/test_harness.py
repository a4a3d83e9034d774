import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankspec.copula import SigmaModel, realize_sigma, sample_latent
from rankspec.errors import GuardExceededError, InputError, TieError
from rankspec.harness import (
    ExperimentConfig,
    ExperimentResult,
    Failure,
    Functional,
    Record,
    _write_csv,
    bound_ratio,
    load_records,
    rate_fit,
    read_csv_rows,
    replicate_seed,
    run_experiment,
    trend_inversions,
    write_records_csv,
    write_summary_csv,
)
from rankspec.linalg import SymMatrix, spectral_norm
from rankspec.rankest import kendall_tau_matrix, sigma_hat_tau


def ar1_cfg(**kwargs):
    base = dict(
        model=SigmaModel.ar1(0.5, 4),
        estimators=("tau",),
        n_grid=(100,),
        d_grid=(4,),
        functionals=(Functional.spec_err(),),
        reps=1,
        seed=20260814,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def where(result, **fields):
    """Records of result whose attributes equal fields, without a config."""
    return ExperimentResult(
        records=tuple(
            r for r in result.records
            if all(getattr(r, key) == value for key, value in fields.items())
        )
    )


def synthetic(values_by_cell, estimator="tau", functional="spec_err"):
    records = []
    for (n, d), values in values_by_cell.items():
        for i, v in enumerate(values):
            records.append(Record(n, d, estimator, functional, i, v))
    return ExperimentResult(records=tuple(records))


class TestFunctional:
    def test_labels(self):
        assert Functional.spec_err().label == "spec_err"
        assert Functional.max_err().label == "max_err"
        assert Functional.sparse_spec_err(3).label == "sparse_spec_err_s3"
        assert Functional.taper_err(k=4).label == "taper_err_k4"
        assert Functional.taper_err(alpha=0.5).label == "taper_err_a0.5"
        assert Functional.sin_angle_sparse(2).label == "sin_angle_sparse_s2"
        assert Functional.proj_dist(2).label == "proj_dist_k2"
        assert Functional.support_recovery(3).label == "support_recovery_s3"
        assert Functional.hoeffding_report().label == "hoeffding_report"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown functional"):
            Functional(name="frobenius_err")

    def test_spurious_parameter(self):
        with pytest.raises(ValueError, match="takes no s"):
            Functional(name="spec_err", s=3)
        with pytest.raises(ValueError, match="takes no k"):
            Functional(name="sparse_spec_err", s=2, k=1)

    def test_taper_err_takes_exactly_one_parameter(self):
        with pytest.raises(ValueError, match="exactly one"):
            Functional.taper_err()
        with pytest.raises(ValueError, match="exactly one"):
            Functional.taper_err(k=2, alpha=1.0)
        with pytest.raises(ValueError):
            Functional.taper_err(k=0)
        with pytest.raises(ValueError, match="alpha"):
            Functional.taper_err(alpha=0.0)

    def test_integer_parameters(self):
        with pytest.raises(ValueError):
            Functional.sparse_spec_err(0)
        with pytest.raises(ValueError, match="integer"):
            Functional.sparse_spec_err(2.0)
        with pytest.raises(ValueError, match="integer"):
            Functional.proj_dist(True)


class TestExperimentConfig:
    def test_estimators_canonical_order(self):
        cfg = ar1_cfg(estimators=("oracle", "rho", "tau"))
        assert cfg.estimators == ("tau", "rho", "oracle")

    def test_estimator_validation(self):
        with pytest.raises(ValueError, match="unknown estimators"):
            ar1_cfg(estimators=("tau", "pearson"))
        with pytest.raises(ValueError, match="distinct"):
            ar1_cfg(estimators=("tau", "tau"))
        with pytest.raises(ValueError):
            ar1_cfg(estimators=())

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="n_grid"):
            ar1_cfg(n_grid=())
        with pytest.raises(ValueError, match="at least 2"):
            ar1_cfg(n_grid=(1,))
        with pytest.raises(ValueError, match="distinct"):
            ar1_cfg(n_grid=(100, 100))
        with pytest.raises(ValueError, match="integers"):
            ar1_cfg(n_grid=(100.0,))
        with pytest.raises(ValueError, match="d_grid"):
            ar1_cfg(d_grid=(0,))

    def test_reps_and_seed_validation(self):
        with pytest.raises(ValueError, match="reps"):
            ar1_cfg(reps=0)
        with pytest.raises(ValueError, match="seed"):
            ar1_cfg(seed=-1)
        with pytest.raises(ValueError, match="seed"):
            ar1_cfg(seed=2**64)

    def test_transform_template_canonicalized(self):
        cfg = ar1_cfg(transforms=["softsign", "cube"])
        assert cfg.transforms == ("softsign", "cube")
        with pytest.raises(ValueError, match="unknown transform"):
            ar1_cfg(transforms=("sigmoid",))

    def test_functional_labels_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            ar1_cfg(functionals=(Functional.spec_err(), Functional.spec_err()))
        with pytest.raises(ValueError, match="Functional"):
            ar1_cfg(functionals=("spec_err",))
        with pytest.raises(ValueError):
            ar1_cfg(functionals=())

    def test_sparse_support_must_fit_smallest_dimension(self):
        with pytest.raises(ValueError, match="s <= every d"):
            ar1_cfg(d_grid=(4, 8), functionals=(Functional.sparse_spec_err(5),))

    def test_enumeration_guard(self):
        with pytest.raises(GuardExceededError, match="enumeration guard"):
            ar1_cfg(d_grid=(40,), functionals=(Functional.sparse_spec_err(10),))

    def test_dimension_guard(self):
        with pytest.raises(GuardExceededError, match="dimension guard"):
            ar1_cfg(d_grid=(2048,))

    def test_proj_dist_needs_room(self):
        with pytest.raises(ValueError, match="k < every d"):
            ar1_cfg(d_grid=(4,), functionals=(Functional.proj_dist(4),))

    def test_latent_diagnostics_are_tau_only(self):
        with pytest.raises(ValueError, match="estimators="):
            ar1_cfg(
                estimators=("tau", "rho"),
                functionals=(Functional.hoeffding_report(),),
            )
        with pytest.raises(ValueError, match="estimators="):
            ar1_cfg(estimators=("rho",), functionals=(Functional.hoeffding_report(),))

    def test_model_must_realize_at_every_dimension(self):
        with pytest.raises(ValueError, match="s <= dim"):
            ar1_cfg(model=SigmaModel.spiked(2.0, 3, 10), d_grid=(2,))

    def test_cells_cross_product_order(self):
        cfg = ar1_cfg(n_grid=(100, 200), d_grid=(4, 8))
        assert cfg.cells == ((100, 4), (100, 8), (200, 4), (200, 8))


class TestReplicateSeed:
    def test_deterministic_and_distinct(self):
        seeds = [replicate_seed(9, c, r) for c in range(3) for r in range(4)]
        assert seeds == [replicate_seed(9, c, r) for c in range(3) for r in range(4)]
        assert len(set(seeds)) == len(seeds)
        assert all(0 <= s < 2**64 for s in seeds)

    def test_cell_reproducible_without_running_the_grid(self):
        cfg = ar1_cfg(n_grid=(60, 120), reps=2)
        res = run_experiment(cfg)
        # cell index 1 is (120, 4); rebuild its second replicate by hand
        sigma = realize_sigma(SigmaModel.ar1(0.5, 4))
        x = sample_latent(sigma, 120, replicate_seed(cfg.seed, 1, 1))
        est = sigma_hat_tau(kendall_tau_matrix(x))
        value = spectral_norm(SymMatrix(est.entries - sigma.entries))
        rec = [r for r in res.records if r.n == 120 and r.replicate == 1]
        assert len(rec) == 1
        assert rec[0].value == value


class TestRunExperiment:
    def test_single_cell_single_record(self):
        cfg = ar1_cfg(n_grid=(100,), d_grid=(5,))
        res = run_experiment(cfg)
        assert len(res.records) == 1
        r = res.records[0]
        assert (r.n, r.d, r.estimator, r.functional, r.replicate) == (
            100, 5, "tau", "spec_err", 0,
        )
        assert res.failures == ()

    def test_record_count_matches_grid(self):
        cfg = ar1_cfg(
            estimators=("tau", "rho"),
            n_grid=(50, 100),
            d_grid=(3, 6),
            functionals=(Functional.spec_err(), Functional.max_err()),
            reps=3,
        )
        res = run_experiment(cfg)
        assert len(res.records) == 4 * 3 * 2 * 2
        assert len(res.summary) == 4 * 2 * 2

    def test_same_seed_bit_identical(self):
        cfg = ar1_cfg(n_grid=(80, 160), reps=3, estimators=("tau", "oracle"))
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        assert first.records == second.records
        assert first.summary == second.summary

    def test_schedule_independence(self):
        cfg = ar1_cfg(
            estimators=("tau", "rho"),
            n_grid=(60, 120),
            d_grid=(4, 8),
            functionals=(Functional.spec_err(), Functional.max_err()),
            reps=3,
        )
        assert run_experiment(cfg, threads=1) == run_experiment(cfg, threads=4)

    def test_threads_validation(self):
        cfg = ar1_cfg()
        with pytest.raises(ValueError, match="threads"):
            run_experiment(cfg, threads=0)
        with pytest.raises(ValueError, match="integer"):
            run_experiment(cfg, threads=True)
        with pytest.raises(ValueError, match="ExperimentConfig"):
            run_experiment("thm1")

    def test_rank_records_invariant_under_transforms_oracle_not(self):
        base = dict(
            model=SigmaModel.ar1(0.5, 4),
            estimators=("tau", "rho", "oracle"),
            n_grid=(250,),
            d_grid=(6,),
            functionals=(Functional.spec_err(), Functional.max_err()),
            reps=2,
            seed=314,
        )
        plain = run_experiment(ExperimentConfig(**base))
        warped = run_experiment(
            ExperimentConfig(**base, transforms=("cube", "expshift", "softsign"))
        )
        ranks_plain = [r for r in plain.records if r.estimator != "oracle"]
        ranks_warped = [r for r in warped.records if r.estimator != "oracle"]
        assert ranks_plain == ranks_warped
        oracle_plain = [r.value for r in plain.records if r.estimator == "oracle"]
        oracle_warped = [r.value for r in warped.records if r.estimator == "oracle"]
        assert oracle_plain != oracle_warped

    def test_identity_spectral_error_is_small(self):
        # population is exactly the identity; the tau estimate at n=2000
        # should sit well inside the 0.35 gate for its median error
        cfg = ar1_cfg(model=SigmaModel.ar1(0.0, 5), n_grid=(2000,), d_grid=(5,), reps=15)
        res = run_experiment(cfg)
        assert realize_sigma(SigmaModel.ar1(0.0, 5)).entries == pytest.approx(np.eye(5))
        assert res.summary[0].q50 <= 0.35

    def test_sampling_failure_recorded_and_run_continues(self, monkeypatch):
        import rankspec.harness as harness

        real = harness.sample_latent
        calls = []

        def flaky(sigma, n, seed):
            calls.append(seed)
            if len(calls) == 2:
                raise TieError([0], "tied values generated in column 0 twice")
            return real(sigma, n, seed)

        monkeypatch.setattr(harness, "sample_latent", flaky)
        cfg = ar1_cfg(n_grid=(60,), reps=3)
        res = run_experiment(cfg)
        assert len(res.records) == 2
        assert len(res.failures) == 1
        failure = res.failures[0]
        assert failure.replicate == 1
        assert failure.reason.startswith("sampling:")
        assert "column 0" in failure.reason

    def test_estimator_failure_keeps_other_estimators(self, monkeypatch):
        import rankspec.harness as harness

        def broken(y):
            raise TieError([2])

        monkeypatch.setattr(harness, "kendall_tau_matrix", broken)
        cfg = ar1_cfg(
            estimators=("tau", "rho"),
            n_grid=(60,),
            functionals=(Functional.spec_err(), Functional.max_err()),
            reps=2,
        )
        res = run_experiment(cfg)
        assert all(r.estimator == "rho" for r in res.records)
        assert len(res.records) == 4
        assert len(res.failures) == 4
        assert all(f.estimator == "tau" for f in res.failures)
        assert all(f.reason.startswith("estimator tau:") for f in res.failures)

    def test_functional_failure_is_per_record(self, monkeypatch):
        import rankspec.harness as harness

        def broken(sigma_true, sigma_hat, k):
            raise ValueError("degenerate eigengap in second matrix")

        monkeypatch.setattr(harness, "pca_projections_compare", broken)
        cfg = ar1_cfg(
            n_grid=(60,),
            functionals=(Functional.spec_err(), Functional.proj_dist(1)),
            reps=2,
        )
        res = run_experiment(cfg)
        assert [r.functional for r in res.records] == ["spec_err", "spec_err"]
        assert len(res.failures) == 2
        assert all(f.functional == "proj_dist_k1" for f in res.failures)
        assert all(f.reason.startswith("functional proj_dist_k1:") for f in res.failures)

    def test_sparse_direction_enumerated_once_per_estimate(self, monkeypatch):
        import rankspec.harness as harness

        real = harness.sparse_pca
        calls = []

        def counted(sigma, s):
            calls.append(s)
            return real(sigma, s)

        monkeypatch.setattr(harness, "sparse_pca", counted)
        cfg = ar1_cfg(
            model=SigmaModel.spiked(2.0, 3, 8),
            estimators=("tau", "rho"),
            n_grid=(100, 200),
            d_grid=(8,),
            functionals=(Functional.sin_angle_sparse(3), Functional.support_recovery(3)),
            reps=2,
        )
        res = run_experiment(cfg)
        assert not res.failures
        # one for the population direction, then one per (replicate, estimator)
        assert len(calls) == 1 + 2 * 2 * 2

    def test_sparse_failure_reported_per_functional(self, monkeypatch):
        import rankspec.harness as harness

        real = harness.sparse_pca
        calls = []

        def broken(sigma, s):
            calls.append(s)
            if len(calls) == 1:  # the population direction
                return real(sigma, s)
            raise ValueError("enumeration failed")

        monkeypatch.setattr(harness, "sparse_pca", broken)
        cfg = ar1_cfg(
            model=SigmaModel.spiked(2.0, 3, 8),
            n_grid=(100,),
            d_grid=(8,),
            functionals=(Functional.sin_angle_sparse(3), Functional.support_recovery(3)),
            reps=1,
        )
        res = run_experiment(cfg)
        assert not res.records
        # a failed enumeration is not cached: each functional retries it
        assert len(calls) == 3
        assert [f.reason for f in res.failures] == [
            "functional sin_angle_sparse_s3: enumeration failed",
            "functional support_recovery_s3: enumeration failed",
        ]

    def test_degenerate_population_gap_aborts(self):
        # compound(0) realizes the identity, whose top eigengap vanishes
        cfg = ar1_cfg(
            model=SigmaModel.compound(0.0, 4),
            functionals=(Functional.proj_dist(1),),
        )
        with pytest.raises(ValueError, match="population eigengap"):
            run_experiment(cfg)

    def test_monotone_error_shape_over_grid(self):
        cfg = ar1_cfg(
            n_grid=(100, 200, 400),
            d_grid=(4, 8, 16),
            reps=6,
            seed=99,
        )
        res = run_experiment(cfg)
        for d in cfg.d_grid:
            sliced = where(res, d=d)
            assert trend_inversions(sliced, "spec_err", vary="n") <= 1
        # error grows with d: at most one step of the per-d means falls
        for n in cfg.n_grid:
            means = [
                np.mean([r.value for r in res.records if (r.n, r.d) == (n, d)])
                for d in cfg.d_grid
            ]
            assert int((np.diff(means) < 0).sum()) <= 1


class TestResultContainers:
    def test_record_value_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Record(100, 5, "tau", "spec_err", 0, math.nan)

    def test_record_count_invariant_with_config(self):
        cfg = ar1_cfg(reps=2)
        with pytest.raises(ValueError, match="expected 2 records"):
            ExperimentResult(records=(), config=cfg)
        # failures explain missing records, so the count check stands down
        failure = Failure(100, 4, "tau", "spec_err", 0, "sampling: tied")
        partial = ExperimentResult(
            records=(Record(100, 4, "tau", "spec_err", 1, 0.1),),
            failures=(failure, failure),
            config=cfg,
        )
        assert len(partial.records) == 1

    def test_summary_statistics(self):
        res = synthetic({(100, 5): [0.2, 0.4, 0.6, 0.8], (200, 5): [0.1]})
        by_n = {row.n: row for row in res.summary}
        assert by_n[100].count == 4
        assert by_n[100].mean == pytest.approx(0.5)
        assert by_n[100].sd == pytest.approx(np.std([0.2, 0.4, 0.6, 0.8], ddof=1))
        assert by_n[100].q50 == pytest.approx(0.5)
        assert by_n[100].q05 == pytest.approx(np.quantile([0.2, 0.4, 0.6, 0.8], 0.05))
        assert by_n[200].count == 1
        assert by_n[200].sd == 0.0
        assert by_n[200].mean == by_n[200].q50 == pytest.approx(0.1)

    def test_summary_groups_in_first_seen_order(self):
        records = (
            Record(200, 5, "tau", "spec_err", 0, 0.3),
            Record(100, 5, "tau", "spec_err", 0, 0.2),
            Record(200, 5, "tau", "spec_err", 1, 0.4),
        )
        res = ExperimentResult(records=records)
        assert [row.n for row in res.summary] == [200, 100]


class TestRateFit:
    def test_exact_power_law(self):
        res = synthetic({(n, 5): [n ** -0.5] for n in (100, 200, 400, 800)})
        slope, stderr = rate_fit(res, "spec_err", vary="n")
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_constant_series(self):
        res = synthetic({(n, 5): [0.7] for n in (100, 200, 400)})
        slope, stderr = rate_fit(res, "spec_err", vary="n")
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_power_squares_the_series(self):
        res = synthetic({(n, 5): [n ** -0.5] for n in (100, 200, 400)})
        slope, _ = rate_fit(res, "spec_err", vary="n", power=2.0)
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_median_statistic_ignores_outlier(self):
        res = synthetic({(n, 5): [1.0 / n, 1.0 / n, 50.0] for n in (100, 200, 400)})
        slope, _ = rate_fit(res, "spec_err", vary="n", stat="median")
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_varying_d(self):
        res = synthetic({(100, d): [math.sqrt(d)] for d in (4, 8, 16)})
        slope, _ = rate_fit(res, "spec_err", vary="d")
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_needs_three_points(self):
        res = synthetic({(100, 5): [0.2], (200, 5): [0.1]})
        with pytest.raises(ValueError, match="at least 3"):
            rate_fit(res, "spec_err", vary="n")

    def test_rejects_mixed_other_axis(self):
        res = synthetic({(n, d): [0.1] for n in (100, 200, 400) for d in (5, 10)})
        with pytest.raises(ValueError, match="fix that axis"):
            rate_fit(res, "spec_err", vary="n")

    def test_rejects_nonpositive_aggregate(self):
        res = synthetic({(n, 5): [0.0] for n in (100, 200, 400)})
        with pytest.raises(ValueError, match="positive"):
            rate_fit(res, "spec_err", vary="n")

    def test_estimator_disambiguation(self):
        records = tuple(
            Record(n, 5, est, "spec_err", 0, n ** -0.5 * scale)
            for n in (100, 200, 400)
            for est, scale in (("tau", 1.0), ("rho", 2.0))
        )
        res = ExperimentResult(records=records)
        with pytest.raises(ValueError, match="pass estimator="):
            rate_fit(res, "spec_err", vary="n")
        slope, _ = rate_fit(res, "spec_err", vary="n", estimator="rho")
        assert slope == pytest.approx(-0.5, abs=1e-12)
        with pytest.raises(ValueError, match="no records"):
            rate_fit(res, "spec_err", vary="n", estimator="oracle")

    def test_argument_validation(self):
        res = synthetic({(n, 5): [0.1] for n in (100, 200, 400)})
        with pytest.raises(ValueError, match="vary"):
            rate_fit(res, "spec_err", vary="s")
        with pytest.raises(ValueError, match="stat"):
            rate_fit(res, "spec_err", vary="n", stat="max")
        with pytest.raises(ValueError, match="power"):
            rate_fit(res, "spec_err", vary="n", power=0.0)
        with pytest.raises(ValueError, match="no records"):
            rate_fit(res, "max_err", vary="n")


class TestTrendInversions:
    def test_counts_steps_against_direction(self):
        res = synthetic({(100, 5): [0.4], (200, 5): [0.5], (400, 5): [0.3], (800, 5): [0.2]})
        assert trend_inversions(res, "spec_err", vary="n") == 1

    def test_monotone_series_has_none(self):
        res = synthetic({(n, 5): [1.0 / n] for n in (100, 200, 400)})
        assert trend_inversions(res, "spec_err", vary="n") == 0

    def test_needs_two_points(self):
        res = synthetic({(100, 5): [0.2]})
        with pytest.raises(ValueError, match="at least 2"):
            trend_inversions(res, "spec_err", vary="n")


class TestBoundRatio:
    def test_zero_error_gives_zero(self):
        res = synthetic({(100, 5): [0.0, 0.0], (200, 5): [0.0]})
        ratio = bound_ratio(res, "spec_err", "thm1", SigmaModel.ar1(0.5, 5))
        assert ratio == 0.0

    def test_thm1_mean_against_shape(self):
        values = [0.10, 0.14, 0.12]
        res = synthetic({(400, 5): values})
        model = SigmaModel.ar1(0.5, 5)
        signorm = spectral_norm(realize_sigma(model).base)
        expected = np.mean(values) / (signorm * (math.sqrt(5 / 400) + 5 / 400))
        assert bound_ratio(res, "spec_err", "thm1", model) == pytest.approx(
            expected, rel=1e-13
        )

    def test_thm1_picks_worst_cell(self):
        res = synthetic({(100, 5): [0.10], (400, 5): [0.10]})
        model = SigmaModel.ar1(0.5, 5)
        per_cell = [
            bound_ratio(where(res, n=n), "spec_err", "thm1", model)
            for n in (100, 400)
        ]
        assert bound_ratio(res, "spec_err", "thm1", model) == max(per_cell)
        assert per_cell[1] > per_cell[0]

    def test_thm1_oracle_uses_rms_and_explicit_constants(self):
        values = [0.10, 0.20]
        res = synthetic({(400, 5): values}, estimator="oracle")
        model = SigmaModel.ar1(0.5, 5)
        signorm = spectral_norm(realize_sigma(model).base)
        rms = math.sqrt(np.mean(np.square(values)))
        rhs = signorm * (
            2.0 * math.sqrt(2.0 * 5 / 400)
            + math.sqrt(2.0) * 5 / 400
            + 6.0 * (5 / 400**3) ** 0.25
        )
        assert bound_ratio(res, "spec_err", "thm1", model) == pytest.approx(
            rms / rhs, rel=1e-13
        )

    def test_oracle_run_stays_under_explicit_bound(self):
        cfg = ar1_cfg(estimators=("oracle",), n_grid=(500,), d_grid=(5,), reps=10)
        res = run_experiment(cfg)
        assert bound_ratio(res, "spec_err", "thm1", cfg.model) < 0.8

    def test_thm2_quantile_and_label_parsing(self):
        values = list(np.linspace(0.05, 0.25, 40))
        res = synthetic({(2000, 30): values}, functional="sparse_spec_err_s3")
        model = SigmaModel.ar1(0.5, 30)
        t = math.log(20.0)
        x = (t + 3 * math.log(math.e * 30 / 3)) / 2000
        expected = np.quantile(values, 0.95) / (math.sqrt(x) + x)
        assert bound_ratio(res, "sparse_spec_err_s3", "thm2", model) == pytest.approx(
            expected, rel=1e-13
        )

    def test_compatibility_validation(self):
        res = synthetic({(100, 5): [0.1]}, functional="max_err")
        model = SigmaModel.ar1(0.5, 5)
        with pytest.raises(ValueError, match="spec_err"):
            bound_ratio(res, "max_err", "thm1", model)
        with pytest.raises(ValueError, match="sparse_spec_err"):
            bound_ratio(res, "max_err", "thm2", model)
        with pytest.raises(ValueError, match="thm1, thm2"):
            bound_ratio(res, "max_err", "thm3", model)


_EDGE_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072009e-308,
    1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0,
)
_ANY_FLOAT = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)


class TestCsvRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                _ANY_FLOAT,
                st.integers(),
                st.text(st.characters(min_codepoint=0, max_codepoint=127)),
                _ANY_FLOAT,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_written_values_read_back_bit_for_bit(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows.csv")
            _write_csv(path, [("x", "k", "label", "y")] + rows)
            back = [fields for _, fields in read_csv_rows(path)]
        assert len(back) == len(rows)
        for fields, row in zip(back, rows):
            assert len(fields) == 4
            assert int(fields[1]) == row[1]
            assert fields[2] == row[2]
            for text, value in ((fields[0], row[0]), (fields[3], row[3])):
                got = float(text)
                if math.isnan(value):
                    assert math.isnan(got)
                else:
                    assert struct.pack("<d", got) == struct.pack("<d", value)

    def test_records_round_trip(self, tmp_path):
        cfg = ar1_cfg(
            estimators=("tau", "rho"),
            n_grid=(50, 100),
            functionals=(Functional.spec_err(), Functional.max_err()),
            reps=2,
        )
        res = run_experiment(cfg)
        path = tmp_path / "records.csv"
        write_records_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,d,estimator,functional,replicate,value"
        assert len(lines) == 1 + len(res.records)
        back = load_records(path)
        assert back.records == res.records
        assert back.config is None

    def test_headerless_file_loads(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("100,5,tau,spec_err,0,0.25\n200,5,tau,spec_err,0,0.125\n")
        res = load_records(path)
        assert [r.n for r in res.records] == [100, 200]
        assert res.records[0].value == 0.25

    def test_blank_rows_skipped_before_header(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(
            "\n  \nn,d,estimator,functional,replicate,value\n"
            "100,5,tau,spec_err,0,0.25\n\n200,5,tau,spec_err,0,0.125\n"
        )
        assert [r.n for r in load_records(path).records] == [100, 200]

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("100,5,tau,spec_err,0\n")
        with pytest.raises(InputError, match="line 1"):
            load_records(path)
        path.write_text("n,d,estimator,functional,replicate,value\n100,5,tau,spec_err,0,oops\n")
        with pytest.raises(InputError, match="line 2"):
            load_records(path)
        path.write_text("100,5,tau,spec_err,0,nan\n")
        with pytest.raises(InputError, match="finite"):
            load_records(path)
        path.write_text("n,d,estimator,functional,replicate,value\n")
        with pytest.raises(InputError, match="no data rows"):
            load_records(path)

    def test_values_survive_verbatim(self, tmp_path):
        value = 0.12345678901234567
        res = ExperimentResult(records=(Record(100, 5, "tau", "spec_err", 0, value),))
        path = tmp_path / "one.csv"
        write_records_csv(res, path)
        assert load_records(path).records[0].value == value

    def test_summary_csv_shape(self, tmp_path):
        res = synthetic({(100, 5): [0.2, 0.3], (200, 5): [0.1]})
        path = tmp_path / "summary.csv"
        write_summary_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,d,estimator,functional,count,mean,sd,q05,q50,q95"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[:5] == ["100", "5", "tau", "spec_err", "2"]
        assert float(first[5]) == pytest.approx(0.25)
