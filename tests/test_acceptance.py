"""End-to-end acceptance gates, one test per criterion.

Four kinds of evidence: exact agreement with definitional brute force,
analytic identities at tight tolerances, inequality sweeps with slack
floors, and scaled-down Monte Carlo rate studies whose ceilings and
floors were calibrated by pilot runs (tests/pilots.py).  Monte Carlo
tests run the same presets the CLI ships, on a fixed seed, and assert
their stated wall-clock budgets for a single core.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from pilots import GOLDENS
from rankspec.cli import STUDIES
from rankspec.copula import (
    DataMatrix,
    SigmaModel,
    TransformSet,
    apply_transforms,
    realize_sigma,
    sample_latent,
)
from rankspec.harness import (
    ExperimentConfig,
    ExperimentResult,
    Functional,
    Record,
    replicate_seed,
    run_experiment,
)
from rankspec.kernels import hbar, hbar0, inequality_sweep
from rankspec.linalg import SymMatrix, sparse_spectral_norm, spectral_norm
from rankspec.rankest import (
    kendall_tau_matrix,
    rho_pop,
    sigma_hat_rho,
    sigma_hat_tau,
    spearman_rho_matrix,
    tau_pop,
)

SEED = 20260814


def timed_run(preset, **overrides):
    """(result, study.csv metrics as a dict, gate failures, seconds)."""
    study = STUDIES[preset]
    start = time.monotonic()
    result = run_experiment(study.config(SEED, **overrides))
    elapsed = time.monotonic() - start
    metrics = study.metrics(result)
    return result, dict(metrics), study.gate_failures(metrics, result.failures), elapsed


@pytest.fixture(scope="module")
def thm1_run():
    return timed_run("thm1", reps=100)


@pytest.fixture(scope="module")
def thm2_run():
    return timed_run("thm2", n_grid=(2000,), reps=200)


@pytest.fixture(scope="module")
def thm3_run():
    return timed_run("thm3", reps=50)


@pytest.fixture(scope="module")
def thm5_run():
    return timed_run("thm5", reps=50)


def test_fast_rank_matrices_match_definitional_bruteforce():
    # 200 random tie-free instances, n <= 60, d <= 8, bitwise equality
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        n = int(rng.integers(2, 61))
        d = int(rng.integers(1, 9))
        x = rng.standard_normal((n, d))
        data = DataMatrix(x)
        assert np.array_equal(
            kendall_tau_matrix(data).values.entries, oracles.kendall_naive(x)
        )
        assert np.array_equal(
            spearman_rho_matrix(data).values.entries, oracles.spearman_exact(x)
        )
    assert time.monotonic() - start < 10.0


def test_estimates_invariant_under_monotone_warps():
    start = time.monotonic()
    sigma = realize_sigma(SigmaModel.ar1(0.5, 6))
    x = sample_latent(sigma, 300, SEED)
    warped = apply_transforms(
        x, TransformSet.cycled(("cube", "expshift", "softsign"), 6)
    )
    tau_x = sigma_hat_tau(kendall_tau_matrix(x)).entries
    tau_y = sigma_hat_tau(kendall_tau_matrix(warped)).entries
    rho_x = sigma_hat_rho(spearman_rho_matrix(x)).entries
    rho_y = sigma_hat_rho(spearman_rho_matrix(warped)).entries
    assert np.array_equal(tau_x, tau_y)
    assert np.array_equal(rho_x, rho_y)
    assert not np.array_equal(x.entries, warped.entries)
    assert time.monotonic() - start < 5.0


def test_spearman_order3_representation():
    # rho_hat = ((n-2) U + 3 tau_hat) / (n+1) with U the order-3 sign
    # statistic, checked against an exhaustive triple loop
    start = time.monotonic()
    rng = np.random.default_rng(SEED + 3)
    for n in (5, 12, 30):
        x = rng.standard_normal((n, 3))
        data = DataMatrix(x)
        rho = spearman_rho_matrix(data).values.entries
        tau = kendall_tau_matrix(data).values.entries
        for j in range(3):
            for k in range(j + 1, 3):
                u = oracles.order3_sign_stat(x, j, k)
                mixed = ((n - 2) * u + 3 * tau[j, k]) / (n + 1)
                assert abs(rho[j, k] - mixed) < 1e-12
    assert time.monotonic() - start < 30.0


def test_population_rank_matrix_gaps_and_norms():
    families = (
        SigmaModel.ar1(0.5, 5),
        SigmaModel.compound(0.3, 5),
        SigmaModel.bandable(1.0, 0.3, 5),
        SigmaModel.spiked(2.0, 3, 5),
    )
    for template in families:
        for d in (5, 20, 50):
            sigma = realize_sigma(replace(template, dim=d))
            t = tau_pop(sigma).entries
            r = rho_pop(sigma).entries
            gap_t = np.linalg.eigvalsh(t - (2.0 / math.pi) * sigma.entries)
            gap_r = np.linalg.eigvalsh(r - (3.0 / math.pi) * sigma.entries)
            assert gap_t.min() >= -1e-9, (template.family, d, gap_t.min())
            assert gap_r.min() >= -1e-9, (template.family, d, gap_r.min())
            bound = np.abs(np.linalg.eigvalsh(sigma.entries)).max() + 1e-9
            assert np.abs(np.linalg.eigvalsh(t)).max() <= bound
            assert np.abs(np.linalg.eigvalsh(r)).max() <= bound


def test_tau_kernel_matches_double_quadrature_and_factorizes():
    rng = np.random.default_rng(SEED + 5)
    xs = rng.uniform(-4.0, 4.0, 500)
    ys = rng.uniform(-4.0, 4.0, 500)
    rhos = rng.uniform(-0.9, 0.9, 500)
    worst = 0.0
    for x, y, rho in zip(xs, ys, rhos):
        got = hbar(x, y, rho)
        ref = oracles.hbar_double_quadrature(x, y, rho)
        worst = max(worst, abs(got - ref))
    assert worst < 1e-8, worst
    xs = rng.uniform(-5.0, 5.0, 200)
    ys = rng.uniform(-5.0, 5.0, 200)
    split = np.abs(hbar(xs, ys, 0.0) - hbar0(xs) * hbar0(ys)).max()
    assert split < 1e-10, split


def test_kernel_inequality_sweep_passes():
    start = time.monotonic()
    report = inequality_sweep(grid_size=51)
    assert len(report.rows) >= 4
    assert report.failing() == ()
    assert time.monotonic() - start < 120.0


def test_hajek_residual_second_moment_bound():
    n, d, reps = 500, 4, 200
    config = ExperimentConfig(
        model=SigmaModel.ar1(0.5, d),
        estimators=("tau",),
        n_grid=(n,),
        d_grid=(d,),
        functionals=(Functional.hoeffding_report(),),
        reps=reps,
        seed=SEED,
    )
    result = run_experiment(config)
    assert not result.failures
    mean_sq = result.summary[0].mean
    bound = 2.0 * d * (d - 1) / (n * (n - 1))
    assert mean_sq <= 1.5 * bound, (mean_sq, bound)


def test_sine_map_error_rate_and_ratio_ceilings(thm1_run):
    # slopes of tau and rho in their window, error/rate ratios under the
    # pilot ceilings, the oracle under its explicit bound
    result, metrics, failures, elapsed = thm1_run
    assert not result.failures
    assert not failures, (failures, metrics)
    assert elapsed < 600.0


def test_latent_sample_correlation_explicit_bound(thm1_run):
    result, metrics, _, _ = thm1_run
    # the oracle bound has explicit constants, so 1 is a hard ceiling
    # (5% Monte Carlo allowance); the rms form is at least as large as
    # the per-cell mean, so gate both
    assert metrics["ratio_thm1_oracle"] <= 1.05
    model = result.config.model
    norm = spectral_norm(realize_sigma(model).base)
    for n, d in result.config.cells:
        values = [
            r.value for r in result.records
            if r.n == n and r.estimator == "oracle"
        ]
        rhs = norm * (
            2.0 * math.sqrt(2.0 * d / n)
            + math.sqrt(2.0) * d / n
            + 6.0 * (d / n**3) ** 0.25
        )
        assert np.mean(values) <= 1.05 * rhs, (n, d, np.mean(values) / rhs)


def test_taper_rate_and_bandwidth_tradeoff(thm3_run):
    # squared-error slope in its window, and the error-vs-bandwidth curve
    # at the middle sample size dips at an interior k
    result, metrics, failures, elapsed = thm3_run
    assert not result.failures
    assert not failures, (failures, metrics)
    assert elapsed < 900.0


def test_eigenprojection_rate():
    # the thm4 preset at its shipped size: the n slope of the top-2
    # eigenprojection distance on one AR(1) model lands in its window
    result, metrics, failures, elapsed = timed_run("thm4")
    assert not result.failures
    assert not failures, (failures, metrics)
    assert elapsed < 120.0


def test_sparse_leading_direction_recovery(thm5_run):
    result, metrics, failures, _ = thm5_run
    assert not result.failures
    assert not failures, (failures, metrics)


def test_sparse_norm_deviation_quantile_and_enumeration(thm2_run):
    result, metrics, failures, _ = thm2_run
    assert not result.failures
    assert not failures, (failures, metrics)
    # replay a few replicates and require the pruned scan to return the
    # exhaustive maximizer, bit for bit
    config = result.config
    sigma = realize_sigma(config.model)
    for rep in range(3):
        x = sample_latent(sigma, config.n_grid[0], replicate_seed(SEED, 0, rep))
        estimate = sigma_hat_tau(kendall_tau_matrix(x))
        diff = SymMatrix(estimate.entries - sigma.entries)
        found = sparse_spectral_norm(diff, 3)
        assert found == oracles.exhaustive_sparse_norm(diff.entries, 3)
        recorded = [
            r.value for r in result.records if r.replicate == rep
        ]
        assert recorded[0] == found[0]


def _constant_result(config):
    records = [
        Record(n, d, e, f.label, rep, 1.0)
        for n, d in config.cells
        for rep in range(config.reps)
        for e in config.estimators
        for f in config.functionals
    ]
    return ExperimentResult(records, config=config)


def test_cli_gates_match_pilot_calibration():
    # the shipped --assert gates and the acceptance ceilings must be the
    # same numbers, both frozen from tests/pilots.py
    gates = {preset: study.gates for preset, study in STUDIES.items()}
    assert gates == {
        "thm1": (
            ("slope_tau", -0.65, -0.35),
            ("ratio_thm1_tau", None, GOLDENS["thm1"]["ratio_ceiling_tau"]),
            ("slope_rho", -0.65, -0.35),
            ("ratio_thm1_rho", None, GOLDENS["thm1"]["ratio_ceiling_rho"]),
            ("ratio_thm1_oracle", None, 1.05),
        ),
        "thm2": (("ratio_thm2_q95", None, GOLDENS["thm2"]["q95_ceiling"]),),
        "thm3": (("slope_sq", -0.87, -0.47), ("kcurve_interior", 1.0, 1.0)),
        "thm4": (("slope", -0.70, -0.30),),
        "thm5": (
            ("slope_median", -0.70, -0.30),
            ("median_inversions", None, 1.0),
            ("recovery_at_nmax", GOLDENS["thm5"]["recovery_floor"], None),
        ),
    }
    # the pilot slopes land inside the windows
    for preset, g in gates.items():
        for name, lo, hi in g:
            if name.startswith("slope"):
                assert lo <= GOLDENS[preset][name][0] <= hi, (preset, name)


def test_study_metric_names_and_order():
    names = {}
    for preset, study in STUDIES.items():
        rows = study.metrics(_constant_result(study.config(SEED, reps=2)))
        names[preset] = [name for name, _ in rows]
    assert names == {
        "thm1": [
            "slope_tau", "slope_stderr_tau", "slope_rho", "slope_stderr_rho",
            "slope_oracle", "slope_stderr_oracle", "target_slope",
            "ratio_thm1_tau", "ratio_thm1_rho", "ratio_thm1_oracle",
        ],
        "thm2": ["ratio_thm2_q95"],
        "thm3": [
            "slope_sq", "slope_sq_stderr", "target_slope", "kcurve_n",
            "kcurve_mse_k2", "kcurve_mse_k4", "kcurve_mse_k8",
            "kcurve_mse_k16", "kcurve_mse_k32", "kcurve_argmin_k",
            "kcurve_interior",
        ],
        "thm4": ["slope", "slope_stderr", "target_slope"],
        "thm5": [
            "slope_median", "slope_stderr", "target_slope",
            "median_inversions", "nmax", "recovery_at_nmax",
        ],
    }
