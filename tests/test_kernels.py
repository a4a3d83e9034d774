import csv
import math

import numpy as np
import pytest

import oracles
import rankspec.kernels as kernels_mod
from rankspec.copula import SigmaModel, realize_sigma, sample_latent
from rankspec.errors import ConvergenceError
from rankspec.kernels import (
    GBAR_SLOPE,
    TAU_KERNEL_SLOPE,
    HoeffdingReport,
    binorm_cdf,
    delta0_matrix,
    delta1_matrix,
    g_fn,
    gbar,
    hbar,
    hbar0,
    hoeffding_report,
    inequality_sweep,
    std_normal_cdf,
)
from rankspec.linalg import norm_max
from rankspec.rankest import rho_pop


class TestNormalCdf:
    def test_reference_value(self):
        assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)

    def test_zero_is_exact(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        x = np.linspace(-6.0, 6.0, 101)
        assert np.abs(std_normal_cdf(-x) - (1.0 - std_normal_cdf(x))).max() <= 1e-15

    def test_scalar_and_array_forms(self):
        assert isinstance(std_normal_cdf(0.3), float)
        out = std_normal_cdf(np.zeros((2, 3)))
        assert out.shape == (2, 3)


class TestBinormCdf:
    def test_independent_center(self):
        assert binorm_cdf(0.0, 0.0, 0.0) == 0.25

    def test_center_closed_form(self):
        for rho in (-0.999999, -0.95, -0.6, -0.2, 0.2, 0.5, 0.75, 0.925, 0.99, 0.999999):
            want = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert binorm_cdf(0.0, 0.0, rho) == pytest.approx(want, abs=1e-12)

    def test_large_argument_marginalizes(self):
        x = np.linspace(-3.0, 3.0, 13)
        for rho in (-0.8, 0.0, 0.8):
            got = binorm_cdf(x, 8.5, rho)
            assert np.abs(got - std_normal_cdf(x)).max() <= 1e-10

    def test_owens_identity_agreement(self):
        rng = np.random.default_rng(20260814)
        x = rng.uniform(-6.0, 6.0, size=2000)
        y = rng.uniform(-6.0, 6.0, size=2000)
        rho = rng.uniform(-0.999999, 0.999999, size=2000)
        # make sure every quadrature band is exercised
        rho[:4] = (0.1, 0.5, 0.9, 0.99)
        got = binorm_cdf(x, y, rho)
        want = np.array([oracles.phi2_owens(a, b, r) for a, b, r in zip(x, y, rho)])
        assert np.abs(got - want).max() <= 1e-10

    def test_argument_symmetry(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-4.0, 4.0, size=200)
        y = rng.uniform(-4.0, 4.0, size=200)
        rho = rng.uniform(-0.999, 0.999, size=200)
        assert np.abs(binorm_cdf(x, y, rho) - binorm_cdf(y, x, rho)).max() <= 1e-15

    def test_range_and_extremes(self):
        pts = [(-12.0, -12.0), (-12.0, 12.0), (12.0, -12.0), (12.0, 12.0)]
        for rho in (-0.999999, -0.5, 0.0, 0.5, 0.999999):
            for x, y in pts:
                value = binorm_cdf(x, y, rho)
                assert 0.0 <= value <= 1.0

    def test_monotone_in_rho(self):
        rho = np.linspace(-0.999, 0.999, 81)
        values = binorm_cdf(0.3, -0.2, rho)
        assert (np.diff(values) >= -1e-12).all()

    def test_degenerate_rho_rejected(self):
        with pytest.raises(ValueError, match=r"min\(Phi\(x\), Phi\(y\)\)"):
            binorm_cdf(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            binorm_cdf(0.5, 0.5, -(1.0 - 1e-14))

    def test_matches_scalar_calls_bitwise(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-3.0, 3.0, size=50)
        y = rng.uniform(-3.0, 3.0, size=50)
        rho = rng.uniform(-0.99, 0.99, size=50)
        vec = binorm_cdf(x, y, rho)
        sca = np.array([binorm_cdf(a, b, r) for a, b, r in zip(x, y, rho)])
        assert np.array_equal(vec, sca)


class TestTauKernel:
    def test_center_values(self):
        assert hbar(0.0, 0.0, 0.0) == 0.0
        assert hbar(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_factorizes_at_independence(self):
        x = np.linspace(-5.0, 5.0, 21)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        joint = hbar(xx, yy, 0.0)
        split = hbar0(xx) * hbar0(yy)
        assert np.abs(joint - split).max() <= 1e-10

    def test_example_against_double_quadrature(self):
        got = hbar(0.7, -0.3, 0.6)
        want = oracles.hbar_double_quadrature(0.7, -0.3, 0.6)
        assert got == pytest.approx(want, abs=1e-8)

    def test_random_points_against_double_quadrature(self):
        rng = np.random.default_rng(914)
        x = rng.uniform(-4.0, 4.0, size=500)
        y = rng.uniform(-4.0, 4.0, size=500)
        rho = rng.uniform(-0.9, 0.9, size=500)
        got = hbar(x, y, rho)
        want = np.array(
            [oracles.hbar_double_quadrature(a, b, r) for a, b, r in zip(x, y, rho)]
        )
        assert np.abs(got - want).max() <= 1e-8

    def test_high_correlation_against_owens(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-4.0, 4.0, size=300)
        y = rng.uniform(-4.0, 4.0, size=300)
        sign = rng.choice([-1.0, 1.0], size=300)
        rho = sign * rng.uniform(0.925, 0.999999, size=300)
        got = hbar(x, y, rho)
        want = np.array([oracles.hbar_owens(a, b, r) for a, b, r in zip(x, y, rho)])
        assert np.abs(got - want).max() <= 1e-10

    def test_bounded_by_one(self):
        grid = np.array([-10.0, -2.0, 0.0, 2.0, 10.0])
        xx, yy = np.meshgrid(grid, grid, indexing="ij")
        for rho in (-0.999999, -0.5, 0.0, 0.5, 0.999999):
            assert np.abs(hbar(xx, yy, rho)).max() <= 1.0

    def test_population_identity_at_independence_argument(self):
        # E hbar(X_j, X_k, 0) equals one third of the Spearman population
        # value for the pair, whatever the true correlation is
        for r in (0.0, 0.3, 0.8):
            model = SigmaModel.compound(dim=2, r=r)
            sigma = realize_sigma(model)
            x = sample_latent(sigma, n=1_000_000, seed=2026)
            got = float(hbar(x.entries[:, 0], x.entries[:, 1], 0.0).mean())
            want = rho_pop(sigma).entries[0, 1] / 3.0
            assert got == pytest.approx(want, abs=0.005)


class TestGFunctions:
    def test_g_zero_rho_is_exact(self):
        x = np.linspace(-4.0, 4.0, 9)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        assert np.array_equal(g_fn(xx, yy, 0.0), np.zeros_like(xx))

    def test_g_center_value(self):
        assert g_fn(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_g_slope_bound_random(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-4.0, 4.0, size=500)
        y = rng.uniform(-4.0, 4.0, size=500)
        rho = rng.uniform(-0.99, 0.99, size=500)
        assert (np.abs(g_fn(x, y, rho)) <= TAU_KERNEL_SLOPE * np.abs(rho) + 1e-12).all()

    def test_gbar_zero_rho(self):
        x = np.linspace(-4.0, 4.0, 9)
        assert np.abs(gbar(x, 0.0)).max() <= 1e-12

    def test_gbar_closed_form(self):
        x = np.linspace(-4.0, 4.0, 9)
        for rho in (-0.99, -0.6, 0.3, 0.9):
            got = gbar(x, rho)
            want = np.array([oracles.gbar_closed(v, rho) for v in x])
            assert np.abs(got - want).max() <= 1e-8

    def test_gbar_example_brute_quadrature(self):
        assert gbar(1.0, 0.5) == pytest.approx(oracles.gbar_brute(1.0, 0.5), abs=1e-7)

    def test_gbar_slope_bound(self):
        x = np.linspace(-4.0, 4.0, 17)
        for rho in (-0.9, -0.4, 0.2, 0.7):
            assert np.abs(gbar(x, rho)).max() <= GBAR_SLOPE * abs(rho) + 1e-9

    def test_gbar_domain(self):
        with pytest.raises(ValueError, match="0.99"):
            gbar(0.0, 0.995)

    def test_gbar_vector_matches_scalar(self):
        x = np.array([-1.0, 0.5, 2.0])
        vec = gbar(x, 0.3)
        sca = np.array([gbar(float(v), 0.3) for v in x])
        assert np.abs(vec - sca).max() <= 2e-9

    def test_gbar_nonconvergence_raises(self, monkeypatch):
        calls = [0]

        def drifting(x, rho, panels, order=16):
            calls[0] += 1
            return np.full(np.broadcast(x, rho).shape, float(calls[0]))

        monkeypatch.setattr(kernels_mod, "_gbar_panels", drifting)
        with pytest.raises(ConvergenceError):
            gbar(0.0, 0.5)


class TestProjectionMatrices:
    def test_delta0_single_row_formula(self):
        rng = np.random.default_rng(0)
        sigma = realize_sigma(SigmaModel.ar1(dim=3, r=0.5))
        x = sample_latent(sigma, n=1, seed=4)
        u = 2.0 * std_normal_cdf(x.entries[0]) - 1.0
        want = np.outer(u, u) - rho_pop(sigma).entries / 3.0
        got = delta0_matrix(x, sigma).entries
        assert np.abs(got - want).max() <= 1e-14
        assert np.array_equal(got, got.T)

    def test_delta0_concentrates(self):
        sigma = realize_sigma(SigmaModel.compound(dim=5, r=0.3))
        x = sample_latent(sigma, n=100_000, seed=99)
        assert norm_max(delta0_matrix(x, sigma)) <= 0.02

    def test_delta1_identity_matches_delta0_off_diagonal(self):
        sigma = realize_sigma(SigmaModel.compound(dim=4, r=0.0))
        x = sample_latent(sigma, n=300, seed=12)
        d1 = delta1_matrix(x, sigma).entries
        d0 = delta0_matrix(x, sigma).entries
        assert np.array_equal(np.diag(d1), np.zeros(4))
        off = ~np.eye(4, dtype=bool)
        assert np.abs(d1[off] - d0[off]).max() <= 1e-10

    def test_delta1_requires_tau_kernel(self):
        sigma = realize_sigma(SigmaModel.ar1(dim=3, r=0.5))
        x = sample_latent(sigma, n=50, seed=1)
        with pytest.raises(ValueError, match="tau"):
            delta1_matrix(x, sigma, kind="rho")

    def test_delta1_mean_zero(self):
        sigma = realize_sigma(SigmaModel.ar1(dim=4, r=0.5))
        total = np.zeros((4, 4))
        reps = 200
        for rep in range(reps):
            x = sample_latent(sigma, n=500, seed=5000 + rep)
            total += delta1_matrix(x, sigma).entries
        assert np.abs(total / reps).max() <= 0.012

    def test_report_fields(self):
        sigma = realize_sigma(SigmaModel.ar1(dim=4, r=0.5))
        x = sample_latent(sigma, n=500, seed=77)
        report = hoeffding_report(x, sigma)
        assert report.residual_sq_bound == pytest.approx(
            2.0 * 4 * 3 / (500.0 * 499.0), rel=1e-15
        )
        for name in (
            "residual_frobenius",
            "residual_sq_bound",
            "delta1_minus_delta0_spectral",
            "delta10_sq_bound",
            "delta0_spectral",
            "delta0_bound",
        ):
            assert getattr(report, name) >= 0.0

    def test_report_rejects_negative_fields(self):
        with pytest.raises(ValueError, match="residual_frobenius"):
            HoeffdingReport(
                residual_frobenius=-1.0,
                residual_sq_bound=1.0,
                delta1_minus_delta0_spectral=0.0,
                delta10_sq_bound=1.0,
                delta0_spectral=0.0,
                delta0_bound=1.0,
            )

    def test_decomposition_bounds_hold_on_average(self):
        sigma = realize_sigma(SigmaModel.ar1(dim=4, r=0.5))
        reps = 50
        resid_sq = 0.0
        diff_sq = 0.0
        d0_spec = 0.0
        report = None
        for rep in range(reps):
            x = sample_latent(sigma, n=500, seed=31_000 + rep)
            report = hoeffding_report(x, sigma)
            resid_sq += report.residual_frobenius**2
            diff_sq += report.delta1_minus_delta0_spectral**2
            d0_spec += report.delta0_spectral
        assert resid_sq / reps <= 1.5 * report.residual_sq_bound
        assert diff_sq / reps <= 1.5 * report.delta10_sq_bound
        assert d0_spec / reps <= report.delta0_bound


class TestInequalitySweep:
    def test_report_passes_and_is_ordered(self):
        report = inequality_sweep(grid_size=15)
        names = [row.inequality for row in report.rows]
        assert names == ["phi_contraction", "g_bound", "g_dx_bound", "gbar_bound"]
        assert report.all_pass()
        for row in report.rows:
            assert row.min_slack >= -1e-9

    def test_contraction_equality_at_unit_rho(self):
        # at rho = 1 the shrunk argument collapses to zero and the gap
        # reaches its stated cap of one half in the far tail
        gap = abs(std_normal_cdf(8.0) - std_normal_cdf(0.0))
        assert abs(gap - 0.5) <= 1e-12

    def test_unused_axis_is_nan(self):
        report = inequality_sweep(grid_size=9)
        by_name = {row.inequality: row for row in report.rows}
        assert math.isnan(by_name["phi_contraction"].arg_y)
        assert math.isnan(by_name["gbar_bound"].arg_y)
        assert not math.isnan(by_name["g_bound"].arg_y)

    def test_csv_roundtrip(self, tmp_path):
        report = inequality_sweep(grid_size=9)
        path = tmp_path / "sweep.csv"
        report.write_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["inequality", "min_slack", "arg_x", "arg_y", "arg_rho"]
        assert len(rows) == 5
        for parsed, row in zip(rows[1:], report.rows):
            assert parsed[0] == row.inequality
            assert float(parsed[1]) == row.min_slack
            assert float(parsed[4]) == row.arg_rho

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="grid_size"):
            inequality_sweep(grid_size=2)


class TestOracleConsistency:
    def test_owens_against_analytic_center(self):
        for rho in (-0.9, -0.3, 0.4, 0.8):
            want = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert oracles.phi2_owens(0.0, 0.0, rho) == pytest.approx(want, abs=1e-14)

    def test_owens_against_double_quadrature(self):
        for x, y, rho in ((0.7, -0.3, 0.6), (-1.2, 0.4, -0.85), (1.5, 1.5, 0.9)):
            direct = oracles.hbar_double_quadrature(x, y, rho)
            closed = oracles.hbar_owens(x, y, rho)
            assert direct == pytest.approx(closed, abs=5e-10)

    def test_owens_zero_argument_edge(self):
        # x = 0 hits the T-function limit branch; cross-check by quadrature
        for x, y, rho in ((0.0, 1.3, 0.5), (0.0, -0.7, -0.4), (1.1, 0.0, 0.8)):
            got = oracles.phi2_owens(x, y, rho)
            want = (
                oracles.hbar_double_quadrature(x, y, rho)
                + 2.0 * std_normal_cdf(x)
                + 2.0 * std_normal_cdf(y)
                - 1.0
            ) / 4.0
            assert got == pytest.approx(want, abs=5e-10)
