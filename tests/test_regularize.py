import numpy as np
import pytest

import oracles
from rankspec.copula import SigmaModel, realize_sigma
from rankspec.errors import GuardExceededError
from rankspec.linalg import SymMatrix, eig_sym, sin_angle, spectral_norm
from rankspec.regularize import (
    SparsePCAResult,
    TaperSpec,
    optimal_bandwidth,
    pca_projections_compare,
    sparse_pca,
    taper_estimate,
    taper_weights,
)


class TestTaperWeights:
    def test_piecewise_values(self):
        w = taper_weights(TaperSpec(k=4), 6).entries
        assert w[0, 1] == 1.0
        assert w[0, 2] == 1.0
        assert w[0, 3] == 0.5
        assert w[0, 4] == 0.0
        assert w[0, 5] == 0.0
        assert (np.diag(w) == 1.0).all()

    def test_flat_inside_half_band_zero_outside(self):
        d, k = 12, 8
        w = taper_weights(TaperSpec(k=k), d).entries
        gap = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        assert (w[gap <= k // 2] == 1.0).all()
        assert (w[gap >= k] == 0.0).all()
        mid = (gap > k // 2) & (gap < k)
        assert ((w[mid] > 0.0) & (w[mid] < 1.0)).all()

    def test_odd_bandwidth(self):
        w = taper_weights(TaperSpec(k=3), 4).entries
        assert w[0, 1] == 1.0
        assert w[0, 2] == pytest.approx(2.0 - 4.0 / 3.0, abs=1e-15)
        assert w[0, 3] == 0.0

    def test_minimal_bandwidth_is_diagonal(self):
        w = taper_weights(TaperSpec(k=1), 5).entries
        assert np.array_equal(w, np.eye(5))

    def test_symmetry_exact(self):
        w = taper_weights(TaperSpec(k=6), 9).entries
        assert np.array_equal(w, w.T)

    def test_validation(self):
        with pytest.raises(ValueError, match="integer"):
            TaperSpec(k=2.5)
        with pytest.raises(ValueError, match="at least 1"):
            TaperSpec(k=0)
        with pytest.raises(ValueError, match="TaperSpec"):
            taper_weights(4, 8)
        with pytest.raises(ValueError, match="positive"):
            taper_weights(TaperSpec(k=2), 0)


class TestTaperEstimate:
    def test_wide_band_leaves_input_bitwise(self):
        sigma = realize_sigma(SigmaModel.ar1(dim=5, r=0.6))
        tapered = taper_estimate(sigma, TaperSpec(k=10))
        assert np.array_equal(tapered.entries, sigma.entries)

    def test_ramp_region_shrinks_entries(self):
        sigma = realize_sigma(SigmaModel.ar1(dim=5, r=0.6))
        tapered = taper_estimate(sigma, TaperSpec(k=5))
        # |i-j| = 4 sits in the ramp for k = 5: weight 2 - 8/5 = 0.4
        assert tapered.entries[0, 4] == pytest.approx(
            0.4 * sigma.entries[0, 4], abs=1e-15
        )

    def test_minimal_bandwidth_keeps_diagonal_only(self):
        sigma = realize_sigma(SigmaModel.compound(dim=5, r=0.4))
        tapered = taper_estimate(sigma, TaperSpec(k=1)).entries
        assert np.array_equal(tapered, np.eye(5))

    def test_matches_elementwise_oracle(self):
        sigma = realize_sigma(SigmaModel.ar1(dim=6, r=0.6))
        spec = TaperSpec(k=4)
        got = taper_estimate(sigma, spec).entries
        want = np.empty((6, 6))
        for i in range(6):
            for j in range(6):
                gap = abs(i - j)
                if gap <= 2:
                    w = 1.0
                elif gap < 4:
                    w = 2.0 - 2.0 * gap / 4.0
                else:
                    w = 0.0
                want[i, j] = w * sigma.entries[i, j]
        assert np.array_equal(got, want)

    def test_bias_bound_on_bandable_family(self):
        model = SigmaModel.bandable(1.0, 0.3, 64)
        sigma = realize_sigma(model)
        # the bandable tail beyond k/2: 2^alpha (2c/alpha) k^(-alpha)
        bias_const = 2.0**model.alpha * 2.0 * model.c / model.alpha
        for k in (2, 4, 8, 16):
            weights = taper_weights(TaperSpec(k=k), 64).entries
            bias = spectral_norm(SymMatrix((1.0 - weights) * sigma.entries))
            assert bias <= bias_const * k**-model.alpha + 1e-12


class TestOptimalBandwidth:
    def test_examples(self):
        assert optimal_bandwidth(1024, 10**6, 0.5) == 32
        assert optimal_bandwidth(100, 2, 0.5) == 2
        assert optimal_bandwidth(59049, 10**6, 1.0) == 38

    def test_edge_dimensions(self):
        assert optimal_bandwidth(1000, 1, 1.0) == 1
        assert optimal_bandwidth(10**9, 7, 0.25) == 6
        assert optimal_bandwidth(2, 50, 3.0) == 2

    def test_always_valid_taper_input(self):
        for n in (10, 500, 10**5):
            for d in (1, 2, 3, 10, 65):
                for alpha in (0.3, 1.0, 2.5):
                    k = optimal_bandwidth(n, d, alpha)
                    assert 1 <= k <= d
                    assert k % 2 == 0 or d == 1
                    taper_weights(TaperSpec(k=k), d)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            optimal_bandwidth(0, 5, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            optimal_bandwidth(10, 5, 0.0)


class TestSparsePCA:
    def test_diagonal_single_support(self):
        result = sparse_pca(SymMatrix(np.diag([5.0, 1.0, 1.0])), s=1)
        assert result.support == (0,)
        assert result.leading_value == pytest.approx(5.0, abs=1e-12)
        assert np.allclose(result.leading_vector, [1.0, 0.0, 0.0], atol=1e-12)

    def test_negative_extreme_keeps_sign(self):
        result = sparse_pca(SymMatrix(np.diag([-5.0, 1.0, 1.0])), s=1)
        assert result.support == (0,)
        assert result.leading_value == pytest.approx(-5.0, abs=1e-12)
        assert result.leading_vector[0] == pytest.approx(1.0, abs=1e-12)

    def test_full_support_matches_dense_eigenpair(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        sym = SymMatrix((a + a.T) / 2.0)
        result = sparse_pca(sym, s=6)
        decomp = eig_sym(sym)
        which = 0 if abs(decomp.values[0]) >= abs(decomp.values[-1]) else 5
        assert abs(result.leading_value) == pytest.approx(
            spectral_norm(sym), rel=1e-12
        )
        overlap = abs(float(result.leading_vector @ decomp.vectors[:, which]))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_spiked_population_recovery(self):
        sigma = realize_sigma(SigmaModel.spiked(dim=10, lam=2.0, s=3))
        result = sparse_pca(sigma, s=3)
        assert result.support == (0, 1, 2)
        truth = np.zeros(10)
        truth[:3] = 1.0 / np.sqrt(3.0)
        assert sin_angle(result.leading_vector, truth) <= 1e-8
        assert result.leading_value == pytest.approx(1.8, abs=1e-12)

    def test_score_monotone_in_sparsity(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            a = rng.standard_normal((10, 10))
            sym = SymMatrix((a + a.T) / 2.0)
            scores = [abs(sparse_pca(sym, s).leading_value) for s in range(1, 11)]
            assert all(
                second >= first - 1e-12 for first, second in zip(scores, scores[1:])
            )

    def test_matches_exhaustive_oracle(self):
        sigma = realize_sigma(SigmaModel.spiked(dim=10, lam=2.0, s=3))
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 8))
        for matrix, s in ((sigma, 3), (SymMatrix((a + a.T) / 2.0), 3)):
            result = sparse_pca(matrix, s)
            value, support = oracles.exhaustive_sparse_norm(matrix.entries, s)
            assert result.support == support
            assert abs(result.leading_value) == pytest.approx(value, rel=1e-12)

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            sparse_pca(SymMatrix(np.eye(40)), s=10)

    def test_result_invariants(self):
        with pytest.raises(ValueError, match="unit norm"):
            SparsePCAResult(
                support=(0,), leading_vector=np.array([2.0, 0.0]), leading_value=1.0
            )
        with pytest.raises(ValueError, match="off the support"):
            SparsePCAResult(
                support=(0,),
                leading_vector=np.array([0.8, 0.6]),
                leading_value=1.0,
            )
        with pytest.raises(ValueError, match="sorted"):
            SparsePCAResult(
                support=(1, 0),
                leading_vector=np.array([0.6, 0.8]),
                leading_value=1.0,
            )


class TestProjectionsCompare:
    def test_identical_inputs_give_zero(self):
        sigma = realize_sigma(SigmaModel.ar1(dim=5, r=0.5))
        assert pca_projections_compare(sigma, sigma, k=2) <= 1e-12

    def test_matches_underlying_distance(self):
        true = realize_sigma(SigmaModel.ar1(dim=5, r=0.5))
        other = realize_sigma(SigmaModel.ar1(dim=5, r=0.45))
        projectors = []
        for m in (true, other):
            top = np.linalg.eigh(m.entries)[1][:, -2:]
            projectors.append(top @ top.T)
        want = np.abs(np.linalg.eigvalsh(projectors[0] - projectors[1])).max()
        got = pca_projections_compare(true, other, k=2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_same_matrix(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(5, 5))
        a = SymMatrix(a + a.T)
        assert pca_projections_compare(a, a, 2) == 0.0

    def test_swapped_diagonal(self):
        a = SymMatrix(np.diag([2.0, 1.0]))
        b = SymMatrix(np.diag([1.0, 2.0]))
        assert pca_projections_compare(a, b, 1) == pytest.approx(1.0, abs=1e-12)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(18)
        d = 6
        a, b = (rng.normal(size=(d, d)) for _ in range(2))
        a, b = SymMatrix(a + a.T), SymMatrix(b + b.T)
        for k in (1, 2, 5):
            try:
                lhs = pca_projections_compare(a, b, k)
            except ValueError:
                continue
            neg_a = SymMatrix(-a.entries)
            neg_b = SymMatrix(-b.entries)
            assert abs(lhs - pca_projections_compare(neg_a, neg_b, d - k)) < 1e-10

    def test_degenerate_gap(self):
        a = SymMatrix(np.eye(3))
        with pytest.raises(ValueError, match="gap"):
            pca_projections_compare(a, a, 1)
        with pytest.raises(ValueError, match="degenerate eigengap in second matrix"):
            pca_projections_compare(SymMatrix(np.diag([2.0, 1.0, 0.0])), a, 1)

    def test_flat_spectrum_rejected(self):
        identity = realize_sigma(SigmaModel.compound(dim=4, r=0.0))
        with pytest.raises(ValueError, match="eigengap"):
            pca_projections_compare(identity, identity, k=2)

    def test_bad_split_rejected(self):
        sigma = realize_sigma(SigmaModel.ar1(dim=4, r=0.5))
        with pytest.raises(ValueError, match="1 <= k < d"):
            pca_projections_compare(sigma, sigma, k=4)
