import numpy as np
import pytest
from scipy.special import zeta

from rankspec import copula
from rankspec.copula import (
    DataMatrix,
    SigmaModel,
    TransformSet,
    apply_transforms,
    realize_sigma,
    sample_latent,
)
from rankspec.errors import TieError
from rankspec.linalg import CorrMatrix, eig_sym, spectral_norm


class TestSigmaModelValidation:
    def test_ar1_range(self):
        SigmaModel.ar1(0.99, 3)
        with pytest.raises(ValueError):
            SigmaModel.ar1(1.0, 3)
        with pytest.raises(ValueError):
            SigmaModel.ar1(-1.0, 3)

    def test_compound_range_depends_on_dim(self):
        SigmaModel.compound(-0.3, 4)  # -1/3 < -0.3
        with pytest.raises(ValueError):
            SigmaModel.compound(-0.4, 4)
        with pytest.raises(ValueError):
            SigmaModel.compound(1.0, 4)

    def test_bandable_range(self):
        SigmaModel.bandable(1.0, 0.3, 5)  # just inside 0.5/zeta(2) = 0.30396
        with pytest.raises(ValueError):
            SigmaModel.bandable(1.0, 0.31, 5)
        with pytest.raises(ValueError):
            SigmaModel.bandable(0.0, 0.1, 5)
        with pytest.raises(ValueError):
            SigmaModel.bandable(1.0, 0.0, 5)

    def test_zeta_matches_scipy(self):
        # near s = 1 scipy's own zeta is off by up to 8.3e-16 relative to a
        # 200-bit reference, which _zeta stays within 2.2e-16 of
        s = np.concatenate([1.0 + np.logspace(-8, 0, 400), np.linspace(2.0, 40.0, 400)])
        ours = np.array([copula._zeta(x) for x in s])
        ref = zeta(s)
        assert (np.abs(ours - ref) / ref).max() <= 1e-15
        for x in (1.5, 2.0, 3.0):
            assert copula._zeta(x) == zeta(x)

    def test_spiked_range(self):
        SigmaModel.spiked(2.0, 3, 5)
        with pytest.raises(ValueError):
            SigmaModel.spiked(0.0, 3, 5)
        with pytest.raises(ValueError):
            SigmaModel.spiked(2.0, 6, 5)
        with pytest.raises(ValueError):
            SigmaModel.spiked(2.0, 0, 5)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            SigmaModel(family="toeplitz", dim=3)


class TestRealizeSigma:
    def test_compound_zero_is_identity(self):
        sigma = realize_sigma(SigmaModel.compound(0.0, 4))
        assert np.array_equal(sigma.entries, np.eye(4))

    def test_ar1_powers(self):
        sigma = realize_sigma(SigmaModel.ar1(0.5, 3))
        expect = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
        assert np.array_equal(sigma.entries, expect)

    def test_ar1_negative_r(self):
        sigma = realize_sigma(SigmaModel.ar1(-0.5, 3))
        expect = np.array([[1, -0.5, 0.25], [-0.5, 1, -0.5], [0.25, -0.5, 1]])
        assert np.array_equal(sigma.entries, expect)

    def test_bandable_entries_and_tail_sums(self):
        model = SigmaModel.bandable(1.0, 0.3, 4)
        sigma = realize_sigma(model)
        for j in range(4):
            for k in range(4):
                expect = 1.0 if j == k else 0.3 * abs(j - k) ** -2.0
                assert sigma.entries[j, k] == pytest.approx(expect, rel=1e-15)
        m0 = 2.0 * model.c / model.alpha  # integral tail bound
        for k in range(1, 4):
            worst = max(
                sum(abs(sigma.entries[i, j]) for i in range(4) if abs(i - j) > k)
                for j in range(4)
            )
            assert worst <= m0 * k**-1.0 + 1e-15

    def test_bandable_tail_property_many_shapes(self):
        for alpha in (0.5, 1.0, 2.0):
            c = 0.45 / float(zeta(alpha + 1.0))
            model = SigmaModel.bandable(alpha, c, 30)
            sigma = realize_sigma(model)
            # integral tail bound and Gershgorin bound of the bandable class
            m0 = 2.0 * c / alpha
            m1 = 1.0 + 2.0 * c * float(zeta(alpha + 1.0))
            a = np.abs(sigma.entries)
            for k in range(1, 30):
                gap = np.abs(np.subtract.outer(np.arange(30), np.arange(30)))
                tail = (a * (gap > k)).sum(axis=0).max()
                assert tail <= m0 * k**-alpha + 1e-12
            assert spectral_norm(sigma) <= m1 + 1e-10

    def test_spiked_structure(self):
        model = SigmaModel.spiked(2.0, 3, 5)
        sigma = realize_sigma(model)
        assert np.array_equal(np.diag(sigma.entries), np.ones(5))
        # within the support the off-diagonal is (lam/s)/(1+lam/s) = 0.4
        assert sigma.entries[0, 1] == pytest.approx(0.4, rel=1e-14)
        assert sigma.entries[0, 3] == 0.0
        assert sigma.entries[3, 4] == 0.0
        dec = eig_sym(sigma.base)
        gap = float(dec.values[0] - dec.values[1])
        # lam (1 - 1/s) / (1 + lam/s) with lam=2, s=3
        assert gap == pytest.approx(0.8, rel=1e-12)
        theta = np.zeros(5)
        theta[:3] = 1.0 / np.sqrt(3.0)
        assert abs(abs(float(dec.vectors[:, 0] @ theta)) - 1.0) < 1e-12

    def test_all_families_pass_population_invariants(self):
        models = [
            SigmaModel.ar1(0.5, 20),
            SigmaModel.compound(0.3, 20),
            SigmaModel.bandable(1.0, 0.3, 20),
            SigmaModel.spiked(2.0, 3, 20),
        ]
        for model in models:
            sigma = realize_sigma(model)
            assert float(eig_sym(sigma.base).values[-1]) >= -1e-8


class TestSampleLatent:
    def test_deterministic(self):
        sigma = realize_sigma(SigmaModel.ar1(0.5, 4))
        a = sample_latent(sigma, 50, 123)
        b = sample_latent(sigma, 50, 123)
        assert np.array_equal(a.entries, b.entries)
        c = sample_latent(sigma, 50, 124)
        assert not np.array_equal(a.entries, c.entries)

    def test_dimension_one_is_raw_stream(self):
        sigma = realize_sigma(SigmaModel.compound(0.0, 1))
        x = sample_latent(sigma, 100, 7)
        raw = np.random.Generator(np.random.Philox(7)).standard_normal((100, 1))
        assert np.array_equal(x.entries, raw)

    def test_identity_moments(self):
        n = 4000
        sigma = realize_sigma(SigmaModel.compound(0.0, 3))
        x = sample_latent(sigma, n, 42).entries
        assert np.abs(x.mean(axis=0)).max() < 4.0 / np.sqrt(n)
        assert np.abs(x.var(axis=0) - 1.0).max() < 5.0 / np.sqrt(n)

    def test_strong_compound_correlation(self):
        sigma = realize_sigma(SigmaModel.compound(0.9, 2))
        x = sample_latent(sigma, 100_000, 11).entries
        assert abs(np.corrcoef(x.T)[0, 1] - 0.9) < 0.01

    def test_rejects_indefinite_sigma(self):
        r = -0.6
        bad = CorrMatrix(np.full((3, 3), r) + (1 - r) * np.eye(3))
        with pytest.raises(ValueError, match="eigenvalue"):
            sample_latent(bad, 10, 0)

    def test_rejects_bad_n(self):
        sigma = realize_sigma(SigmaModel.compound(0.0, 2))
        with pytest.raises(ValueError):
            sample_latent(sigma, 0, 0)

    def test_tie_retry_then_error(self, monkeypatch):
        sigma = realize_sigma(SigmaModel.compound(0.0, 2))
        tied = np.array([[0.0, 0.5], [0.0, 1.5], [1.0, 2.5]])
        clean = np.array([[0.0, 0.5], [0.25, 1.5], [1.0, 2.5]])

        def tied_then_clean(seed, n, d, attempt):
            return tied.copy() if attempt == 0 else clean.copy()

        monkeypatch.setattr(copula, "_gaussian_matrix", tied_then_clean)
        out = sample_latent(sigma, 3, 0)
        assert np.array_equal(out.entries, clean)

        monkeypatch.setattr(copula, "_gaussian_matrix", lambda *a: tied.copy())
        with pytest.raises(TieError) as info:
            sample_latent(sigma, 3, 0)
        assert info.value.column == 0


class TestTransforms:
    def test_identity_unchanged(self):
        x = DataMatrix(np.array([[0.1, -2.0], [3.0, 4.0]]))
        out = apply_transforms(x, TransformSet(("identity", "identity")))
        assert np.array_equal(out.entries, x.entries)

    def test_cube_example(self):
        x = DataMatrix(np.array([[-1.0], [0.0], [2.0]]))
        out = apply_transforms(x, TransformSet(("cube",)))
        assert np.array_equal(out.entries[:, 0], [-1.0, 0.0, 8.0])

    def test_rank_invariance_exact(self):
        rng = np.random.default_rng(3)
        x = DataMatrix(rng.normal(size=(40, 4)))
        t = TransformSet(("identity", "cube", "expshift", "softsign"))
        out = apply_transforms(x, t)
        for j in range(4):
            assert np.array_equal(
                np.argsort(x.entries[:, j]), np.argsort(out.entries[:, j])
            )

    def test_every_tag_strictly_increasing_on_grid(self):
        grid = np.linspace(-8.0, 8.0, 1001)
        for tag in copula.TRANSFORM_TAGS:
            values = copula._TRANSFORMS[tag](grid)
            assert (np.diff(values) > 0).all(), tag

    def test_count_mismatch(self):
        x = DataMatrix(np.zeros((2, 3)) + np.arange(6).reshape(2, 3))
        with pytest.raises(ValueError, match="transform count"):
            apply_transforms(x, TransformSet(("identity",)))

    def test_alias_and_unknown_tag(self):
        # each transform has one tag: "logit-ish" does not name softsign
        for tag in ("logit-ish", "sigmoid"):
            with pytest.raises(ValueError, match="unknown transform"):
                TransformSet((tag,))

    def test_cycled_template(self):
        t = TransformSet.cycled(("cube", "expshift"), 5)
        assert t.tags == ("cube", "expshift", "cube", "expshift", "cube")
        assert TransformSet.cycled((), 2).tags == ("identity", "identity")


class TestDataMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DataMatrix(np.array([[1.0], [np.inf]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DataMatrix(np.zeros((0, 2)))

    def test_shape_accessors(self):
        x = DataMatrix(np.zeros((5, 2)))
        assert (x.n, x.d) == (5, 2)
