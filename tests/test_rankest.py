import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rankspec.copula import TRANSFORM_TAGS, DataMatrix, TransformSet, apply_transforms
from rankspec.errors import GuardExceededError, TieError
from rankspec.linalg import SymMatrix, eig_sym, spectral_norm
from rankspec.rankest import (
    RankStatMatrix,
    _discordant_pairs,
    _strict_orders_and_ranks,
    kendall_tau_matrix,
    oracle_sample_corr,
    rho_pop,
    sigma_hat_rho,
    sigma_hat_tau,
    spearman_rho_matrix,
    tau_pop,
)

THREE_POINT = DataMatrix(np.array([[1.0, 1.0], [2.0, 3.0], [3.0, 2.0]]))


class TestInversionCounter:
    # n on both sides of block edges: m = isqrt(n) is 7 at 63, 8 at 64 and
    # 65, and n = 65 leaves a part-filled last run
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 63, 64, 65, 130, 400])
    def test_matches_slow_count(self, n):
        rng = np.random.default_rng(n)
        for d in (1, 2, 3, 9):
            x = rng.normal(size=(n, d))
            order, ranks = _strict_orders_and_ranks(x)
            counts = _discordant_pairs(order, ranks)
            assert np.array_equal(counts, np.triu(counts, 1))
            for j in range(d):
                for c in range(j + 1, d):
                    # discordant pairs are the inversions of c's ranks in
                    # j's order
                    slow = oracles.inversions_slow(ranks[order[:, j], c])
                    assert counts[j, c] == slow

    @pytest.mark.parametrize("n", [2, 3, 5, 63, 64, 65, 130, 400])
    def test_reversed_column_swaps_concordant_and_discordant(self, n):
        # reversing a column turns every concordant pair discordant, so with
        # each column and its reverse side by side, discordant pairs of
        # (j, c) and of (j, reversed c) add up to all n(n-1)/2 pairs
        rng = np.random.default_rng(n)
        for d in (1, 2, 3, 9):
            x = rng.normal(size=(n, d))
            counts = _discordant_pairs(*_strict_orders_and_ranks(np.hstack([x, -x])))
            both = counts[:d, :d] + counts[:d, :d].T + counts[:d, d:]
            np.fill_diagonal(both, counts[:d, d:].diagonal())
            assert (both == n * (n - 1) // 2).all()


class TestKendall:
    def test_concordant_pair(self):
        x = DataMatrix(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]))
        assert kendall_tau_matrix(x).values.entries[0, 1] == 1.0

    def test_one_discordant_pair(self):
        t = kendall_tau_matrix(THREE_POINT)
        assert t.values.entries[0, 1] == (2 * 1) / 6

    def test_reversed_column(self):
        x = DataMatrix(np.array([[1.0, -1.0], [2.0, -4.0], [3.0, -9.0]]))
        assert kendall_tau_matrix(x).values.entries[0, 1] == -1.0

    def test_matches_naive_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(2, 61))
            d = int(rng.integers(1, 9))
            x = rng.normal(size=(n, d))
            fast = kendall_tau_matrix(DataMatrix(x)).values.entries
            assert np.array_equal(fast, oracles.kendall_naive(x))

    def test_matches_tiny_loop(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(9, 3))
        fast = kendall_tau_matrix(DataMatrix(x)).values.entries
        assert np.array_equal(fast, oracles.kendall_tiny(x))

    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 2))
        ours = kendall_tau_matrix(DataMatrix(x)).values.entries[0, 1]
        ref = scipy.stats.kendalltau(x[:, 0], x[:, 1]).statistic
        assert ours == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("n", [255, 256, 65535, 65536])
    def test_matches_scipy_across_dtype_switches(self, n):
        # n on both sides of each np.min_scalar_type switch in
        # _discordant_pairs: padded ranks and blocks at k*m = 256 and 65536,
        # prefix sums at n = 256 and 65536, counters at m = 256
        rng = np.random.default_rng(n)
        z = rng.normal(size=n)
        x = np.column_stack(
            [z, z + rng.normal(size=n), -z + 0.5 * rng.normal(size=n)]
        )
        ours = kendall_tau_matrix(DataMatrix(x)).values.entries
        pairs = n * (n - 1)
        for j, k in ((0, 1), (0, 2), (1, 2)):
            ref = scipy.stats.kendalltau(x[:, j], x[:, k]).statistic
            # without ties tau = 1 - 4 dis / (n(n-1)), so rounding recovers
            # the exact discordant count
            dis = round((1.0 - ref) * pairs / 4.0)
            assert ours[j, k] == (pairs - 4 * dis) / float(pairs)

    def test_tie_error_names_column(self):
        x = DataMatrix(np.array([[1.0, 1.0, 5.0], [2.0, 3.0, 5.0], [3.0, 2.0, 7.0]]))
        with pytest.raises(TieError) as info:
            kendall_tau_matrix(x)
        assert info.value.column == 2
        # every tied column is carried; .column stays the first
        x = DataMatrix(np.array([[1.0, 1.0, 5.0], [1.0, 3.0, 5.0], [3.0, 2.0, 7.0]]))
        for statistic in (kendall_tau_matrix, spearman_rho_matrix):
            with pytest.raises(TieError, match="columns 0, 2") as info:
                statistic(x)
            assert (info.value.column, info.value.columns) == (0, (0, 2))

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            kendall_tau_matrix(DataMatrix(np.array([[1.0, 2.0]])))


class TestSpearman:
    def test_identical_order(self):
        x = DataMatrix(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]))
        assert spearman_rho_matrix(x).values.entries[0, 1] == 1.0

    def test_three_point_half(self):
        r = spearman_rho_matrix(THREE_POINT)
        assert r.values.entries[0, 1] == 0.5

    def test_reversed_order(self):
        x = DataMatrix(np.array([[1.0, 9.0], [2.0, 8.0], [3.0, 7.0]]))
        assert spearman_rho_matrix(x).values.entries[0, 1] == -1.0

    def test_matches_general_denominator_form(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            x = rng.normal(size=(n, 4))
            ours = spearman_rho_matrix(DataMatrix(x)).values.entries
            assert np.abs(ours - oracles.spearman_general(x)).max() < 1e-13

    def test_matches_scipy(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 3))
        ours = spearman_rho_matrix(DataMatrix(x)).values.entries
        ref = scipy.stats.spearmanr(x).statistic
        np.fill_diagonal(ref, 1.0)
        assert np.abs(ours - ref).max() < 1e-14

    def test_entries_never_exceed_one(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 7, 200):
            x = rng.normal(size=(n, 5))
            values = spearman_rho_matrix(DataMatrix(x)).values.entries
            assert np.abs(values).max() <= 1.0

    def test_size_guard_at_exactness_bound(self):
        # n(n^2-1)/12 <= 2^51 holds up to n = 300079, where every partial
        # sum of the centered-rank Gram product is still exact
        x = np.arange(2 * 300080, dtype=float).reshape(-1, 2)
        with pytest.raises(GuardExceededError, match="n=300080"):
            spearman_rho_matrix(DataMatrix(x))
        rho = spearman_rho_matrix(DataMatrix(x[:300079])).values.entries
        assert np.array_equal(rho, np.ones((2, 2)))

    def test_order3_representation(self):
        # rho equals the weighted mix of an order-3 sign statistic and tau
        rng = np.random.default_rng(6)
        for n in (3, 8, 12):
            x = rng.normal(size=(n, 3))
            rho = spearman_rho_matrix(DataMatrix(x)).values.entries
            tau = kendall_tau_matrix(DataMatrix(x)).values.entries
            for j in range(3):
                for k in range(j + 1, 3):
                    u = oracles.order3_sign_stat(x, j, k)
                    mixed = ((n - 2) * u + 3 * tau[j, k]) / (n + 1)
                    assert abs(rho[j, k] - mixed) < 1e-12


@st.composite
def warped_samples(draw):
    n = draw(st.integers(2, 120))
    d = draw(st.integers(1, 6))
    tags = draw(st.lists(st.sampled_from(TRANSFORM_TAGS), min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return DataMatrix(rng.normal(size=(n, d))), TransformSet(tuple(tags))


class TestColumnPermutation:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 150), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_permuted_columns_permute_kendall_bitwise(self, n, d, seed):
        # each column is counted by rank after the sorting column and by
        # block before it, so a slip in that split shows under permutation
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        p = rng.permutation(d)
        full = kendall_tau_matrix(DataMatrix(x)).values.entries
        permuted = kendall_tau_matrix(DataMatrix(x[:, p])).values.entries
        assert np.array_equal(permuted, full[p][:, p])


class TestMonotoneInvariance:
    @settings(max_examples=100, deadline=None)
    @given(warped_samples())
    def test_random_warps_keep_both_statistics_bitwise(self, case):
        x, tags = case
        y = apply_transforms(x, tags)
        for statistic in (kendall_tau_matrix, spearman_rho_matrix):
            assert np.array_equal(
                statistic(x).values.entries, statistic(y).values.entries
            )

    def test_bitwise_invariance_both_statistics(self):
        rng = np.random.default_rng(7)
        x = DataMatrix(rng.normal(size=(50, 4)))
        t = TransformSet(("cube", "expshift", "softsign", "identity"))
        y = apply_transforms(x, t)
        assert np.array_equal(
            kendall_tau_matrix(x).values.entries, kendall_tau_matrix(y).values.entries
        )
        assert np.array_equal(
            spearman_rho_matrix(x).values.entries,
            spearman_rho_matrix(y).values.entries,
        )


class TestSineMaps:
    def test_sigma_hat_tau_values(self):
        base = np.array([[1.0, 1 / 3], [1 / 3, 1.0]])
        est = sigma_hat_tau(RankStatMatrix("tau", SymMatrix(base)))
        assert est.entries[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert est.entries[0, 0] == 1.0
        full = sigma_hat_tau(RankStatMatrix("tau", SymMatrix(np.ones((2, 2)))))
        assert full.entries[0, 1] == pytest.approx(1.0, abs=1e-15)
        zero = sigma_hat_tau(RankStatMatrix("tau", SymMatrix(np.eye(2))))
        assert zero.entries[0, 1] == 0.0

    def test_sigma_hat_rho_values(self):
        base = np.array([[1.0, 0.5], [0.5, 1.0]])
        est = sigma_hat_rho(RankStatMatrix("rho", SymMatrix(base)))
        assert est.entries[0, 1] == pytest.approx(2 * math.sin(math.pi / 12), abs=1e-15)
        assert est.entries[0, 1] == pytest.approx(0.517638, abs=5e-7)
        full = sigma_hat_rho(RankStatMatrix("rho", SymMatrix(np.ones((2, 2)))))
        assert full.entries[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert full.entries[0, 0] == 1.0

    def test_kind_mismatch_rejected(self):
        t = RankStatMatrix("tau", SymMatrix(np.eye(2)))
        r = RankStatMatrix("rho", SymMatrix(np.eye(2)))
        with pytest.raises(ValueError):
            sigma_hat_tau(r)
        with pytest.raises(ValueError):
            sigma_hat_rho(t)

    def test_population_maps(self):
        from rankspec.linalg import CorrMatrix

        sigma = CorrMatrix([[1.0, 0.5], [0.5, 1.0]])
        t = tau_pop(sigma)
        r = rho_pop(sigma)
        assert t.entries[0, 0] == 1.0
        assert t.entries[0, 1] == pytest.approx(1 / 3, abs=1e-15)
        assert r.entries[0, 1] == pytest.approx(6 / math.pi * math.asin(0.25), abs=1e-15)
        ones = CorrMatrix(np.ones((2, 2)))
        assert tau_pop(ones).entries[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert rho_pop(ones).entries[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_maps_invert_each_other(self):
        from rankspec.linalg import CorrMatrix

        grid = np.linspace(-0.99, 0.99, 41)
        for v in grid:
            sigma = CorrMatrix([[1.0, v], [v, 1.0]])
            t = RankStatMatrix("tau", SymMatrix(tau_pop(sigma).entries))
            r = RankStatMatrix("rho", SymMatrix(rho_pop(sigma).entries))
            assert sigma_hat_tau(t).entries[0, 1] == pytest.approx(v, abs=1e-14)
            assert sigma_hat_rho(r).entries[0, 1] == pytest.approx(v, abs=1e-14)

    def test_sine_map_ordering_on_grid(self):
        x = np.linspace(0.0, math.pi / 2, 10_000)
        lo = np.sin(2 * x / 3)
        mid = 2 * np.sin(x / 3)
        hi = np.sin(x)
        assert (lo <= mid + 1e-15).all()
        assert (mid <= hi + 1e-15).all()


class TestPopulationDomination:
    def test_rank_maps_contract_spectral_norm(self):
        # population tau/rho matrices minus their linear parts stay PSD and
        # their spectral norms never exceed that of the source matrix
        from rankspec.copula import SigmaModel, realize_sigma

        models = [
            SigmaModel.ar1(0.5, 5),
            SigmaModel.compound(0.3, 5),
            SigmaModel.bandable(1.0, 0.3, 5),
            SigmaModel.spiked(2.0, 2, 5),
        ]
        for model in models:
            sigma = realize_sigma(model)
            t = tau_pop(sigma)
            r = rho_pop(sigma)
            gap_t = SymMatrix(t.entries - (2 / math.pi) * sigma.entries)
            gap_r = SymMatrix(r.entries - (3 / math.pi) * sigma.entries)
            assert float(eig_sym(gap_t).values[-1]) >= -1e-9
            assert float(eig_sym(gap_r).values[-1]) >= -1e-9
            cap = spectral_norm(sigma) + 1e-9
            assert spectral_norm(t) <= cap
            assert spectral_norm(r) <= cap


class TestOracleSampleCorr:
    def test_single_row_outer_product(self):
        x = np.array([[1.0, -2.0, 0.5]])
        out = oracle_sample_corr(DataMatrix(x)).entries
        assert np.array_equal(out, np.outer(x[0], x[0]))

    def test_orthogonal_columns(self):
        x = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert np.array_equal(oracle_sample_corr(DataMatrix(x)).entries, np.eye(2))

    def test_matches_elementwise_sums(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 3))
        out = oracle_sample_corr(DataMatrix(x)).entries
        for j in range(3):
            for k in range(3):
                expect = sum(x[i, j] * x[i, k] for i in range(5)) / 5
                assert out[j, k] == pytest.approx(expect, rel=1e-14)


class TestRankStatMatrixInvariants:
    def test_rejects_bad_kind_and_diag(self):
        with pytest.raises(ValueError):
            RankStatMatrix("theta", SymMatrix(np.eye(2)))
        with pytest.raises(ValueError):
            RankStatMatrix("tau", SymMatrix(np.eye(2) * 0.5))
        with pytest.raises(ValueError):
            RankStatMatrix("tau", SymMatrix([[1.0, 1.5], [1.5, 1.0]]))
