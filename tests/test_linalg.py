import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankspec.errors import GuardExceededError
from rankspec.linalg import (
    CorrMatrix,
    SymMatrix,
    eig_sym,
    norm_frobenius,
    norm_max,
    sin_angle,
    sparse_spectral_norm,
    spectral_norm,
)


def random_sym(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) * scale
    return SymMatrix(a + a.T)


class TestSymMatrix:
    def test_mirrors_upper_triangle_bitwise(self):
        a = SymMatrix([[1.0, 0.3], [99.0, 2.0]])
        assert a.entries[1, 0] == 0.3
        assert a.entries[0, 1] == a.entries[1, 0]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            SymMatrix([[1.0, np.nan], [np.nan, 1.0]])


class TestCorrMatrix:
    def test_accepts_valid_correlation(self):
        c = CorrMatrix([[1.0, 0.5], [0.5, 1.0]])
        assert c.dim == 2

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            CorrMatrix([[1.0, 0.0], [0.0, 0.999]])

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            CorrMatrix([[1.0, 1.2], [1.2, 1.0]])

    def test_population_check_rejects_indefinite(self):
        # equicorrelation at r = -0.6 in dimension 3 has eigenvalue -0.2
        r = -0.6
        a = np.full((3, 3), r) + (1 - r) * np.eye(3)
        with pytest.raises(ValueError, match="eigenvalue"):
            CorrMatrix(a, check_psd=True)
        CorrMatrix(a)  # estimate-mode wrapper does not care


class TestEigSym:
    def test_identity(self):
        dec = eig_sym(SymMatrix(np.eye(3)))
        assert np.array_equal(dec.values, np.ones(3))

    def test_diagonal(self):
        dec = eig_sym(SymMatrix(np.diag([3.0, 1.0, -2.0])))
        assert np.array_equal(dec.values, [3.0, 1.0, -2.0])

    def test_two_by_two_hand_solve(self):
        # [[2,1],[1,2]] has eigenpairs (3, (1,1)/sqrt2) and (1, (1,-1)/sqrt2)
        dec = eig_sym(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert dec.values == pytest.approx([3.0, 1.0], abs=1e-12)
        for col, expect in ((0, [1.0, 1.0]), (1, [1.0, -1.0])):
            v = dec.vectors[:, col]
            e = np.array(expect) / math.sqrt(2.0)
            assert abs(abs(float(v @ e)) - 1.0) < 1e-12

    def test_descending_order_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dec = eig_sym(random_sym(rng, 9))
            assert (np.diff(dec.values) <= 0).all()
            gram = dec.vectors.T @ dec.vectors
            assert np.abs(gram - np.eye(9)).max() < 1e-10

    def test_reconstruction_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = random_sym(rng, 12, scale=3.0)
            dec = eig_sym(a)
            back = (dec.vectors * dec.values) @ dec.vectors.T
            assert np.abs(back - a.entries).max() <= 1e-8 * spectral_norm(a)

    def test_deterministic_for_identical_bits(self):
        rng = np.random.default_rng(9)
        a = random_sym(rng, 8)
        b = SymMatrix(a.entries.copy())
        d1, d2 = eig_sym(a), eig_sym(b)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(d1.vectors, d2.vectors)


class TestNorms:
    def test_spectral_examples(self):
        assert spectral_norm(SymMatrix(np.diag([3.0, 1.0, -5.0]))) == 5.0
        assert spectral_norm(SymMatrix([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix_skips_eigensolver(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("eigensolver invoked on zero matrix")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        assert spectral_norm(SymMatrix(np.zeros((4, 4)))) == 0.0

    def test_frobenius_and_max_examples(self):
        eye2 = SymMatrix(np.eye(2))
        assert norm_frobenius(eye2) == pytest.approx(math.sqrt(2.0))
        assert norm_max(eye2) == 1.0
        anti = SymMatrix([[0.0, 2.0], [2.0, 0.0]])
        assert norm_frobenius(anti) == pytest.approx(2.0 * math.sqrt(2.0))
        assert norm_max(anti) == 2.0

    def test_frobenius_and_max_match_elementwise_loops(self):
        rng = np.random.default_rng(10)
        a = random_sym(rng, 3)
        total = 0.0
        biggest = 0.0
        for j in range(3):
            for k in range(3):
                total += a.entries[j, k] ** 2
                biggest = max(biggest, abs(a.entries[j, k]))
        assert norm_frobenius(a) == pytest.approx(math.sqrt(total), rel=1e-14)
        assert norm_max(a) == biggest

    def test_norm_ordering(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = random_sym(rng, int(rng.integers(2, 9)))
            lo, mid, hi = norm_max(a), spectral_norm(a), norm_frobenius(a)
            assert lo <= mid + 1e-12
            assert mid <= hi + 1e-12

    def test_spectral_permutation_invariance(self):
        rng = np.random.default_rng(12)
        a = random_sym(rng, 7)
        perm = rng.permutation(7)
        pa = SymMatrix(a.entries[np.ix_(perm, perm)])
        assert abs(spectral_norm(pa) - spectral_norm(a)) < 1e-10


class TestSparseSpectralNorm:
    def test_full_support_is_spectral_norm(self):
        rng = np.random.default_rng(13)
        a = random_sym(rng, 5)
        value, support = sparse_spectral_norm(a, 5)
        assert value == spectral_norm(a)
        assert support == (0, 1, 2, 3, 4)

    def test_single_index_is_max_abs_diagonal(self):
        a = SymMatrix(np.diag([0.5, -3.0, 2.0]))
        value, support = sparse_spectral_norm(a, 1)
        assert value == 3.0
        assert support == (1,)

    def test_matches_exhaustive_pairs(self):
        rng = np.random.default_rng(14)
        a = random_sym(rng, 6)
        value, support = sparse_spectral_norm(a, 2)
        best = -1.0
        best_pair = None
        for pair in combinations(range(6), 2):
            sub = a.entries[np.ix_(pair, pair)]
            score = spectral_norm(SymMatrix(sub))
            if score > best:
                best, best_pair = score, pair
        assert value == pytest.approx(best, rel=1e-12)
        assert support == best_pair

    def test_nondecreasing_in_s(self):
        rng = np.random.default_rng(15)
        a = random_sym(rng, 8)
        values = [sparse_spectral_norm(a, s)[0] for s in range(1, 9)]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_tie_break_is_lexicographic(self):
        value, support = sparse_spectral_norm(SymMatrix(np.eye(4)), 2)
        assert value == 1.0
        assert support == (0, 1)

    def test_reverse_enumeration_identical(self):
        rng = np.random.default_rng(16)
        a = random_sym(rng, 7)
        fwd = sparse_spectral_norm(a, 3)
        rev = sparse_spectral_norm(a, 3, reverse_enumeration=True)
        assert fwd == rev
        eye = sparse_spectral_norm(SymMatrix(np.eye(6)), 3, reverse_enumeration=True)
        assert eye == (1.0, (0, 1, 2))

    def test_reverse_scores_every_support(self, monkeypatch):
        # lowest bound first, no bound falls below the incumbent, so the
        # reversed scan scores all C(d, s) supports; the forward scan
        # skips most of them on a planted block
        rng = np.random.default_rng(17)
        a = rng.normal(size=(20, 20)) * 0.05
        a[np.ix_([3, 8, 15], [3, 8, 15])] += 1.0
        a = SymMatrix(a + a.T)
        real = np.linalg.eigvalsh
        scored = []

        def counting(stack):
            scored.append(stack.shape[0])
            return real(stack)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        fwd = sparse_spectral_norm(a, 3)
        forward_scored = sum(scored)
        scored.clear()
        rev = sparse_spectral_norm(a, 3, reverse_enumeration=True)
        assert fwd == rev
        assert fwd[1] == (3, 8, 15)
        assert sum(scored) == math.comb(20, 3)
        assert forward_scored < math.comb(20, 3) // 10

    def test_memory_stays_blocked(self):
        # d=60, s=4 has 487635 supports; all their index rows and bounds
        # at once would take several times this cap
        rng = np.random.default_rng(18)
        a = random_sym(rng, 60)
        tracemalloc.start()
        try:
            sparse_spectral_norm(a, 4)
            sparse_spectral_norm(a, 4, reverse_enumeration=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_guard(self):
        a = SymMatrix(np.eye(40))
        with pytest.raises(GuardExceededError, match="lower s or d"):
            sparse_spectral_norm(a, 10)

    def test_rejects_bad_s(self):
        a = SymMatrix(np.eye(3))
        for s in (0, 4):
            with pytest.raises(ValueError):
                sparse_spectral_norm(a, s)


def exhaustive_sparse_norm(m, s):
    """Unpruned oracle: eigvalsh over the full stack of s x s principal
    submatrices, first (lexicographically smallest) argmax support."""
    subsets = np.array(list(combinations(range(m.shape[0]), s)), dtype=np.intp)
    w = np.linalg.eigvalsh(m[subsets[:, :, None], subsets[:, None, :]])
    scores = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
    top = scores.max()
    return float(top), tuple(int(i) for i in subsets[np.flatnonzero(scores == top)[0]])


@st.composite
def sparse_norm_inputs(draw):
    d = draw(st.integers(1, 12))
    s = draw(st.integers(1, d))
    kind = draw(
        st.sampled_from(
            ("normal", "identity", "zero", "constant", "integer", "duplicated")
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        a = rng.normal(size=(d, d)) * 10.0 ** draw(st.integers(-3, 3))
    elif kind == "identity":
        a = np.eye(d)
    elif kind == "zero":
        a = np.zeros((d, d))
    elif kind == "constant":
        a = np.full((d, d), draw(st.sampled_from((-0.5, 0.3, 1.0))))
        np.fill_diagonal(a, 1.0)
    elif kind == "integer":
        a = rng.integers(-2, 3, size=(d, d)).astype(float)
    else:
        # one block planted twice on disjoint supports: exactly tied scores
        a = np.zeros((d, d))
        k = max(1, d // 2)
        block = rng.integers(-2, 3, size=(k, k)).astype(float)
        picks = rng.permutation(d)
        first, second = np.sort(picks[:k]), np.sort(picks[k : 2 * k])
        a[np.ix_(first, first)] = block
        if second.size == k:
            a[np.ix_(second, second)] = block
    return SymMatrix(a), s


@settings(max_examples=300, deadline=None)
@given(sparse_norm_inputs())
def test_sparse_norm_matches_unpruned_oracle(case):
    a, s = case
    for reverse in (False, True):
        value, support = sparse_spectral_norm(a, s, reverse_enumeration=reverse)
        if s == a.dim:
            assert (value, support) == (spectral_norm(a), tuple(range(s)))
        else:
            assert (value, support) == exhaustive_sparse_norm(a.entries, s)


class TestSinAngle:
    def test_equal_vectors(self):
        assert sin_angle([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == 0.0

    def test_orthogonal_vectors(self):
        assert sin_angle([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_forty_five_degrees(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert sin_angle([1.0, 0.0], v) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            sin_angle([1.0, 1.0], [1.0, 0.0])
