"""Structured regularizers on top of the rank-based correlation estimates.

Tapering damps entries away from the diagonal with a piecewise-linear
profile and suits bandable targets; exact sparse PCA recovers a
leading direction supported on few coordinates.  Both are elementwise or
enumerative, so they stay exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SymMatrix, _top_eigenvectors, eig_sym, sparse_spectral_norm, spectral_norm

__all__ = [
    "TaperSpec",
    "SparsePCAResult",
    "taper_weights",
    "taper_estimate",
    "optimal_bandwidth",
    "sparse_pca",
    "pca_projections_compare",
]


@dataclass(frozen=True)
class TaperSpec:
    """Bandwidth holder for the taper profile; weights vanish at |i-j| >= k."""

    k: int

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
            raise ValueError("bandwidth k must be an integer")
        if self.k < 1:
            raise ValueError("bandwidth k must be at least 1")


def taper_weights(spec, d):
    """Weight matrix: 1 for |i-j| <= k/2, 2 - 2|i-j|/k up to |i-j| < k, else 0.

    k beyond d is allowed (k >= 2d means every weight is 1); bandwidth
    selection for the bandable theory should go through optimal_bandwidth,
    which does clamp to d.
    """
    if not isinstance(spec, TaperSpec):
        raise ValueError("spec must be a TaperSpec")
    if d < 1:
        raise ValueError("dimension must be positive")
    k = spec.k
    gap = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    ramp = 2.0 - 2.0 * gap / k
    return SymMatrix(np.where(gap <= k / 2.0, 1.0, np.where(gap < k, ramp, 0.0)))


def taper_estimate(sigma_hat, spec):
    """Elementwise taper of a correlation estimate.

    The diagonal weight is 1, so the unit diagonal survives; entries k or
    more away from the diagonal are zeroed.  k >= 2d leaves the input
    unchanged.
    """
    weights = taper_weights(spec, sigma_hat.dim)
    return SymMatrix(weights.entries * sigma_hat.entries)


def optimal_bandwidth(n, d, alpha):
    """Rate-optimal bandwidth min(n^(1/(2 alpha + 1)), d), rounded to even.

    Rounding to the nearest even integer keeps k/2 integral in the weight
    formula; the result is floored at 2 and clamped to the largest even
    value <= d (a 1-dimensional problem degenerates to k = 1).
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if d == 1:
        return 1
    raw = min(float(n) ** (1.0 / (2.0 * alpha + 1.0)), float(d))
    k = int(2 * round(raw / 2.0))
    if k < 2:
        return 2
    if k > d:
        return 2 * (d // 2)
    return k


@dataclass(frozen=True)
class SparsePCAResult:
    """Support of size s, the unit leading vector on it, and its eigenvalue.

    leading_value keeps the sign of the selected eigenvalue; its absolute
    value is the maximized s-sparse quadratic form.
    """

    support: tuple
    leading_vector: np.ndarray
    leading_value: float

    def __post_init__(self):
        if list(self.support) != sorted(set(int(i) for i in self.support)):
            raise ValueError("support must be sorted and duplicate-free")
        vec = np.asarray(self.leading_vector, dtype=float)
        if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-10:
            raise ValueError("leading vector must have unit norm")
        off = np.ones(vec.size, dtype=bool)
        off[list(self.support)] = False
        if vec[off].any():
            raise ValueError("leading vector must vanish off the support")


def sparse_pca(sigma_hat, s, reverse_enumeration=False):
    """Exact s-sparse leading direction of a symmetric matrix.

    The support is the lexicographically smallest argmax, over supports of
    size exactly s, of the extreme absolute eigenvalue of the submatrix
    (guarded at C(d, s) <= 1e7 candidates).  ``sparse_spectral_norm`` finds
    it by a pruned scan that skips only supports whose certified bound
    falls short, so the result is that of scoring every support.  The
    returned vector has its largest-magnitude entry made positive, ties
    broken by lowest index.  reverse_enumeration reverses the scan's
    visiting order, which scores every support of a block, and exists for
    exhaustiveness self-checks.
    """
    _, support = sparse_spectral_norm(
        sigma_hat, s, reverse_enumeration=reverse_enumeration
    )
    idx = np.asarray(support, dtype=np.intp)
    decomp = eig_sym(SymMatrix(sigma_hat.entries[np.ix_(idx, idx)]))
    pick = 0 if abs(decomp.values[0]) >= abs(decomp.values[-1]) else idx.size - 1
    vec = decomp.vectors[:, pick].copy()
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    full = np.zeros(sigma_hat.dim)
    full[idx] = vec
    return SparsePCAResult(
        support=tuple(int(i) for i in support),
        leading_vector=full,
        leading_value=float(decomp.values[pick]),
    )


def pca_projections_compare(sigma_true, sigma_hat, k):
    """Spectral norm of the difference of the top-k eigenprojections.

    Top-k means the k algebraically largest eigenvalues.  The eigengap
    lambda_k - lambda_{k+1} must exceed 1e-8 for sigma_true and 1e-10 for
    sigma_hat, since below that the projector is not a stable function of
    the matrix.
    """
    d = sigma_true.dim
    if sigma_hat.dim != d:
        raise ValueError("matrices must share a common dimension")
    if not 1 <= k < d:
        raise ValueError("k must satisfy 1 <= k < d, got k=%d with d=%d" % (k, d))
    true = _top_eigenvectors(
        sigma_true, k, 1e-8,
        lambda gap: "eigengap %g after position %d is too small" % (gap, k),
    )
    hat = _top_eigenvectors(
        sigma_hat, k, 1e-10,
        lambda gap: "degenerate eigengap in second matrix: lambda_%d - lambda_%d = %.6e"
        % (k, k + 1, gap),
    )
    return spectral_norm(SymMatrix(true @ true.T - hat @ hat.T))
