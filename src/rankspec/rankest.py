"""Pairwise rank statistics and the sine-map correlation estimators.

Kendall and Spearman matrices are computed from ranks only, so they are
invariant (bitwise) to strictly increasing per-column transforms of the
input.  Both estimators require tie-free columns; ties raise TieError naming
the offending column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copula import DataMatrix, _tied_columns
from .errors import TieError
from .linalg import CorrMatrix, SymMatrix

__all__ = [
    "RankStatMatrix",
    "kendall_tau_matrix",
    "spearman_rho_matrix",
    "sigma_hat_tau",
    "sigma_hat_rho",
    "tau_pop",
    "rho_pop",
    "oracle_sample_corr",
]


@dataclass(frozen=True)
class RankStatMatrix:
    """Pairwise rank-correlation matrix tagged by kind ('tau' or 'rho')."""

    kind: str
    values: SymMatrix
    n: int

    def __post_init__(self):
        if self.kind not in ("tau", "rho"):
            raise ValueError("kind must be 'tau' or 'rho'")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        a = self.values.entries
        if not (np.diag(a) == 1.0).all():
            raise ValueError("diagonal must equal 1 exactly")
        if float(np.abs(a).max()) > 1.0:
            raise ValueError("entries must lie in [-1, 1]")


def _strict_orders_and_ranks(x):
    """Per-column sort order and 0-based ranks; rejects tied columns."""
    n, d = x.shape
    order = np.argsort(x, axis=0)
    tied = _tied_columns(np.take_along_axis(x, order, axis=0))
    if tied:
        raise TieError(tied[0])
    # int32 ranks halve memory traffic; offsets of (n+1)*d must stay in range
    dtype = np.int32 if (n + 1) * d < 2**31 else np.int64
    ranks = np.empty((n, d), dtype=dtype)
    np.put_along_axis(ranks, order, np.arange(n, dtype=dtype)[:, None], axis=0)
    return order, ranks


def _merge_count(left, right, span):
    """Cross inversions and per-row sorted merge of two row-sorted blocks.

    Rows are flattened into disjoint integer ranges (all values are ranks
    below span) so one searchsorted call serves every row at once.
    """
    dd, nl = left.shape
    nr = right.shape[1]
    offsets = span * np.arange(dd, dtype=left.dtype)[:, None]
    lflat = (left + offsets).ravel()
    rflat = (right + offsets).ravel()
    below = np.searchsorted(rflat, lflat, side="left").reshape(dd, nl)
    below -= nr * np.arange(dd, dtype=np.int64)[:, None]
    upto = np.searchsorted(lflat, rflat, side="right").reshape(dd, nr)
    upto -= nl * np.arange(dd, dtype=np.int64)[:, None]

    merged = np.empty((dd, nl + nr), dtype=left.dtype)
    stride = (nl + nr) * np.arange(dd, dtype=np.int64)[:, None]
    flat = merged.ravel()
    flat[(np.arange(nl)[None, :] + below + stride).ravel()] = left.ravel()
    flat[(np.arange(nr)[None, :] + upto + stride).ravel()] = right.ravel()
    return below.sum(axis=1), merged


_BASE_COLS = 64


def _row_inversions(a, span):
    """Inversion count of each row of a, by divide and conquer on columns."""
    dd, n = a.shape
    if n <= _BASE_COLS:
        above = a[:, :, None] > a[:, None, :]
        upper = np.triu(np.ones((n, n), dtype=bool), 1)[None, :, :]
        counts = (above & upper).sum(axis=(1, 2), dtype=np.int64)
        return counts, np.sort(a, axis=1)
    mid = n // 2
    count_low, left = _row_inversions(a[:, :mid], span)
    count_high, right = _row_inversions(a[:, mid:], span)
    cross, merged = _merge_count(left, right, span)
    return count_low + count_high + cross, merged


def kendall_tau_matrix(y):
    """All pairwise Kendall tau statistics of a tie-free sample.

    Each pair costs O(n log n): sort by one column, then discordant pairs are
    exactly the inversions of the other column's rank sequence, and
    tau = (n(n-1) - 4 inv) / (n(n-1)).  With tie-free input that rational
    equals the definitional sign-product average, including bitwise in
    floating point, because both divide the same integer by n(n-1).
    """
    x = y.entries
    n, d = x.shape
    if n < 2:
        raise ValueError("Kendall's tau requires n >= 2")
    order, ranks = _strict_orders_and_ranks(x)
    span = ranks.dtype.type(n + 1)
    discordant = np.zeros((d, d), dtype=np.int64)
    for j in range(d - 1):
        induced = np.ascontiguousarray(ranks[order[:, j], j + 1 :].T)
        counts, _ = _row_inversions(induced, span)
        discordant[j, j + 1 :] = counts
    pairs = n * (n - 1)
    values = (pairs - 4 * (discordant + discordant.T)) / float(pairs)
    np.fill_diagonal(values, 1.0)
    return RankStatMatrix("tau", SymMatrix(values), n)


def spearman_rho_matrix(y):
    """All pairwise Spearman rho statistics of a tie-free sample.

    Uses centered ranks r - (n+1)/2 with the tie-free closed-form denominator
    n(n^2-1)/12 per column.  Ranks are half-integers, so the Gram matrix of
    centered ranks is exact in double precision up to n around 4e5 and the
    Cauchy-Schwarz bound keeps every entry inside [-1, 1] without clamping.
    """
    x = y.entries
    n, d = x.shape
    if n < 2:
        raise ValueError("Spearman's rho requires n >= 2")
    _, ranks = _strict_orders_and_ranks(x)
    centered = (ranks + 1) - (n + 1) / 2.0
    gram = centered.T @ centered
    values = gram / ((n * (n * n - 1)) / 12.0)
    np.fill_diagonal(values, 1.0)
    return RankStatMatrix("rho", SymMatrix(values), n)


def _unit_diag_corr(values):
    np.fill_diagonal(values, 1.0)
    return CorrMatrix(SymMatrix(values))


def sigma_hat_tau(t):
    """Sine map sin((pi/2) tau) of a Kendall matrix; diagonal stays 1."""
    if t.kind != "tau":
        raise ValueError("expected a tau matrix, got kind=%r" % t.kind)
    return _unit_diag_corr(np.sin((np.pi / 2.0) * t.values.entries))


def sigma_hat_rho(r):
    """Sine map 2 sin((pi/6) rho) of a Spearman matrix; diagonal stays 1."""
    if r.kind != "rho":
        raise ValueError("expected a rho matrix, got kind=%r" % r.kind)
    return _unit_diag_corr(2.0 * np.sin((np.pi / 6.0) * r.values.entries))


def tau_pop(sigma):
    """Population Kendall matrix (2/pi) asin(Sigma), unit diagonal."""
    values = (2.0 / np.pi) * np.arcsin(sigma.entries)
    np.fill_diagonal(values, 1.0)
    return SymMatrix(values)


def rho_pop(sigma):
    """Population Spearman matrix (6/pi) asin(Sigma/2), unit diagonal."""
    values = (6.0 / np.pi) * np.arcsin(0.5 * sigma.entries)
    np.fill_diagonal(values, 1.0)
    return SymMatrix(values)


def oracle_sample_corr(x):
    """Second-moment matrix X'X/n of latent data (not rescaled to unit diag)."""
    if not isinstance(x, DataMatrix):
        x = DataMatrix(x)
    return SymMatrix(x.entries.T @ x.entries / float(x.n))
