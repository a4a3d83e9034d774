"""Pairwise rank statistics and the sine-map correlation estimators.

Kendall and Spearman matrices are computed from ranks only, so they are
invariant (bitwise) to strictly increasing per-column transforms of the
input.  Both estimators require tie-free columns; ties raise TieError naming
the offending column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copula import DataMatrix, _tied_columns
from .errors import GuardExceededError, TieError
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
    # int32 ranks halve memory traffic
    dtype = np.int32 if n < 2**31 else np.int64
    ranks = np.empty((n, d), dtype=dtype)
    np.put_along_axis(ranks, order, np.arange(n, dtype=dtype)[:, None], axis=0)
    return order, ranks


def _block_inversions(b):
    """Inversion count inside each length-m block b[r, i, :], summed per row r."""
    dd, k, m = b.shape
    # blocks as columns: each comparison below runs over one contiguous slab
    cols = np.ascontiguousarray(b.transpose(2, 0, 1))
    acc = np.zeros((m - 1, dd, k), dtype=np.min_scalar_type(m))
    for shift in range(1, m):
        acc[: m - shift] += cols[: m - shift] > cols[shift:]
    return acc.sum(axis=(0, 2), dtype=np.int64)


def _row_inversions(a):
    """Inversion count of each row of a, whose rows are permutations of 0..n-1.

    Positions and values are cut into blocks of m ~ sqrt(n).  A pair inside
    one position block is compared directly.  A pair in two position blocks
    but one value block is compared by position block along the value order.
    Any other pair is decided by its (position block, value block) cells,
    counted with prefix sums over the k x k grid of cells.  Rows are padded
    to k*m with ascending values above every entry, which add no inversion.
    """
    dd, n = a.shape
    m = max(2, math.isqrt(n))
    k = -(-n // m)
    pos_block = np.arange(n) // m
    inverse = np.empty_like(a)
    np.put_along_axis(inverse, a, np.arange(n, dtype=a.dtype)[None, :], axis=1)
    # the narrowest dtype that holds the values halves or quarters the
    # memory traffic of the block comparisons
    padded = np.empty((dd, k * m), dtype=np.min_scalar_type(k * m))
    padded[:, :n] = a
    padded[:, n:] = np.arange(n, k * m)
    same_pos = _block_inversions(padded.reshape(dd, k, m))
    padded = np.empty((dd, k * m), dtype=np.min_scalar_type(k))
    padded[:, :n] = inverse // m
    padded[:, n:] = k
    same_value = _block_inversions(padded.reshape(dd, k, m))
    cell = (np.arange(dd)[:, None] * k + pos_block) * k + a // m
    grid = np.bincount(cell.ravel(), minlength=dd * k * k).reshape(dd, k, k)
    before = np.cumsum(grid, axis=1) - grid
    before_above = np.cumsum(before[:, :, ::-1], axis=2)[:, :, ::-1] - before
    return same_pos + same_value + np.einsum("rpq,rpq->r", grid, before_above)


def kendall_tau_matrix(y):
    """All pairwise Kendall tau statistics of a tie-free sample.

    Sort by one column: discordant pairs are then exactly the inversions of
    the other column's rank sequence, counted in O(n sqrt n) per pair, and
    tau = (n(n-1) - 4 inv) / (n(n-1)).  With tie-free input that rational
    equals the definitional sign-product average, including bitwise in
    floating point, because both divide the same integer by n(n-1).
    """
    x = y.entries
    n, d = x.shape
    if n < 2:
        raise ValueError("Kendall's tau requires n >= 2")
    order, ranks = _strict_orders_and_ranks(x)
    discordant = np.zeros((d, d), dtype=np.int64)
    for j in range(d - 1):
        discordant[j, j + 1 :] = _row_inversions(ranks[order[:, j], j + 1 :].T)
    pairs = n * (n - 1)
    values = (pairs - 4 * (discordant + discordant.T)) / float(pairs)
    np.fill_diagonal(values, 1.0)
    return RankStatMatrix("tau", SymMatrix(values), n)


def spearman_rho_matrix(y):
    """All pairwise Spearman rho statistics of a tie-free sample.

    Uses centered ranks r - (n+1)/2 with the tie-free closed-form denominator
    n(n^2-1)/12 per column.  Every partial sum of the centered-rank Gram
    product is a multiple of 1/4 no larger than n(n^2-1)/12, so it is exact
    in any summation order while that is at most 2^51 (n <= 300079); larger
    n raises GuardExceededError.  The Cauchy-Schwarz bound keeps every entry
    inside [-1, 1] without clamping.
    """
    x = y.entries
    n, d = x.shape
    if n < 2:
        raise ValueError("Spearman's rho requires n >= 2")
    if n * (n * n - 1) > 12 * 2**51:
        raise GuardExceededError("n=%d exceeds the exact Spearman bound 300079" % n)
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
