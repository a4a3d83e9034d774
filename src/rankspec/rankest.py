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

    def __post_init__(self):
        if self.kind not in ("tau", "rho"):
            raise ValueError("kind must be 'tau' or 'rho'")
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
        raise TieError(tied)
    # int32 ranks halve memory traffic
    dtype = np.int32 if n < 2**31 else np.int64
    ranks = np.empty((n, d), dtype=dtype)
    np.put_along_axis(ranks, order, np.arange(n, dtype=dtype)[:, None], axis=0)
    return order, ranks


def _discordant_pairs(order, ranks):
    """Discordant-pair counts of every column pair j < c, as an upper triangle.

    Ranks fall in k blocks of m ~ sqrt(n).  In column l's order each run of m
    rows is one block of l, and pairs inside a run are compared by rank in
    each later column c and by block in each earlier column j, so a pair
    sharing a block of both is counted once.  Other pairs of (l, c) are
    counted by prefix sums over the k x k grid of (block of l, block of c).
    Rows are padded to k*m with ascending values that add no inversion.
    """
    n, d = ranks.shape
    m = max(2, math.isqrt(n))
    k = -(-n // m)
    # the narrowest dtype that holds the padded ranks cuts memory traffic
    dtype = np.min_scalar_type(k * m)
    blocks = (ranks // m).astype(dtype)
    mixed = ranks.astype(dtype)
    rows = np.empty((k * m, d), dtype=dtype)
    rows[n:] = np.arange(n, k * m, dtype=dtype)[:, None]
    runs = rows.reshape(k, m, d)
    flags = np.empty((k, m - 1, d), dtype=bool)
    counter = np.empty((k, m - 1, d), dtype=np.min_scalar_type(m))
    counts = np.empty((d, d), dtype=np.int64)
    for l in range(d):
        np.take(mixed, order[:, l], axis=0, out=rows[:n])
        mixed[:, l] = blocks[:, l]
        counter.fill(0)
        for shift in range(1, m):
            np.greater(runs[:, : m - shift], runs[:, shift:], out=flags[:, : m - shift])
            counter[:, : m - shift] += flags[:, : m - shift].view(np.uint8)
        counts[l] = counter.sum(axis=(0, 1), dtype=np.int64)
        # intp cells: up to k*k*(d-1), past 2**31 at d = 1024 from n ~ 2**21
        rest = d - 1 - l
        cell = np.add.outer(np.multiply(blocks[:, l], k * rest, dtype=np.intp), np.arange(rest))
        cell += np.multiply(blocks[:, l + 1 :], rest, dtype=np.intp)
        grid = np.bincount(cell.ravel(), minlength=k * k * rest).reshape(k, k, rest)
        # corner[p, q]: rows in blocks <= p of l and >= q of c, at most n
        corner = grid.astype(np.min_scalar_type(n))
        for p in range(1, k):
            np.add(corner[p - 1], corner[p], out=corner[p])
        for q in range(k - 2, -1, -1):
            np.add(corner[:, q], corner[:, q + 1], out=corner[:, q])
        counts[l, l + 1 :] += np.einsum("pqc,pqc->c", grid[1:, :-1], corner[:-1, 1:])
    return np.triu(counts, 1) + np.tril(counts, -1).T


def kendall_tau_matrix(y):
    """All pairwise Kendall tau statistics of a tie-free sample.

    Discordant pairs are counted exactly, one column-ordered pass per column
    and O(n sqrt n) work per pair, and tau = (n(n-1) - 4 dis) / (n(n-1)).
    Without ties that equals the definitional sign-product average bit for
    bit: both divide the same integer by n(n-1).
    """
    x = y.entries
    n, d = x.shape
    if n < 2:
        raise ValueError("Kendall's tau requires n >= 2")
    discordant = _discordant_pairs(*_strict_orders_and_ranks(x))
    pairs = n * (n - 1)
    values = (pairs - 4 * (discordant + discordant.T)) / float(pairs)
    np.fill_diagonal(values, 1.0)
    return RankStatMatrix("tau", SymMatrix(values))


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
    return RankStatMatrix("rho", SymMatrix(values))


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
