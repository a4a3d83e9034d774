"""Dense symmetric linear algebra: containers, norms, eigenpairs, and the
exact sparse spectral norm used by the sparse-PCA routines.

Everything here is a pure function of immutable inputs and is safe to call
from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GuardExceededError

__all__ = [
    "SymMatrix",
    "CorrMatrix",
    "EigenDecomp",
    "eig_sym",
    "spectral_norm",
    "norm_frobenius",
    "norm_max",
    "sparse_spectral_norm",
    "sin_angle",
]

# C(d, s) above this many supports is refused before any enumeration
_ENUMERATION_GUARD = 10**7
# Index entries per block of supports, and matrix entries per eigvalsh
# batch, in the sparse scan: memory stays flat whatever C(d, s) is
_BLOCK_ENTRIES = 2**18


class SymMatrix:
    """Square matrix with exact entrywise symmetry.

    The constructor mirrors the upper triangle of its input (the strict
    lower triangle is ignored).  This makes ``entries[j, k] == entries[k, j]``
    hold bitwise, not just up to rounding.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError("entries must form a square d x d array with d >= 1")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must all be finite")
        # x + 0.0 reproduces x for every finite x, so the mirror is exact
        self.entries = np.triu(a) + np.triu(a, 1).T

    @property
    def dim(self):
        return self.entries.shape[0]

    def __repr__(self):
        return "SymMatrix(dim=%d)" % self.dim


class CorrMatrix:
    """Correlation matrix: symmetric, unit diagonal, off-diagonal in [-1, 1].

    Population matrices are validated with ``check_psd=True``, which also
    requires the smallest eigenvalue to clear -1e-8.  Estimates skip that
    check because entrywise transformed rank statistics need not be PSD.
    """

    __slots__ = ("base",)

    def __init__(self, base, check_psd=False):
        if not isinstance(base, SymMatrix):
            base = SymMatrix(base)
        a = base.entries
        if not (np.diag(a) == 1.0).all():
            raise ValueError("diagonal entries must equal 1 exactly")
        off = a[~np.eye(base.dim, dtype=bool)]
        if off.size and float(np.abs(off).max()) > 1.0:
            raise ValueError("off-diagonal entries must lie in [-1, 1]")
        if check_psd:
            smallest = float(eig_sym(base).values[-1])
            if smallest < -1e-8:
                raise ValueError(
                    "matrix is not positive semidefinite: smallest eigenvalue "
                    "is %.6e" % smallest
                )
        self.base = base

    @property
    def dim(self):
        return self.base.dim

    @property
    def entries(self):
        return self.base.entries

    def __repr__(self):
        return "CorrMatrix(dim=%d)" % self.dim


@dataclass(frozen=True)
class EigenDecomp:
    """Eigenvalues in descending order and the matching orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


def _as_sym(a):
    if isinstance(a, CorrMatrix):
        return a.base
    if isinstance(a, SymMatrix):
        return a
    raise TypeError("expected SymMatrix or CorrMatrix, got %r" % type(a).__name__)


def eig_sym(a):
    """Full eigendecomposition of a symmetric matrix, eigenvalues descending.

    Deterministic for identical input bits.  The output is validated against
    the decomposition contract (orthonormality to 1e-10, residual
    ``||A v - lambda v|| <= 1e-8 max(1, |lambda|)``) so silent solver failure
    cannot leak into downstream statistics.
    """
    m = _as_sym(a).entries
    d = m.shape[0]
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            "eigensolver failed to converge on a %d x %d matrix" % (d, d)
        ) from exc
    values = values[::-1].copy()
    vectors = np.ascontiguousarray(vectors[:, ::-1])

    gram_err = float(np.abs(vectors.T @ vectors - np.eye(d)).max())
    residual = m @ vectors - vectors * values
    res_err = np.sqrt((residual * residual).sum(axis=0))
    res_cap = 1e-8 * np.maximum(1.0, np.abs(values))
    if gram_err > 1e-10 or (res_err > res_cap).any():
        raise ConvergenceError(
            "eigensolver output failed validation on a %d x %d matrix" % (d, d)
        )
    return EigenDecomp(values=values, vectors=vectors)


def spectral_norm(a):
    """Largest absolute eigenvalue.  Exact 0 for the zero matrix."""
    m = _as_sym(a).entries
    if not m.any():
        return 0.0
    values = eig_sym(a).values
    return float(max(abs(values[0]), abs(values[-1])))


def norm_frobenius(a):
    m = _as_sym(a).entries
    return float(np.sqrt((m * m).sum()))


def norm_max(a):
    m = _as_sym(a).entries
    return float(np.abs(m).max())


def _binomials(d, s, cap):
    """table[k, b] = min(C(b, k), cap) for 0 <= k <= s and 0 <= b < d.

    Row k is the running sum of row k - 1 (C(b, k) = sum_{j<b} C(j, k-1)).
    Clipping each row keeps every entry below d * cap, and min(x, cap) of
    a sum equals min of the sum of clipped terms, so the clipped entries
    stay exact up to the cap.
    """
    table = np.ones((s + 1, d), dtype=np.int64)
    for k in range(1, s + 1):
        table[k, 0] = 0
        np.cumsum(table[k - 1, :-1], out=table[k, 1:])
        np.minimum(table[k], cap, out=table[k])
    return table


def _lex_subsets(binom, total, start, stop):
    """Supports start..stop-1 of the size-s subsets of range(d) in
    lexicographic order, as an (s, stop - start) index array whose row i
    holds the (i+1)-th smallest index of each support.

    The subset c_1 < ... < c_s has rank total - 1 - sum_i C(d-1-c_i, s+1-i):
    that sum is its mirror image in the combinatorial number system, which
    orders subsets in reverse.  So each c_i follows from one search of the
    binomial table per position.
    """
    s = binom.shape[0] - 1
    d = binom.shape[1]
    rest = (total - 1) - np.arange(start, stop, dtype=np.int64)
    cols = np.empty((s, stop - start), dtype=np.intp)
    for i in range(s):
        row = binom[s - i]
        b = np.searchsorted(row, rest, side="right") - 1
        rest -= row[b]
        np.subtract(d - 1, b, out=cols[i])
    return cols


def _gershgorin_bounds(abs_m, cols):
    """Certified upper bound on the eigvalsh score of each support's
    submatrix: its largest absolute row sum, inflated.

    Every eigenvalue of a principal submatrix B lies within
    g = max_i sum_j |B_ij| (Gershgorin).  The float row sum carries a
    relative error below (s - 1) eps, and LAPACK's symmetric eigensolvers
    return eigenvalues of B + E with ||E||_2 <= p(s) eps ||B||_2 <= p(s) eps g,
    where p grows modestly with s.  The relative term s * 1e-10 equals
    about 4.5e5 s eps, far above both; the absolute term 1e-300 covers the
    underflow-level errors (a few times s * 2.2e-308) that relative bounds
    miss when entries are subnormal.
    """
    s, d = cols.shape[0], abs_m.shape[0]
    flat = abs_m.ravel()
    bound = None
    for i in range(s):
        row = cols[i] * d
        g = flat.take(row + cols[0])
        for j in range(1, s):
            g += flat.take(row + cols[j])
        bound = g if bound is None else np.maximum(bound, g, out=bound)
    return bound * (1.0 + s * 1e-10) + 1e-300


def _scan_block(m, cols, bound, best, reverse):
    """Fold one block of supports into the incumbent best = (score, support).

    eigvalsh scores the candidates in batches of growing size, each batch
    the highest remaining bounds, or with ``reverse`` the lowest.  After
    each batch every candidate whose bound falls below the incumbent is
    dropped: its score cannot reach it.  Lowest bounds first, no bound ever
    falls below the incumbent, so every support is scored.
    """
    best_val, best_set = best
    s = cols.shape[0]
    cap = max(1, _BLOCK_ENTRIES // (s * s))
    key = bound if reverse else -bound
    order = np.flatnonzero(bound >= best_val)
    # one batch of 32 usually settles spiked d=30, s=3 inputs: the rest
    # of their 4060 supports fall below the incumbent at once
    step = min(32, cap)
    while order.size:
        part = np.argpartition(key[order], min(step, order.size) - 1)
        batch, order = order[part[:step]], order[part[step:]]
        sub = cols[:, batch].T
        w = np.linalg.eigvalsh(m[sub[:, :, None], sub[:, None, :]])
        scores = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
        top = float(scores.max())
        if top >= best_val:
            cand = min(
                tuple(int(i) for i in sub[h]) for h in np.flatnonzero(scores == top)
            )
            if top > best_val or cand < best_set:
                best_val, best_set = top, cand
        order = order[bound[order] >= best_val]
        step = min(2 * step, cap)
    return best_val, best_set


def sparse_spectral_norm(a, s, reverse_enumeration=False):
    """Exact maximum of the spectral norm over s x s principal submatrices.

    Considers every index set of size exactly s.  By Cauchy interlacing both
    extreme eigenvalues of a principal submatrix are bracketed by those of
    any superset, so the maximum over supports of size at most s is attained
    at size exactly s; that monotonicity is covered by a test rather than
    assumed silently.

    The supports are generated in lexicographic blocks.  Within a block
    each support gets a certified upper bound on its score (an inflated
    Gershgorin row sum), and eigvalsh scores only the supports whose bound
    still reaches the best score found so far, highest bound first.  A
    support is skipped only when its score provably falls short, so the
    result equals that of scoring every support, bit for bit.

    Returns ``(value, support)`` where support is the lexicographically
    smallest attaining index tuple regardless of visiting order.
    ``reverse_enumeration`` visits the candidates in exactly the reverse
    order: last block first and lowest bound first, which scores every
    support of a block.  Its result must equal the pruned scan's; that
    agreement is the exhaustiveness self-check.

    Raises GuardExceededError when C(d, s) exceeds 1e7.
    """
    m = _as_sym(a).entries
    d = m.shape[0]
    if not 1 <= s <= d:
        raise ValueError("s must satisfy 1 <= s <= d, got s=%d with d=%d" % (s, d))
    total = math.comb(d, s)
    if total > _ENUMERATION_GUARD:
        raise GuardExceededError(
            "C(%d, %d) = %d subsets exceeds the enumeration guard %d; "
            "lower s or d" % (d, s, total, _ENUMERATION_GUARD)
        )
    if s == d:
        return spectral_norm(a), tuple(range(d))

    abs_m = np.abs(m)
    binom = _binomials(d, s, total)
    rows = max(1, _BLOCK_ENTRIES // s)
    starts = range(0, total, rows)
    if reverse_enumeration:
        starts = reversed(starts)
    best = (-math.inf, None)
    for start in starts:
        cols = _lex_subsets(binom, total, start, min(start + rows, total))
        bound = _gershgorin_bounds(abs_m, cols)
        best = _scan_block(m, cols, bound, best, reverse_enumeration)
    return best


def sin_angle(u, v):
    """Sine of the angle between two unit vectors, in [0, 1]."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise ValueError("vectors must share a common length")
    for name, w in (("first", u), ("second", v)):
        if abs(float(np.linalg.norm(w)) - 1.0) > 1e-10:
            raise ValueError("%s argument is not a unit vector" % name)
    c2 = min(1.0, float(u @ v) ** 2)
    return math.sqrt(1.0 - c2)


def _top_eigenvectors(a, k, floor, message):
    """The k leading eigenvectors of a, as columns.

    Raises ValueError(message(gap)) unless the eigengap
    gap = lambda_k - lambda_{k+1} exceeds floor, since below that the top-k
    eigenprojection is not a stable function of a.
    """
    dec = eig_sym(a)
    gap = float(dec.values[k - 1] - dec.values[k])
    if gap <= floor:
        raise ValueError(message(gap))
    return dec.vectors[:, :k]
