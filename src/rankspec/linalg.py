"""Dense symmetric linear algebra: containers, norms, eigenpairs, and the
exhaustive sparse spectral norm used by the sparse-PCA routines.

Everything here is a pure function of immutable inputs and is safe to call
from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

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


def _subset_blocks(d, s, reverse):
    """Yield (m, s) index blocks covering all size-s subsets of range(d)."""
    source = range(d - 1, -1, -1) if reverse else range(d)
    combos = combinations(source, s)
    rows = max(1, min(200_000, 2_000_000 // (s * s)))
    while True:
        block = list(islice(combos, rows))
        if not block:
            return
        arr = np.array(block, dtype=np.intp)
        if reverse:
            arr = np.sort(arr, axis=1)
        yield arr


def sparse_spectral_norm(a, s, reverse_enumeration=False):
    """Exact maximum of the spectral norm over s x s principal submatrices.

    Enumerates index sets of size exactly s.  By Cauchy interlacing both
    extreme eigenvalues of a principal submatrix are bracketed by those of
    any superset, so the maximum over supports of size at most s is attained
    at size exactly s; that monotonicity is covered by a test rather than
    assumed silently.

    Returns ``(value, support)`` where support is the lexicographically
    smallest attaining index tuple regardless of enumeration order.
    ``reverse_enumeration`` flips the enumeration and must not change the
    result; it exists as a determinism self-check.

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

    best_val = -math.inf
    best_set = None
    for block in _subset_blocks(d, s, reverse_enumeration):
        sub = m[block[:, :, None], block[:, None, :]]
        w = np.linalg.eigvalsh(sub)
        scores = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
        top = float(scores.max())
        if top < best_val:
            continue
        hits = np.nonzero(scores == top)[0]
        if hits.size == 1:
            cand = tuple(int(i) for i in block[hits[0]])
        else:
            rows = block[hits]
            cand = tuple(int(i) for i in rows[np.lexsort(rows.T[::-1])[0]])
        if top > best_val or cand < best_set:
            best_val = top
            best_set = cand
    return best_val, best_set


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
