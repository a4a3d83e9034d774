"""Independent brute-force reference implementations used only by tests.

Each function recomputes a quantity from its definition with no code shared
with the package, so agreement is evidence rather than tautology.
"""

import math
from itertools import combinations

import numpy as np
from scipy.special import ndtr, owens_t


def kendall_naive(x):
    """Definitional Kendall matrix: average sign product over all pairs.

    The pair sum is forced to an exact integer before the single division so
    the result is bit-comparable with any other exact formulation.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    i, j = np.triu_indices(n, 1)
    sgn = np.sign(x[i, :] - x[j, :])
    s = np.rint(sgn.T @ sgn).astype(np.int64)
    out = (2 * s) / float(n * (n - 1))
    np.fill_diagonal(out, 1.0)
    return out


def kendall_tiny(x):
    """Pure-Python quadruple loop, practical only for very small inputs."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    out = np.eye(d)
    for j in range(d):
        for k in range(j + 1, d):
            s = 0
            for a in range(n - 1):
                for b in range(a + 1, n):
                    pj = 1 if x[a, j] > x[b, j] else -1
                    pk = 1 if x[a, k] > x[b, k] else -1
                    s += pj * pk
            out[j, k] = out[k, j] = (2 * s) / (n * (n - 1))
    return out


def inversions_slow(seq):
    seq = list(seq)
    return sum(
        1
        for a in range(len(seq) - 1)
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )


def spearman_general(x):
    """Spearman matrix with the general mean-centered denominator."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    r = np.empty((n, d))
    for col in range(d):
        ranks = np.empty(n)
        ranks[np.argsort(x[:, col])] = np.arange(1, n + 1)
        r[:, col] = ranks
    c = r - r.mean(axis=0)
    ss = (c * c).sum(axis=0)
    out = (c.T @ c) / np.sqrt(np.outer(ss, ss))
    np.fill_diagonal(out, 1.0)
    return out


def spearman_exact(x):
    """Definitional Spearman matrix kept exact until one final division.

    Doubled centered ranks 2r - (n+1) are integers, so accumulating their
    products in Python ints and dividing once by n(n^2-1)/3 rounds exactly
    once.  The packaged half-integer Gram route rounds once on the same
    rational, so the two agree bitwise on tie-free data.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    doubled = np.empty((n, d), dtype=np.int64)
    for col in range(d):
        ranks = np.empty(n, dtype=np.int64)
        ranks[np.argsort(x[:, col], kind="stable")] = np.arange(1, n + 1)
        doubled[:, col] = 2 * ranks - (n + 1)
    out = np.eye(d)
    denom = float(n * (n * n - 1)) / 3.0
    for j in range(d):
        for k in range(j + 1, d):
            total = 0
            for i in range(n):
                total += int(doubled[i, j]) * int(doubled[i, k])
            out[j, k] = out[k, j] = total / denom
    return out


def order3_sign_stat(x, j, k):
    """Average of 3 sgn(x1j-x2j) sgn(x1k-x3k) over ordered distinct triples."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    total = 0
    for i1 in range(n):
        for i2 in range(n):
            if i2 == i1:
                continue
            sj = 1 if x[i1, j] > x[i2, j] else -1
            for i3 in range(n):
                if i3 == i1 or i3 == i2:
                    continue
                total += sj if x[i1, k] > x[i3, k] else -sj
    return 3.0 * total / (n * (n - 1) * (n - 2))


def phi2_owens(x, y, rho):
    """Bivariate normal CDF through Owen's T-function identity.

    A route independent of any quadrature of the density: the orthant
    probability splits into two T integrals plus marginal terms.  Scalar
    only; accurate to roughly 1e-14.
    """
    x, y, rho = float(x), float(y), float(rho)
    if abs(rho) >= 1.0:
        raise ValueError("|rho| must be below 1")
    if x == 0.0 and y == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    den = math.sqrt(1.0 - rho * rho)

    def t_term(h, other):
        if h == 0.0:
            # T(0, a) = atan(a) / (2 pi) with a -> sign(other) * inf
            return math.copysign(0.25, other)
        return float(owens_t(h, (other - rho * h) / (h * den)))

    beta = 0.5 if (x * y < 0.0 or (x * y == 0.0 and x + y < 0.0)) else 0.0
    return (ndtr(x) + ndtr(y)) / 2.0 - t_term(x, y) - t_term(y, x) - beta


def hbar_owens(x, y, rho):
    """Tau kernel built on the Owen-identity CDF (scalar)."""
    return 4.0 * phi2_owens(x, y, rho) - 2.0 * ndtr(x) - 2.0 * ndtr(y) + 1.0


def _split_axis(split, panels, order):
    """Gauss-Legendre nodes/weights on [-9, 9] with a panel edge at split."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    pts = []
    wts = []
    for lo, hi in ((-9.0, split), (split, 9.0)):
        edges = np.linspace(lo, hi, panels + 1)
        half = np.diff(edges) / 2.0
        mid = (edges[:-1] + edges[1:]) / 2.0
        pts.append((mid[:, None] + half[:, None] * nodes[None, :]).ravel())
        wts.append((half[:, None] * weights[None, :]).ravel())
    return np.concatenate(pts), np.concatenate(wts)


def hbar_double_quadrature(x, y, rho, panels=12, order=16):
    """Tensor quadrature of sgn(x-u) sgn(y-v) phi_rho(u, v) over [-9, 9]^2.

    Panel edges are aligned with the sign-change lines so each panel sees a
    smooth integrand.  Reliable to ~1e-10 for |rho| <= 0.9; the density
    ridge gets too narrow for this panel budget beyond that.
    """
    u, wu = _split_axis(float(x), panels, order)
    v, wv = _split_axis(float(y), panels, order)
    su = np.sign(x - u)
    sv = np.sign(y - v)
    comp = 1.0 - rho * rho
    quad = u[:, None] ** 2 - 2.0 * rho * u[:, None] * v[None, :] + v[None, :] ** 2
    density = np.exp(-quad / (2.0 * comp)) / (2.0 * math.pi * math.sqrt(comp))
    return float(
        ((su * wu)[:, None] * (sv * wv)[None, :] * density).sum()
    )


def gbar_closed(x, rho):
    """Mean of hbar(x, Y, rho) over Y ~ N(0, 1), via a correlation rescale.

    Averaging the bivariate CDF over an independent normal second argument
    is itself a bivariate CDF at (x, 0) with correlation rho / sqrt(2).
    """
    return 4.0 * phi2_owens(float(x), 0.0, float(rho) / math.sqrt(2.0)) - 2.0 * float(
        ndtr(x)
    )


def gbar_brute(x, rho, panels=32, order=16):
    """Direct outer quadrature of hbar(x, y, rho) phi(y) dy on [-8.5, 8.5]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-8.5, 8.5, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    ypts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wpts = (half[:, None] * weights[None, :]).ravel()
    total = 0.0
    for yv, wv in zip(ypts, wpts):
        total += wv * hbar_owens(x, yv, rho) * math.exp(-0.5 * yv * yv)
    return total / math.sqrt(2.0 * math.pi)


def exhaustive_sparse_norm(m, s):
    """Unpruned sparse spectral norm: eigvalsh over the full stack of s x s
    principal submatrices of the array m, with the first (lexicographically
    smallest) argmax support."""
    subsets = np.array(list(combinations(range(m.shape[0]), s)), dtype=np.intp)
    w = np.linalg.eigvalsh(m[subsets[:, :, None], subsets[:, None, :]])
    scores = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
    top = scores.max()
    return float(top), tuple(int(i) for i in subsets[np.flatnonzero(scores == top)[0]])
