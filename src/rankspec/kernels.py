"""Concentration kernels behind the rank estimators.

The first-order kernel of Kendall's tau under a latent Gaussian pair with
correlation rho is

    hbar(x, y, rho) = 4 Phi2(x, y; rho) - 2 Phi(x) - 2 Phi(y) + 1,

the expectation of sgn(x - U) sgn(y - V) over a standard bivariate normal
(U, V).  This module evaluates hbar and its pieces (hbar0 and the y-average
gbar), builds the first-order projection matrices used to decompose the
estimation error, and sweeps the inequalities those pieces and the
dependence part g = hbar(x, y, rho) - hbar(x, y, 0) must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GuardExceededError
from .linalg import SymMatrix, norm_frobenius, spectral_norm
from .rankest import kendall_tau_matrix, rho_pop, tau_pop

__all__ = [
    "TAU_KERNEL_SLOPE",
    "GBAR_SLOPE",
    "HoeffdingReport",
    "SweepRow",
    "SweepReport",
    "hbar",
    "hbar0",
    "gbar",
    "delta0_matrix",
    "delta1_matrix",
    "hoeffding_report",
    "inequality_sweep",
]

# Lipschitz-type constants: |g| <= TAU_KERNEL_SLOPE |rho| and
# |gbar| <= GBAR_SLOPE |rho|
TAU_KERNEL_SLOPE = 2.0 / math.pi + 1.0
GBAR_SLOPE = math.sqrt(2.0) / math.pi + 0.5
# gbar has converged once a panel doubling moves it by at most this much
_GBAR_TOL = 1e-9


_GL_CACHE = {}


def _ndtr(x):
    """Standard normal CDF.  scipy.special is imported on the first call, so
    only the commands that evaluate kernels pay for loading it."""
    from scipy.special import ndtr

    return ndtr(x)


def _gl(m):
    if m not in _GL_CACHE:
        _GL_CACHE[m] = np.polynomial.legendre.leggauss(m)
    return _GL_CACHE[m]


def _bvnu_moderate(h, k, r, m):
    """Upper-orthant probability for |r| <= 0.925, m-node Gauss-Legendre.

    Single-integral reduction: P(X>h, Y>k) = Phi(-h)Phi(-k) +
    (1/2pi) int_0^asin(r) exp(-(h^2+k^2-2hk sin t)/(2 cos^2 t)) dt.
    """
    nodes, weights = _gl(m)
    asr = np.arcsin(r)
    sn = np.sin(asr[..., None] * (nodes + 1.0) / 2.0)
    hk = (h * k)[..., None]
    hs = ((h * h + k * k) / 2.0)[..., None]
    total = (np.exp((sn * hk - hs) / (1.0 - sn * sn)) * weights).sum(axis=-1)
    return total * asr / (4.0 * np.pi) + _ndtr(-h) * _ndtr(-k)


def _bvnu_high(h, k, r):
    """Upper-orthant probability for 0.925 < |r| < 1.

    The single integral is rewritten around the r -> 1 singularity
    (substitution of the squared complementary correlation) so 20 nodes keep
    absolute error near 1e-15 where the plain reduction loses accuracy.
    """
    nodes, weights = _gl(20)
    flip = r < 0
    k = np.where(flip, -k, k)
    hk = h * k
    comp = (1.0 - r) * (1.0 + r)
    a = np.sqrt(comp)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr0 = -(bs / comp + hk) / 2.0
    bvn = np.where(
        asr0 > -100.0,
        a
        * np.exp(asr0)
        * (1.0 - c * (bs - comp) * (1.0 - d * bs / 5.0) / 3.0 + c * d * comp * comp / 5.0),
        0.0,
    )
    b = np.sqrt(bs)
    tail = np.sqrt(2.0 * np.pi) * _ndtr(-b / a)
    bvn = np.where(
        -hk < 100.0,
        bvn - np.exp(-hk / 2.0) * tail * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
        bvn,
    )
    half = (a / 2.0)[..., None]
    xs = (half * (nodes + 1.0)) ** 2
    rs = np.sqrt(1.0 - xs)
    hk_ = hk[..., None]
    asr1 = -(bs[..., None] / xs + hk_) / 2.0
    inner = np.exp(-hk_ * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs - (
        1.0 + c[..., None] * xs * (1.0 + d[..., None] * xs)
    )
    bvn = bvn + np.where(asr1 > -100.0, half * weights * np.exp(asr1) * inner, 0.0).sum(
        axis=-1
    )
    bvn = -bvn / (2.0 * np.pi)
    positive = bvn + _ndtr(-np.maximum(h, k))
    negative = -bvn + np.maximum(0.0, _ndtr(-h) - _ndtr(-k))
    return np.where(flip, negative, positive)


def _bvnu(h, k, r):
    out = np.empty(h.shape)
    ar = np.abs(r)
    for mask, m in (
        (ar < 0.3, 6),
        ((ar >= 0.3) & (ar < 0.75), 12),
        ((ar >= 0.75) & (ar <= 0.925), 20),
    ):
        if mask.any():
            out[mask] = _bvnu_moderate(h[mask], k[mask], r[mask], m)
    mask = ar > 0.925
    if mask.any():
        out[mask] = _bvnu_high(h[mask], k[mask], r[mask])
    return out


def _broadcast(*args):
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    scalar = all(np.ndim(a) == 0 for a in args)
    return [np.atleast_1d(a) for a in arrays], scalar


def _check_rho(rho):
    if (np.abs(rho) > 1.0 - 1e-12).any():
        raise ValueError(
            "|rho| is too close to 1; use the exact limits min(Phi(x), Phi(y)) "
            "at rho=1 and max(0, Phi(x)+Phi(y)-1) at rho=-1"
        )


def hbar0(x):
    """Centering kernel 2 Phi(x) - 1, uniform on [-1, 1] under X ~ N(0,1)."""
    out = 2.0 * _ndtr(x) - 1.0
    return float(out) if np.ndim(x) == 0 else out


def hbar(x, y, rho):
    """First-order tau kernel 4 Phi2(x, y; rho) - 2 Phi(x) - 2 Phi(y) + 1."""
    (xb, yb, rb), scalar = _broadcast(x, y, rho)
    _check_rho(rb)
    values = 4.0 * _bvnu(-xb, -yb, rb) - 2.0 * _ndtr(xb) - 2.0 * _ndtr(yb) + 1.0
    out = np.clip(values, -1.0, 1.0)
    return float(out[0]) if scalar else out.reshape(np.broadcast(x, y, rho).shape)


def _gbar_panels(x, rho, panels, order=16):
    """Composite Gauss-Legendre estimate of int hbar(x, y, rho) phi(y) dy."""
    nodes, weights = _gl(order)
    edges = np.linspace(-8.5, 8.5, panels + 1)
    halves = np.diff(edges) / 2.0
    centers = (edges[:-1] + edges[1:]) / 2.0
    ypts = (centers[:, None] + halves[:, None] * nodes[None, :]).ravel()
    wpts = (halves[:, None] * weights[None, :]).ravel()
    density = np.exp(-0.5 * ypts * ypts) / math.sqrt(2.0 * math.pi)
    vals = hbar(x[:, None], ypts[None, :], rho[:, None])
    return (vals * (wpts * density)).sum(axis=-1)


def gbar(x, rho):
    """Average kernel gbar(x, rho) = int hbar(x, y, rho) phi(y) dy.

    Panel-doubling composite quadrature over y in [-8.5, 8.5]; beyond that
    the integrand mass is below 1e-16.  Converged when a doubling moves the
    result by at most 1e-9 (well inside the 1e-8 contract); otherwise raises.
    Broadcasts over array inputs.
    """
    (xb, rb), scalar = _broadcast(x, rho)
    if (np.abs(rb) > 0.99).any():
        raise ValueError("gbar requires |rho| <= 0.99")
    previous = None
    for panels in (8, 16, 32, 64):
        estimate = _gbar_panels(xb, rb, panels)
        if previous is not None and float(np.abs(estimate - previous).max()) <= _GBAR_TOL:
            return (
                float(estimate[0])
                if scalar
                else estimate.reshape(np.broadcast(x, rho).shape)
            )
        previous = estimate
    raise ConvergenceError(
        "gbar quadrature did not stabilize to %g after %d panels" % (_GBAR_TOL, panels)
    )


def delta0_matrix(x, sigma):
    """Zero-order projection: hbar0(X)' hbar0(X) / n - rho_pop(Sigma) / 3.

    x must hold latent Gaussian rows (the projection is a population-side
    object, so it is only available in simulation).
    """
    u = hbar0(x.entries)
    r = rho_pop(sigma).entries
    return SymMatrix(u.T @ u / float(x.n) - r / 3.0)


def delta1_matrix(x, sigma):
    """First-order projection of the tau U-statistic around its mean.

    Entry (j, k) is the sample average of hbar(X_ij, X_ik, Sigma_jk) minus
    the population tau; the diagonal is zero.  Only the tau kernel is
    supported (the order-3 Spearman analogue is intentionally not built).
    """
    a = x.entries
    d = x.d
    s = sigma.entries
    t = tau_pop(sigma).entries
    out = np.zeros((d, d))
    for j in range(d - 1):
        cols = np.arange(j + 1, d)
        vals = hbar(a[:, [j]], a[:, cols], s[j, cols][None, :])
        out[j, j + 1 :] = vals.mean(axis=0) - t[j, cols]
    return SymMatrix(out)


@dataclass(frozen=True)
class HoeffdingReport:
    """Realized decomposition magnitudes next to their expectation bounds.

    residual_sq_bound caps E residual_frobenius^2; delta10_sq_bound caps
    E delta1_minus_delta0_spectral^2; delta0_bound caps E delta0_spectral.
    """

    residual_frobenius: float
    residual_sq_bound: float
    delta1_minus_delta0_spectral: float
    delta10_sq_bound: float
    delta0_spectral: float
    delta0_bound: float

    def __post_init__(self):
        for name in (
            "residual_frobenius",
            "residual_sq_bound",
            "delta1_minus_delta0_spectral",
            "delta10_sq_bound",
            "delta0_spectral",
            "delta0_bound",
        ):
            if getattr(self, name) < 0:
                raise ValueError("%s must be nonnegative" % name)


def hoeffding_report(x, sigma):
    """Measure the first-order decomposition of the tau matrix on one sample."""
    n, d = x.n, x.d
    t_hat = kendall_tau_matrix(x).values.entries
    t = tau_pop(sigma).entries
    d0 = delta0_matrix(x, sigma)
    d1 = delta1_matrix(x, sigma)
    residual = SymMatrix(t_hat - t - 2.0 * d1.entries)
    sig_f2 = float((sigma.entries * sigma.entries).sum())
    return HoeffdingReport(
        residual_frobenius=norm_frobenius(residual),
        residual_sq_bound=2.0 * d * (d - 1) / (n * (n - 1.0)),
        delta1_minus_delta0_spectral=spectral_norm(
            SymMatrix(d1.entries - d0.entries)
        ),
        delta10_sq_bound=TAU_KERNEL_SLOPE**2 * (sig_f2 - d) / n + 4.0 * d / (45.0 * n),
        delta0_spectral=spectral_norm(d0),
        delta0_bound=5.0
        * spectral_norm(sigma.base)
        * (math.sqrt((d + 1) / (3.0 * n)) + (d + 1) / n),
    )


@dataclass(frozen=True)
class SweepRow:
    """Worst (minimum) slack of one inequality over its grid, with location."""

    inequality: str
    min_slack: float
    arg_x: float
    arg_y: float
    arg_rho: float


@dataclass(frozen=True)
class SweepReport:
    rows: tuple

    def failing(self):
        """Rows whose worst slack falls below -1e-9 (or is nan)."""
        return tuple(row for row in self.rows if not row.min_slack >= -1e-9)


def _min_slack_row(name, slack, xv, yv, rv):
    flat = int(np.argmin(slack))
    return SweepRow(
        inequality=name,
        min_slack=float(slack.ravel()[flat]),
        arg_x=float(xv.ravel()[flat]),
        arg_y=float(yv.ravel()[flat]) if yv is not None else math.nan,
        arg_rho=float(rv.ravel()[flat]),
    )


# Largest sweep grid: peak memory grows with it (about 160 MB at 51 and
# 540 MB at 201, measured as the process's peak RSS)
_GRID_GUARD = 201


def inequality_sweep(grid_size=51):
    """Grid-check the kernel inequalities; report worst slack per inequality.

    Slack is bound minus left-hand side at each grid point, so every
    inequality holding numerically means min_slack >= -1e-9.  The derivative
    check is by central differences (h = 1e-5) and its stated bound includes
    a 1e-4 max(1, |rho|) finite-difference allowance.  x and y grids span
    [-4, 4]; beyond that the kernel saturates within 1e-7 of its limits.
    grid_size must lie in [3, 201]; past 201 it raises GuardExceededError.
    """
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    if grid_size > _GRID_GUARD:
        raise GuardExceededError(
            "grid_size=%d exceeds the sweep grid guard %d" % (grid_size, _GRID_GUARD)
        )
    rows = []

    # contraction of the normal CDF under scale shrinkage, rho up to 1
    rho = np.linspace(-1.0, 1.0, 21)
    y = np.linspace(-8.0, 8.0, 8 * grid_size + 1)
    shrink = np.sqrt(np.maximum(0.0, 1.0 - rho * rho))
    gap = np.abs(_ndtr(y[None, :]) - _ndtr(y[None, :] * shrink[:, None]))
    hit = np.argmax(gap, axis=1)
    slack = np.abs(rho) / 2.0 - gap[np.arange(rho.size), hit]
    rows.append(_min_slack_row("phi_contraction", slack, y[hit], None, rho))

    # g and its x-derivative on the kernel verification domain
    xg = np.linspace(-4.0, 4.0, grid_size)
    rg = np.linspace(-0.99, 0.99, 21)
    x3, y3, r3 = np.meshgrid(xg, xg, rg, indexing="ij")
    hz = hbar(x3[:, :, 0], y3[:, :, 0], 0.0)
    gval = hbar(x3, y3, r3) - hz[:, :, None]
    rows.append(
        _min_slack_row(
            "g_bound", TAU_KERNEL_SLOPE * np.abs(r3) - np.abs(gval), x3, y3, r3
        )
    )

    step = 1e-5
    hz_hi = hbar(x3[:, :, 0] + step, y3[:, :, 0], 0.0)
    hz_lo = hbar(x3[:, :, 0] - step, y3[:, :, 0], 0.0)
    g_hi = hbar(x3 + step, y3, r3) - hz_hi[:, :, None]
    g_lo = hbar(x3 - step, y3, r3) - hz_lo[:, :, None]
    deriv = np.abs(g_hi - g_lo) / (2.0 * step)
    allowance = np.abs(r3) + 1e-4 * np.maximum(1.0, np.abs(r3))
    rows.append(_min_slack_row("g_dx_bound", allowance - deriv, x3, y3, r3))

    # y-averaged kernel
    x2, r2 = np.meshgrid(xg, rg, indexing="ij")
    gb = gbar(x2.ravel(), r2.ravel()).reshape(x2.shape)
    rows.append(
        _min_slack_row("gbar_bound", GBAR_SLOPE * np.abs(r2) - np.abs(gb), x2, None, r2)
    )
    return SweepReport(rows=tuple(rows))
