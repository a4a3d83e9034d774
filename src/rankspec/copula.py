"""Synthetic data generation for the latent Gaussian correlation model.

A draw is latent Gaussian rows Z Sigma^{1/2} pushed through strictly
increasing per-column transforms, so only the ranks of the output carry
information about Sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

from .errors import TieError
from .linalg import CorrMatrix, SymMatrix, eig_sym

__all__ = [
    "SigmaModel",
    "TransformSet",
    "DataMatrix",
    "TRANSFORM_TAGS",
    "realize_sigma",
    "sample_latent",
    "apply_transforms",
]


@dataclass(frozen=True)
class SigmaModel:
    """Parametric population correlation family.

    Families: ar1(r) with entries r^|j-k|; compound(r) with constant
    off-diagonal r; bandable(alpha, c) with entries c |j-k|^(-alpha-1);
    spiked(lam, s) adding a rank-one bump on the first s coordinates,
    rescaled back to unit diagonal.
    """

    family: str
    dim: int
    r: float = 0.0
    alpha: float = 0.0
    c: float = 0.0
    lam: float = 0.0
    s: int = 0

    def __post_init__(self):
        d = self.dim
        if d < 1:
            raise ValueError("dim must be a positive integer")
        if self.family == "ar1":
            if not abs(self.r) < 1:
                raise ValueError("ar1 requires |r| < 1")
        elif self.family == "compound":
            low = -1.0 / (d - 1) if d > 1 else -1.0
            if not low < self.r < 1:
                raise ValueError(
                    "compound requires -1/(d-1) < r < 1, got r=%g with d=%d"
                    % (self.r, d)
                )
        elif self.family == "bandable":
            if not self.alpha > 0:
                raise ValueError("bandable requires alpha > 0")
            # strict diagonal dominance: 2 c zeta(alpha+1) < 1 keeps every
            # realization positive definite at any dimension
            c_max = 0.5 / float(zeta(self.alpha + 1.0))
            if not 0 < self.c < c_max:
                raise ValueError(
                    "bandable requires 0 < c < %.6g for alpha=%g, got c=%g"
                    % (c_max, self.alpha, self.c)
                )
        elif self.family == "spiked":
            if not self.lam > 0:
                raise ValueError("spiked requires lam > 0")
            if not 1 <= self.s <= d:
                raise ValueError("spiked requires 1 <= s <= dim")
        else:
            raise ValueError("unknown family %r" % self.family)

    @classmethod
    def ar1(cls, r, dim):
        return cls(family="ar1", dim=dim, r=float(r))

    @classmethod
    def compound(cls, r, dim):
        return cls(family="compound", dim=dim, r=float(r))

    @classmethod
    def bandable(cls, alpha, c, dim):
        return cls(family="bandable", dim=dim, alpha=float(alpha), c=float(c))

    @classmethod
    def spiked(cls, lam, s, dim):
        return cls(family="spiked", dim=dim, lam=float(lam), s=int(s))


def realize_sigma(model):
    """Build the population CorrMatrix of a SigmaModel, PSD-checked."""
    d = model.dim
    idx = np.arange(d)
    gap = np.abs(idx[:, None] - idx[None, :])
    if model.family == "ar1":
        # integer exponents keep negative r exact (float powers would NaN)
        entries = np.power(model.r, gap)
    elif model.family == "compound":
        entries = np.where(gap == 0, 1.0, model.r)
    elif model.family == "bandable":
        with np.errstate(divide="ignore"):
            entries = model.c * gap.astype(float) ** (-model.alpha - 1.0)
        np.fill_diagonal(entries, 1.0)
    else:
        theta = np.zeros(d)
        theta[: model.s] = 1.0 / np.sqrt(model.s)
        bumped = np.eye(d) + model.lam * np.outer(theta, theta)
        scale = 1.0 / np.sqrt(np.diag(bumped))
        entries = bumped * np.outer(scale, scale)
    np.fill_diagonal(entries, 1.0)
    return CorrMatrix(SymMatrix(entries), check_psd=True)


def _gaussian_matrix(seed, n, d, attempt):
    """Standard normal (n, d) block; retries re-key the counter stream."""
    if attempt == 0:
        bits = np.random.Philox(seed)
    else:
        bits = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(attempt,)))
    return np.random.Generator(bits).standard_normal((n, d))


def _tied_columns(ordered):
    """Indices of the columns of a column-sorted array that repeat a value."""
    collide = (np.diff(ordered, axis=0) == 0).any(axis=0)
    return [int(j) for j in np.nonzero(collide)[0]]


def sample_latent(sigma, n, seed):
    """Draw n iid rows of N(0, Sigma) as Z Sigma^{1/2}, seed-deterministic.

    The generator is Philox keyed by the 64-bit seed, so identical
    (sigma, n, seed) give bit-identical output and independent seeds may run
    concurrently; with d=1 the output is exactly the raw normal stream.
    Columns with tied floating point values are resampled once from a derived
    sub-seed, then rejected.
    """
    if not isinstance(sigma, CorrMatrix):
        raise TypeError("sigma must be a CorrMatrix")
    if n < 1:
        raise ValueError("n must be at least 1")
    dec = eig_sym(sigma.base)
    smallest = float(dec.values[-1])
    if smallest < -1e-8:
        raise ValueError(
            "sigma is not positive semidefinite: smallest eigenvalue is %.6e"
            % smallest
        )
    values = np.maximum(dec.values, 0.0)
    root = SymMatrix((dec.vectors * np.sqrt(values)) @ dec.vectors.T).entries

    d = sigma.dim
    for attempt in (0, 1):
        x = _gaussian_matrix(seed, n, d, attempt) @ root
        tied = _tied_columns(np.sort(x, axis=0))
        if not tied:
            return DataMatrix(x)
    raise TieError(tied, "tied values generated in column %d twice" % tied[0])


_TRANSFORMS = {
    "identity": lambda x: x,
    "cube": lambda x: x**3,
    "expshift": np.exp,
    "softsign": lambda x: x / (1.0 + np.abs(x)),
}
TRANSFORM_TAGS = tuple(sorted(_TRANSFORMS))


def _canonical_tag(tag):
    if tag not in _TRANSFORMS:
        raise ValueError(
            "unknown transform tag %r; choose from %s" % (tag, ", ".join(TRANSFORM_TAGS))
        )
    return tag


@dataclass(frozen=True)
class TransformSet:
    """Per-column strictly increasing marginal transforms, one tag per column."""

    tags: tuple

    def __post_init__(self):
        object.__setattr__(self, "tags", tuple(_canonical_tag(t) for t in self.tags))

    @classmethod
    def cycled(cls, template, d):
        """Cycle a tag template across d columns (handles dimension sweeps)."""
        template = tuple(template) or ("identity",)
        return cls(tuple(template[j % len(template)] for j in range(d)))


@dataclass(frozen=True)
class DataMatrix:
    """n x d sample, rows are observations."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("entries must form an n x d array with n, d >= 1")
        if not np.isfinite(a).all():
            raise ValueError("sample entries must all be finite")
        object.__setattr__(self, "entries", a)

    @property
    def n(self):
        return self.entries.shape[0]

    @property
    def d(self):
        return self.entries.shape[1]


def apply_transforms(x, t):
    """Push each column of x through its tagged transform."""
    if len(t.tags) != x.d:
        raise ValueError(
            "transform count %d does not match d=%d" % (len(t.tags), x.d)
        )
    out = np.empty_like(x.entries)
    for j, tag in enumerate(t.tags):
        out[:, j] = _TRANSFORMS[tag](x.entries[:, j])
    return DataMatrix(out)
