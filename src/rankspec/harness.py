"""Seeded Monte Carlo harness for the estimator error experiments.

An experiment fixes a population family and sweeps a grid of (n, d) cells.
Each replicate draws a latent Gaussian sample, pushes it through the
configured marginal transforms, computes the requested estimators from the
transformed data, and records scalar error functionals measured against the
realized population matrix.  Replicate seeds are derived from
(seed, cell index, replicate index), so any cell is reproducible in
isolation and the result is independent of the thread schedule.

This module also owns the package's CSV format, for reading and writing
alike: one writer, which puts every float at 17 significant digits so it
reads back bit for bit, and one reader that skips blank rows and one
header.  The command line reads and writes its files through them.  A
numeric matrix is parsed by np.loadtxt when the file is well formed, and
row by row by that reader otherwise, with the same values either way.
"""

from __future__ import annotations

import csv
import math
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .copula import SigmaModel, TransformSet, apply_transforms, realize_sigma, sample_latent
from .errors import GuardExceededError, InputError, RankspecError
from .kernels import hoeffding_report
from .linalg import (
    SymMatrix,
    _sparse_subsets,
    _top_eigenvectors,
    norm_max,
    sin_angle,
    sparse_spectral_norm,
    spectral_norm,
)
from .rankest import (
    kendall_tau_matrix,
    oracle_sample_corr,
    sigma_hat_rho,
    sigma_hat_tau,
    spearman_rho_matrix,
)
from .regularize import (
    TaperSpec,
    optimal_bandwidth,
    pca_projections_compare,
    sparse_pca,
    taper_estimate,
)

__all__ = [
    "Functional",
    "ExperimentConfig",
    "Record",
    "Failure",
    "SummaryRow",
    "ExperimentResult",
    "replicate_seed",
    "run_experiment",
    "rate_fit",
    "trend_inversions",
    "bound_ratio",
    "write_records_csv",
    "write_summary_csv",
    "read_csv_rows",
    "load_records",
]

_ESTIMATORS = ("tau", "rho", "oracle")

# name -> the parameters it accepts; a functional with parameters sets exactly
# one of them, and its label is the name followed by that parameter's suffix
_FUNCTIONAL_PARAMS = {
    "spec_err": (),
    "max_err": (),
    "sparse_spec_err": ("s",),
    "taper_err": ("k", "alpha"),
    "sin_angle_sparse": ("s",),
    "proj_dist": ("k",),
    "support_recovery": ("s",),
    "hoeffding_report": (),
}
_LABEL_SUFFIX = {"s": "_s%d", "k": "_k%d", "alpha": "_a%g"}

_DIM_GUARD = 1024


def _integer(name, value, low, high=None):
    """value as an int, after checking that it is an integer, not a bool,
    of at least low and, when high is given, below high."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s: integers only, got %r" % (name, value))
    if value < low:
        raise ValueError("%s must be at least %d" % (name, low))
    if high is not None and value >= high:
        raise ValueError("%s must be below %d" % (name, high))
    return int(value)


@dataclass(frozen=True)
class Functional:
    """One scalar error functional, identified by a stable label.

    Matrix functionals measure the estimate against the realized population
    matrix: spec_err and max_err are the spectral and entrywise errors,
    sparse_spec_err(s) the exact s-sparse spectral error, and
    taper_err the spectral error after tapering (bandwidth k fixed, or
    selected per cell from alpha).  Eigenstructure functionals are
    sin_angle_sparse(s) and support_recovery(s) for the s-sparse leading
    direction and proj_dist(k) for the top-k eigenprojection distance.

    hoeffding_report is a population-side diagnostic of the tau statistic
    computed from the latent sample: the squared Frobenius norm of the
    second-order remainder.  It requires the estimator list to be exactly
    (tau,), since its value does not depend on any estimate.
    """

    name: str
    s: int = None
    k: int = None
    alpha: float = None

    def __post_init__(self):
        params = _FUNCTIONAL_PARAMS.get(self.name)
        if params is None:
            raise ValueError(
                "unknown functional %r; choose from %s"
                % (self.name, ", ".join(sorted(_FUNCTIONAL_PARAMS)))
            )
        for param in _LABEL_SUFFIX:
            if param not in params and getattr(self, param) is not None:
                raise ValueError("functional %r takes no %s" % (self.name, param))
        given = [param for param in params if getattr(self, param) is not None]
        if params and len(given) != 1:
            raise ValueError(
                "%s takes exactly one of %s" % (self.name, " or ".join(params))
            )
        if given == ["alpha"] and not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if given in (["s"], ["k"]):
            _integer("%s %s" % (self.name, given[0]), getattr(self, given[0]), 1)

    @property
    def label(self):
        """Parameter-qualified name used in records and CSV output."""
        for param in _FUNCTIONAL_PARAMS[self.name]:
            if getattr(self, param) is not None:
                return self.name + _LABEL_SUFFIX[param] % getattr(self, param)
        return self.name

    @classmethod
    def spec_err(cls):
        return cls(name="spec_err")

    @classmethod
    def max_err(cls):
        return cls(name="max_err")

    @classmethod
    def sparse_spec_err(cls, s):
        return cls(name="sparse_spec_err", s=s)

    @classmethod
    def taper_err(cls, k=None, alpha=None):
        return cls(name="taper_err", k=k, alpha=alpha)

    @classmethod
    def sin_angle_sparse(cls, s):
        return cls(name="sin_angle_sparse", s=s)

    @classmethod
    def proj_dist(cls, k):
        return cls(name="proj_dist", k=k)

    @classmethod
    def support_recovery(cls, s):
        return cls(name="support_recovery", s=s)

    @classmethod
    def hoeffding_report(cls):
        return cls(name="hoeffding_report")


def _check_grid(name, grid, low):
    grid = tuple(_integer("%s entries" % name, value, low) for value in grid)
    if not grid or len(set(grid)) != len(grid):
        raise ValueError("%s must be nonempty with distinct entries" % name)
    return grid


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment; validated on construction.

    The model supplies the family and its parameters; its dim field is a
    placeholder that each cell replaces by its own d, so one config can
    sweep dimensions.  transforms is a tag template cycled across columns
    (empty means identity everywhere).  Estimators are stored in the
    canonical order tau, rho, oracle and cells enumerate as the cross
    product of n_grid by d_grid in the given order.
    """

    model: SigmaModel
    estimators: tuple
    n_grid: tuple
    d_grid: tuple
    functionals: tuple
    reps: int
    seed: int
    transforms: tuple = ()

    def __post_init__(self):
        if not isinstance(self.model, SigmaModel):
            raise ValueError("model must be a SigmaModel")
        given = tuple(self.estimators)
        unknown = set(given) - set(_ESTIMATORS)
        if unknown:
            raise ValueError(
                "unknown estimators %s; choose from %s"
                % (sorted(unknown), ", ".join(_ESTIMATORS))
            )
        if not given or len(set(given)) != len(given):
            raise ValueError("estimators must be nonempty and distinct")
        object.__setattr__(
            self, "estimators", tuple(e for e in _ESTIMATORS if e in given)
        )
        object.__setattr__(self, "n_grid", _check_grid("n_grid", self.n_grid, 2))
        object.__setattr__(self, "d_grid", _check_grid("d_grid", self.d_grid, 1))
        object.__setattr__(self, "reps", _integer("reps", self.reps, 1))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0, 2**64))
        tags = tuple(self.transforms)
        if tags:
            tags = TransformSet(tags).tags
        object.__setattr__(self, "transforms", tags)

        functionals = tuple(self.functionals)
        if not functionals:
            raise ValueError("functionals must not be empty")
        for f in functionals:
            if not isinstance(f, Functional):
                raise ValueError("functionals must be Functional instances")
        labels = [f.label for f in functionals]
        if len(set(labels)) != len(labels):
            raise ValueError("functional labels must be distinct")
        object.__setattr__(self, "functionals", functionals)

        d_min, d_max = min(self.d_grid), max(self.d_grid)
        if d_max > _DIM_GUARD:
            raise GuardExceededError(
                "d=%d exceeds the dimension guard %d" % (d_max, _DIM_GUARD)
            )
        for f in functionals:
            if f.s is not None:
                if f.s > d_min:
                    raise ValueError(
                        "%s needs s <= every d in d_grid (s=%d, min d=%d)"
                        % (f.label, f.s, d_min)
                    )
                _sparse_subsets(d_max, f.s)
            elif f.name == "proj_dist" and f.k >= d_min:
                raise ValueError(
                    "proj_dist needs k < every d in d_grid (k=%d, min d=%d)"
                    % (f.k, d_min)
                )
            elif f.name == "hoeffding_report" and self.estimators != ("tau",):
                raise ValueError(
                    "hoeffding_report is estimator-independent; "
                    "run it with estimators=('tau',)"
                )
        # every cell dimension must realize a valid model before any sampling
        for d in self.d_grid:
            replace(self.model, dim=d)

    @property
    def cells(self):
        return tuple((n, d) for n in self.n_grid for d in self.d_grid)


@dataclass(frozen=True)
class Record:
    """One functional value: cell, estimator, functional label, replicate."""

    n: int
    d: int
    estimator: str
    functional: str
    replicate: int
    value: float

    def __post_init__(self):
        value = float(self.value)
        if not math.isfinite(value):
            raise ValueError("record value must be finite")
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class Failure:
    """A replicate slot that produced no value, with the reason."""

    n: int
    d: int
    estimator: str
    functional: str
    replicate: int
    reason: str


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate of one (cell, estimator, functional) group."""

    n: int
    d: int
    estimator: str
    functional: str
    count: int
    mean: float
    sd: float
    q05: float
    q50: float
    q95: float


def _summarize(records):
    groups = {}
    for r in records:
        groups.setdefault((r.n, r.d, r.estimator, r.functional), []).append(r.value)
    rows = []
    for (n, d, est, func), values in groups.items():
        arr = np.asarray(values)
        q05, q50, q95 = (float(q) for q in np.quantile(arr, [0.05, 0.5, 0.95]))
        rows.append(
            SummaryRow(
                n=n,
                d=d,
                estimator=est,
                functional=func,
                count=int(arr.size),
                mean=float(arr.mean()),
                sd=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                q05=q05,
                q50=q50,
                q95=q95,
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class ExperimentResult:
    """Records plus per-group summaries; failures keep their reasons.

    Records arrive in deterministic task order (cells in grid order,
    replicates within a cell), so identical configs give bit-identical
    results no matter how many threads ran the experiment.  When a config
    is attached and nothing failed, the record count must equal
    cells x reps x estimators x functionals.
    """

    records: tuple
    failures: tuple = ()
    config: ExperimentConfig = None
    summary: tuple = field(init=False)

    def __post_init__(self):
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "failures", tuple(self.failures))
        if self.config is not None and not self.failures:
            expected = (
                len(self.config.cells)
                * self.config.reps
                * len(self.config.estimators)
                * len(self.config.functionals)
            )
            if len(records) != expected:
                raise ValueError(
                    "expected %d records for the configured grid, got %d"
                    % (expected, len(records))
                )
        object.__setattr__(self, "summary", _summarize(records))


def replicate_seed(seed, cell_idx, rep):
    """Derived 64-bit seed of one replicate; any cell is independently
    reproducible without running the rest of the grid."""
    ss = np.random.SeedSequence(seed, spawn_key=(cell_idx, rep))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class _Context:
    """Per-dimension population objects shared by all cells at that d."""

    sigma: object
    transforms: TransformSet
    pop_sparse: dict


def _build_context(cfg, d):
    sigma = realize_sigma(replace(cfg.model, dim=d))
    pop_sparse = {}
    for f in cfg.functionals:
        if f.name in ("sin_angle_sparse", "support_recovery") and f.s not in pop_sparse:
            pop_sparse[f.s] = sparse_pca(sigma, f.s)
        elif f.name == "proj_dist":
            _top_eigenvectors(
                sigma.base, f.k, 1e-8,
                lambda gap: "population eigengap %g after position %d at d=%d is "
                "too small for proj_dist" % (gap, f.k, d),
            )
    return _Context(
        sigma=sigma,
        transforms=TransformSet.cycled(cfg.transforms, d),
        pop_sparse=pop_sparse,
    )


def _estimate(name, y):
    if name == "tau":
        return sigma_hat_tau(kendall_tau_matrix(y))
    if name == "rho":
        return sigma_hat_rho(spearman_rho_matrix(y))
    return oracle_sample_corr(y)


def _evaluate(f, est, x, ctx, n, d, sparse):
    """Value of functional f for estimate est.  sparse caches sparse_pca(est, s)
    by s and is filled only on success, so a failing enumeration fails each
    functional that needs it with that functional's own reason."""
    sigma = ctx.sigma
    if f.name == "taper_err":
        k = f.k if f.k is not None else optimal_bandwidth(n, d, f.alpha)
        est = taper_estimate(est, TaperSpec(k))
    if f.name in ("spec_err", "taper_err"):
        return spectral_norm(SymMatrix(est.entries - sigma.entries))
    if f.name == "max_err":
        return norm_max(SymMatrix(est.entries - sigma.entries))
    if f.name == "sparse_spec_err":
        value, _ = sparse_spectral_norm(SymMatrix(est.entries - sigma.entries), f.s)
        return value
    if f.name in ("sin_angle_sparse", "support_recovery"):
        hat = sparse.get(f.s)
        if hat is None:
            hat = sparse[f.s] = sparse_pca(est, f.s)
        pop = ctx.pop_sparse[f.s]
        if f.name == "sin_angle_sparse":
            return sin_angle(hat.leading_vector, pop.leading_vector)
        return float(hat.support == pop.support)
    if f.name == "proj_dist":
        return pca_projections_compare(sigma, est, f.k)
    return hoeffding_report(x, sigma).residual_frobenius ** 2


def _run_one(cfg, ctx, cell_idx, n, d, rep):
    """All records and failures of one replicate, in estimator order."""
    records, failures = [], []

    def fail_all(ests, reason):
        failures.extend(
            Failure(n, d, e, f.label, rep, reason) for e in ests for f in cfg.functionals
        )

    seed = replicate_seed(cfg.seed, cell_idx, rep)
    try:
        x = sample_latent(ctx.sigma, n, seed)
        y = apply_transforms(x, ctx.transforms)
    except (RankspecError, ValueError) as exc:
        fail_all(cfg.estimators, "sampling: %s" % exc)
        return records, failures
    for est in cfg.estimators:
        try:
            matrix = _estimate(est, y)
        except (RankspecError, ValueError) as exc:
            fail_all((est,), "estimator %s: %s" % (est, exc))
            continue
        sparse = {}
        for f in cfg.functionals:
            try:
                value = _evaluate(f, matrix, x, ctx, n, d, sparse)
            except (RankspecError, ValueError) as exc:
                failures.append(
                    Failure(n, d, est, f.label, rep, "functional %s: %s" % (f.label, exc))
                )
            else:
                records.append(Record(n, d, est, f.label, rep, value))
    return records, failures


def run_experiment(cfg, threads=1):
    """Run every (cell, replicate) task and collect records in task order.

    Configuration problems (including population realizations that are
    invalid at some d on the grid) abort before any sampling; failures
    inside a replicate are recorded with a reason and the run continues.
    The rank estimators see the transformed data, and so does the oracle:
    it is the second-moment matrix of whatever sample the other estimators
    received, which makes its records sensitive to non-identity transforms
    while tau and rho are not.  With identity transforms the oracle sees
    the latent Gaussian sample itself.

    threads > 1 distributes tasks over a thread pool; the assembled result
    is bit-identical to the single-threaded run.
    """
    if not isinstance(cfg, ExperimentConfig):
        raise ValueError("cfg must be an ExperimentConfig")
    threads = _integer("threads", threads, 1)
    contexts = {d: _build_context(cfg, d) for d in cfg.d_grid}
    tasks = [
        (cell_idx, n, d, rep)
        for cell_idx, (n, d) in enumerate(cfg.cells)
        for rep in range(cfg.reps)
    ]

    def work(task):
        cell_idx, n, d, rep = task
        return _run_one(cfg, contexts[d], cell_idx, n, d, rep)

    if threads == 1:
        chunks = [work(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(work, tasks))
    records, failures = [], []
    for recs, fails in chunks:
        records.extend(recs)
        failures.extend(fails)
    return ExperimentResult(records=tuple(records), failures=tuple(failures), config=cfg)


def _select(result, functional, estimator):
    recs = [r for r in result.records if r.functional == functional]
    if not recs:
        raise ValueError("no records for functional %r" % functional)
    names = sorted(set(r.estimator for r in recs))
    if estimator is None:
        if len(names) > 1:
            raise ValueError(
                "functional %r was recorded for estimators %s; pass estimator="
                % (functional, ", ".join(names))
            )
        return recs
    recs = [r for r in recs if r.estimator == estimator]
    if not recs:
        raise ValueError(
            "no records for estimator %r (have %s)" % (estimator, ", ".join(names))
        )
    return recs


def _series(recs, vary, power, stat):
    """Aggregate value**power per varied grid point; the other axis must be
    a single value so the series is a genuine one-parameter sweep."""
    other = "d" if vary == "n" else "n"
    others = set(getattr(r, other) for r in recs)
    if len(others) > 1:
        raise ValueError(
            "records span %s in %s; fix that axis before varying %s"
            % (sorted(others), other, vary)
        )
    groups = {}
    for r in recs:
        groups.setdefault(getattr(r, vary), []).append(r.value)
    keys = sorted(groups)
    agg = np.mean if stat == "mean" else np.median
    ys = np.array([float(agg(np.power(groups[k], power))) for k in keys])
    return np.array(keys, dtype=float), ys


def _check_series_args(vary, stat, power):
    if vary not in ("n", "d"):
        raise ValueError("vary must be 'n' or 'd'")
    if stat not in ("mean", "median"):
        raise ValueError("stat must be 'mean' or 'median'")
    if not power > 0:
        raise ValueError("power must be positive")


def rate_fit(result, functional, vary="n", estimator=None, power=1.0, stat="mean"):
    """Least-squares slope of log(aggregated functional) vs log(n or d).

    Aggregation is the mean (or median) of value**power per grid point, so
    power=2 fits the squared-error rate.  Returns (slope, stderr) with the
    usual regression standard error; needs at least 3 points on the varied
    axis and strictly positive aggregates.  When the result holds several
    estimators for the functional, estimator= must disambiguate.
    """
    _check_series_args(vary, stat, power)
    recs = _select(result, functional, estimator)
    xs, ys = _series(recs, vary, power, stat)
    if xs.size < 3:
        raise ValueError(
            "rate fit needs at least 3 %s values, got %d" % (vary, xs.size)
        )
    if (ys <= 0).any():
        raise ValueError("aggregated values must be positive for a log-log fit")
    lx, ly = np.log(xs), np.log(ys)
    dx = lx - lx.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ (ly - ly.mean())) / sxx
    resid = ly - ly.mean() - slope * dx
    stderr = math.sqrt(float(resid @ resid) / (xs.size - 2) / sxx)
    return slope, stderr


def trend_inversions(result, functional, vary="n", stat="mean"):
    """Number of adjacent grid steps at which the error strictly increases.

    The aggregated series is ordered by the varied parameter and should
    decrease.  Rate checks allow a single Monte Carlo inversion over the
    grid.  The result must hold one estimator for the functional.
    """
    _check_series_args(vary, stat, 1.0)
    recs = _select(result, functional, None)
    _, ys = _series(recs, vary, 1.0, stat)
    if ys.size < 2:
        raise ValueError("trend check needs at least 2 %s values" % vary)
    return int((np.diff(ys) > 0).sum())


def bound_ratio(result, functional, bound, model, estimator=None):
    """Worst observed-to-theoretical error ratio over the grid cells.

    bound selects the comparator:

    - thm1 with functional spec_err.  For the rank estimators the
      numerator is the per-cell mean and the denominator is the
      constant-free shape ||Sigma||_S (sqrt(d/n) + d/n), so the ratio
      estimates the unspecified leading constant.  For the oracle
      estimator the denominator is the fully explicit root-mean-square
      bound ||Sigma||_S (2 sqrt(2) sqrt(d/n) + sqrt(2) d/n +
      6 (d/n^3)^(1/4)) and the numerator is the per-cell rms, so values
      at or below 1 are expected.
    - thm2 with a sparse_spec_err functional (s is read off the label).
      Numerator is the per-cell quantile at level 1 - e^(-t), denominator
      the constant-free shape sqrt(x) + x with x = (t + s log(ed/s)) / n,
      at t = log 20, which puts the quantile at 0.95.

    model is the population family; thm1 realizes it at each cell's d.
    Cells whose numerator is zero contribute ratio 0.
    """
    if bound not in ("thm1", "thm2"):
        raise ValueError("bound must be one of thm1, thm2")
    if bound == "thm2":
        prefix = "sparse_spec_err_s"
        if not functional.startswith(prefix):
            raise ValueError("bound thm2 compares a sparse_spec_err functional")
        s = int(functional[len(prefix):])
    elif functional != "spec_err":
        raise ValueError("bound thm1 compares the spec_err functional")

    recs = _select(result, functional, estimator)
    est = recs[0].estimator
    cells = {}
    for r in recs:
        cells.setdefault((r.n, r.d), []).append(r.value)

    worst = 0.0
    for (n, d), values in sorted(cells.items()):
        arr = np.asarray(values)
        if bound == "thm1":
            norm = spectral_norm(realize_sigma(replace(model, dim=d)).base)
            if est == "oracle":
                num = float(np.sqrt(np.mean(arr * arr)))
                rhs = norm * (
                    2.0 * math.sqrt(2.0 * d / n)
                    + math.sqrt(2.0) * d / n
                    + 6.0 * (d / n**3) ** 0.25
                )
            else:
                num = float(arr.mean())
                rhs = norm * (math.sqrt(d / n) + d / n)
        else:
            t = math.log(20.0)
            num = float(np.quantile(arr, 1.0 - math.exp(-t)))
            x = (t + s * math.log(math.e * d / s)) / n
            rhs = math.sqrt(x) + x
        if num > 0.0:
            worst = max(worst, num / rhs)
    return worst


_RECORD_HEADER = ("n", "d", "estimator", "functional", "replicate", "value")
_SUMMARY_HEADER = (
    "n", "d", "estimator", "functional", "count", "mean", "sd", "q05", "q50", "q95",
)


def _write_csv(path, rows):
    """Write rows to path as CSV.  Floats, numpy float64 included, are
    written at 17 significant digits, which read back bit for bit."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for row in rows:
            writer.writerow(["%.17g" % v if isinstance(v, float) else v for v in row])


def write_records_csv(result, path):
    """Per-replicate records with 17-significant-digit values."""
    rows = [
        (r.n, r.d, r.estimator, r.functional, r.replicate, r.value)
        for r in result.records
    ]
    _write_csv(path, [_RECORD_HEADER, *rows])


def write_summary_csv(result, path):
    """Per-group aggregates next to the records file."""
    rows = [
        (r.n, r.d, r.estimator, r.functional, r.count, r.mean, r.sd, r.q05, r.q50, r.q95)
        for r in result.summary
    ]
    _write_csv(path, [_SUMMARY_HEADER, *rows])


def read_csv_rows(path):
    """Yield (line number, fields) for each data row of a CSV file.

    The line number is the physical line the row starts on, as an editor
    counts it, also after a quoted field that spans lines.  Rows whose
    fields are all blank are skipped, and so is one header: the first
    non-blank row, when its first field is not a number.  Raises InputError
    once the file is exhausted if it held no data row, and for a row csv
    cannot read, such as one with a field over csv's size limit.
    """
    first, found = True, False
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        start = 1
        try:
            for fields in reader:
                # line_num is the last line this row read; the next starts after it
                lineno, start = start, reader.line_num + 1
                if not any(field.strip() for field in fields):
                    continue
                if first:
                    first = False
                    try:
                        float(fields[0])
                    except ValueError:
                        continue
                found = True
                yield lineno, fields
        except csv.Error as exc:
            raise InputError("%s line %d: %s" % (path, start, exc)) from exc
    if not found:
        raise InputError("no data rows in %s" % path)


def _read_matrix_csv(path):
    """Numeric n x d array, equal bit for bit to _read_matrix_rows(path).

    np.loadtxt parses the file from the first data row that read_csv_rows
    finds.  It accepts less than the row reader does, so a file it rejects,
    or with a line that could hold a field over csv's size limit (np.loadtxt
    has none), is read again by _read_matrix_rows, which defines the format
    and its error messages.
    """
    def short_lines(handle):
        limit = csv.field_size_limit()
        for line in handle:
            if len(line) > limit:
                raise ValueError("line longer than the csv field size limit")
            yield line

    try:
        lineno, _ = next(read_csv_rows(path))
        with open(path, newline="") as handle:
            values = np.loadtxt(
                short_lines(handle), delimiter=",", comments=None, ndmin=2,
                skiprows=lineno - 1,
            )
    except ValueError:
        return _read_matrix_rows(path)
    return values if values.size else _read_matrix_rows(path)


def _read_matrix_rows(path):
    """Numeric n x d array from the rows of read_csv_rows, parsed one row at
    a time into a flat float buffer."""
    values = array("d")
    width = None
    for lineno, fields in read_csv_rows(path):
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise InputError(
                "%s line %d: expected %d fields, found %d"
                % (path, lineno, width, len(fields))
            )
        try:
            values.extend(map(float, fields))
        except ValueError as exc:
            raise InputError("%s line %d: %s" % (path, lineno, exc)) from exc
    return np.frombuffer(values, dtype=float).reshape(-1, width)


def load_records(path):
    """Read a records CSV back into an ExperimentResult without a config.

    Rows come from read_csv_rows; malformed rows raise InputError with the
    line number.
    """
    records = []
    for lineno, row in read_csv_rows(path):
        if len(row) != len(_RECORD_HEADER):
            raise InputError(
                "%s line %d: expected %d fields, got %d"
                % (path, lineno, len(_RECORD_HEADER), len(row))
            )
        try:
            records.append(
                Record(
                    n=int(row[0]),
                    d=int(row[1]),
                    estimator=row[2],
                    functional=row[3],
                    replicate=int(row[4]),
                    value=float(row[5]),
                )
            )
        except ValueError as exc:
            raise InputError("%s line %d: %s" % (path, lineno, exc)) from exc
    return ExperimentResult(records=tuple(records))
