"""Command-line interface: estimation on CSV data and canned rate studies.

Subcommands:
  estimate      rank-based correlation estimates for an n x d CSV sample
  simulate      Monte Carlo error-rate study (presets thm1, thm2)
  taper-study   bandwidth/taper error study (preset thm3)
  pca-study     eigenprojection and sparse-direction study (thm4, thm5)
  kernel-check  grid sweep of the concentration-kernel inequalities
  rate-fit      log-log slope of a recorded functional from a records CSV

Exit codes: 0 success, 1 assertion or inequality failure, 2 input error,
3 resource guard tripped.  All output files are deterministic given the
flags and --seed.  Studies run on --threads threads, else RANKSPEC_THREADS,
else one per core the process may use; the count never changes content.
Every distinct replicate failure reason goes to stderr with its count.
Files are read and written through harness, which owns the CSV format;
estimate checks its flags before it estimates, so a bad flag writes
nothing.
"""

import argparse
import math
import os
import sys
from collections import Counter
from dataclasses import astuple, dataclass, replace

import numpy as np

from .copula import DataMatrix, SigmaModel
from .errors import GuardExceededError, InputError, TieError
from .harness import (
    _DIM_GUARD,
    ExperimentConfig,
    Functional,
    _estimate,
    _read_matrix_csv,
    _write_csv,
    bound_ratio,
    load_records,
    rate_fit,
    run_experiment,
    trend_inversions,
    write_records_csv,
    write_summary_csv,
)
from .kernels import inequality_sweep
from .linalg import _sparse_subsets
from .regularize import TaperSpec, sparse_pca, taper_estimate

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def _or_nan(names, compute):
    """Rows pairing names with compute(), or nan for each name when the
    statistic cannot be formed (compute raises ValueError): the grid is
    too small, or every replicate of the functional failed."""
    try:
        values = compute()
    except ValueError:
        values = (math.nan,) * len(names)
    return list(zip(names, values))


def _mean_at(result, functional, n, power=1.0):
    """Mean of value**power over the records of functional at sample size n;
    ValueError when there are none."""
    values = [r.value for r in result.records if r.n == n and r.functional == functional]
    if not values:
        raise ValueError("no records for %s at n=%d" % (functional, n))
    return float(np.mean(np.power(values, power)))


def _thm1_metrics(result):
    estimators, model = result.config.estimators, result.config.model
    rows = []
    for e in estimators:
        rows += _or_nan(
            ("slope_%s" % e, "slope_stderr_%s" % e),
            lambda e=e: rate_fit(result, "spec_err", vary="n", estimator=e),
        )
    rows.append(("target_slope", -0.5))
    for e in estimators:
        rows += _or_nan(
            ("ratio_thm1_%s" % e,),
            lambda e=e: (bound_ratio(result, "spec_err", "thm1", model, estimator=e),),
        )
    return rows


def _thm2_metrics(result):
    return _or_nan(
        ("ratio_thm2_q95",),
        lambda: (
            bound_ratio(result, "sparse_spec_err_s3", "thm2", result.config.model),
        ),
    )


def _thm3_metrics(result):
    rows = _or_nan(
        ("slope_sq", "slope_sq_stderr"),
        lambda: rate_fit(result, "taper_err_a1", vary="n", power=2.0),
    )
    rows.append(("target_slope", -2.0 / 3.0))
    # squared error against bandwidth at the middle sample size should dip
    # at an interior k: small k is bias-dominated, large k variance-dominated
    ks = sorted(f.k for f in result.config.functionals if f.k is not None)
    grid = sorted(result.config.n_grid)
    curve_n = grid[len(grid) // 2]
    curve = []
    for k in ks:
        curve += _or_nan(
            ("kcurve_mse_k%d" % k,),
            lambda k=k: (_mean_at(result, "taper_err_k%d" % k, curve_n, power=2.0),),
        )
    mse = [value for _, value in curve]
    if any(math.isnan(value) for value in mse):
        argmin_k = interior = math.nan
    else:
        best = int(np.argmin(mse))
        argmin_k, interior = float(ks[best]), float(0 < best < len(ks) - 1)
    rows.append(("kcurve_n", float(curve_n)))
    rows += curve
    rows.append(("kcurve_argmin_k", argmin_k))
    rows.append(("kcurve_interior", interior))
    return rows


def _thm4_metrics(result):
    rows = _or_nan(
        ("slope", "slope_stderr"), lambda: rate_fit(result, "proj_dist_k2", vary="n")
    )
    rows.append(("target_slope", -0.5))
    return rows


def _thm5_metrics(result):
    angle = "sin_angle_sparse_s3"
    rows = _or_nan(
        ("slope_median", "slope_stderr"),
        lambda: rate_fit(result, angle, vary="n", stat="median"),
    )
    rows.append(("target_slope", -0.5))
    rows += _or_nan(
        ("median_inversions",),
        lambda: (float(trend_inversions(result, angle, vary="n", stat="median")),),
    )
    n_max = max(result.config.n_grid)
    rows.append(("nmax", float(n_max)))
    rows += _or_nan(
        ("recovery_at_nmax",),
        lambda: (_mean_at(result, "support_recovery_s3", n_max),),
    )
    return rows


def _failure_reasons(failures):
    """One line per distinct failure reason with its count, in the order
    the reasons first occur (task order)."""
    return [
        "%d replicate failures: %s" % (count, reason)
        for reason, count in Counter(f.reason for f in failures).items()
    ]


@dataclass(frozen=True)
class Study:
    """One preset study: the subcommand that runs it, its experiment at
    seed 0, the ordered (name, value) rows of its study.csv, and its
    --assert gates.

    metrics maps the ExperimentResult of the study's config to the rows.
    Each gate is (metric, low, high) with None for an open side.
    """

    command: str
    experiment: ExperimentConfig
    metrics: object
    gates: tuple

    def config(self, seed, reps=None, n_grid=None):
        base = self.experiment
        return replace(
            base,
            seed=seed,
            reps=base.reps if reps is None else reps,
            n_grid=base.n_grid if n_grid is None else n_grid,
        )

    def gate_failures(self, metrics, failures=()):
        """One message per distinct replicate failure reason, then one per
        missed gate; nan misses every gate, and any replicate failure fails
        the study."""
        messages = _failure_reasons(failures)
        values = dict(metrics)
        for name, low, high in self.gates:
            v = values.get(name, math.nan)
            if low is None:
                if not v <= high:
                    messages.append("%s=%.6g exceeds %g" % (name, v, high))
            elif high is None:
                if not v >= low:
                    messages.append("%s=%.6g below %g" % (name, v, low))
            elif not low <= v <= high:
                messages.append("%s=%.6g outside [%g, %g]" % (name, v, low, high))
        return messages


# Slope windows come from the rate targets (-1/2 for estimation error,
# -2/3 for the squared taper error at alpha=1) widened for Monte Carlo
# noise; the ratio ceilings and the recovery floor are calibrated from
# pilot runs at triple reps (see tests/pilots.py) with max(20%, 4 standard
# errors) of headroom.  The oracle ceiling is the explicit bound itself
# with a 5% Monte Carlo allowance.
STUDIES = {
    "thm1": Study(
        command="simulate",
        experiment=ExperimentConfig(
            model=SigmaModel.ar1(0.5, 10),
            estimators=("tau", "rho", "oracle"),
            n_grid=(250, 500, 1000, 2000, 4000),
            d_grid=(10,),
            functionals=(Functional.spec_err(),),
            reps=100,
            seed=0,
        ),
        metrics=_thm1_metrics,
        gates=(
            ("slope_tau", -0.65, -0.35),
            ("ratio_thm1_tau", None, 0.78),
            ("slope_rho", -0.65, -0.35),
            ("ratio_thm1_rho", None, 0.78),
            ("ratio_thm1_oracle", None, 1.05),
        ),
    ),
    "thm2": Study(
        command="simulate",
        experiment=ExperimentConfig(
            model=SigmaModel.ar1(0.5, 30),
            estimators=("tau",),
            n_grid=(1000, 2000),
            d_grid=(30,),
            functionals=(Functional.sparse_spec_err(3),),
            reps=200,
            seed=0,
        ),
        metrics=_thm2_metrics,
        gates=(("ratio_thm2_q95", None, 1.80),),
    ),
    "thm3": Study(
        command="taper-study",
        experiment=ExperimentConfig(
            model=SigmaModel.bandable(1.0, 0.3, 64),
            estimators=("tau",),
            n_grid=(300, 600, 1200, 2400, 4800, 9600),
            d_grid=(64,),
            functionals=(
                Functional.taper_err(alpha=1.0),
                Functional.taper_err(k=2),
                Functional.taper_err(k=4),
                Functional.taper_err(k=8),
                Functional.taper_err(k=16),
                Functional.taper_err(k=32),
            ),
            reps=50,
            seed=0,
        ),
        metrics=_thm3_metrics,
        gates=(("slope_sq", -0.87, -0.47), ("kcurve_interior", 1.0, 1.0)),
    ),
    "thm4": Study(
        command="pca-study",
        experiment=ExperimentConfig(
            model=SigmaModel.ar1(0.5, 10),
            estimators=("tau",),
            n_grid=(250, 500, 1000, 2000, 4000),
            d_grid=(10,),
            functionals=(Functional.proj_dist(2),),
            reps=100,
            seed=0,
        ),
        metrics=_thm4_metrics,
        gates=(("slope", -0.70, -0.30),),
    ),
    "thm5": Study(
        command="pca-study",
        experiment=ExperimentConfig(
            model=SigmaModel.spiked(2.0, 3, 30),
            estimators=("tau",),
            n_grid=(200, 400, 800, 1600, 3200),
            d_grid=(30,),
            functionals=(
                Functional.sin_angle_sparse(3),
                Functional.support_recovery(3),
            ),
            reps=50,
            seed=0,
        ),
        metrics=_thm5_metrics,
        gates=(
            ("slope_median", -0.70, -0.30),
            ("median_inversions", None, 1.0),
            ("recovery_at_nmax", 0.80, None),
        ),
    ),
}


def _grid_argument(text):
    return tuple(int(piece.strip()) for piece in text.split(","))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rankspec", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate a latent correlation matrix")
    est.add_argument("--input", required=True, help="n x d CSV sample")
    est.add_argument("--method", required=True, choices=("tau", "rho", "both"))
    est.add_argument("--output", required=True, help="output CSV path")
    est.add_argument("--taper-k", type=int, default=None, help="also write a tapered matrix")
    est.add_argument(
        "--sparse-pca-s", type=int, default=None,
        help="also write an s-sparse leading-direction report",
    )
    est.set_defaults(func=_cmd_estimate)

    for name, help_text in (
        ("simulate", "estimation-error rate study"),
        ("taper-study", "taper bandwidth study"),
        ("pca-study", "eigenstructure recovery study"),
    ):
        presets = [key for key, study in STUDIES.items() if study.command == name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--preset", required=True, choices=presets)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--reps", type=int, default=None, help="override preset replicates")
        p.add_argument(
            "--n-grid", type=_grid_argument, default=None,
            help="override preset sample sizes, comma separated",
        )
        p.add_argument("--out-dir", required=True)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument(
            "--assert", action="store_true", dest="assert_gates",
            help="exit 1 unless the study meets its rate and ratio gates",
        )
        p.set_defaults(func=_cmd_study)

    kc = sub.add_parser("kernel-check", help="sweep the kernel inequalities")
    kc.add_argument("--grid-size", type=int, default=51)
    kc.add_argument("--out", required=True)
    kc.set_defaults(func=_cmd_kernel_check)

    rf = sub.add_parser("rate-fit", help="fit a log-log rate from records")
    rf.add_argument("--input", required=True, help="records CSV")
    rf.add_argument("--functional", required=True)
    rf.add_argument("--vary", choices=("n", "d"), default="n")
    rf.add_argument("--estimator", default=None)
    rf.add_argument("--power", type=float, default=1.0)
    rf.add_argument("--stat", choices=("mean", "median"), default="mean")
    rf.set_defaults(func=_cmd_rate_fit)
    return parser


def _resolve_threads(flag):
    """--threads, else RANKSPEC_THREADS, else every core this process may
    run on (os.sched_getaffinity exists only on some platforms)."""
    if flag is None:
        env = os.environ.get("RANKSPEC_THREADS")
        if env is None:
            if hasattr(os, "sched_getaffinity"):
                return len(os.sched_getaffinity(0))
            return os.cpu_count() or 1
        try:
            flag = int(env)
        except ValueError:
            raise InputError("RANKSPEC_THREADS=%r is not an integer" % env)
    if flag < 1:
        raise InputError("threads must be >= 1")
    return flag


def _tagged_path(path, tag):
    stem, suffix = os.path.splitext(path)
    return "%s.%s%s" % (stem, tag, suffix)


def _cmd_estimate(args):
    values = _read_matrix_csv(args.input)
    if values.shape[1] > _DIM_GUARD:
        raise GuardExceededError(
            "d=%d exceeds the dimension guard %d" % (values.shape[1], _DIM_GUARD)
        )
    if values.shape[0] < 2:
        raise InputError(
            "estimation needs at least 2 rows, found %d" % values.shape[0]
        )
    data = DataMatrix(values)
    taper = TaperSpec(args.taper_k) if args.taper_k is not None else None
    if args.sparse_pca_s is not None:
        _sparse_subsets(data.d, args.sparse_pca_s)
    methods = ("tau", "rho") if args.method == "both" else (args.method,)
    try:
        estimates = [(method, _estimate(method, data)) for method in methods]
    except TieError as exc:
        print(
            "error: %s; rank estimation needs strictly ordered columns" % exc,
            file=sys.stderr,
        )
        return EXIT_INPUT

    written = []
    sparse_rows = [("method", "index", "in_support", "vector_entry", "leading_value")]
    for method, estimate in estimates:
        path = args.output if len(methods) == 1 else _tagged_path(args.output, method)
        _write_csv(path, estimate.entries)
        written.append(path)
        if taper is not None:
            taper_path = _tagged_path(path, "taper")
            _write_csv(taper_path, taper_estimate(estimate, taper).entries)
            written.append(taper_path)
        if args.sparse_pca_s is not None:
            picked = sparse_pca(estimate, args.sparse_pca_s)
            sparse_rows += [
                (method, j, int(j in picked.support), picked.leading_vector[j],
                 picked.leading_value)
                for j in range(data.d)
            ]
    if args.sparse_pca_s is not None:
        report_path = _tagged_path(args.output, "sparse_pca")
        _write_csv(report_path, sparse_rows)
        written.append(report_path)
    for path in written:
        print("wrote %s" % path)
    return EXIT_OK


def _cmd_study(args):
    threads = _resolve_threads(args.threads)
    study = STUDIES[args.preset]
    config = study.config(args.seed, args.reps, args.n_grid)
    result = run_experiment(config, threads=threads)
    os.makedirs(args.out_dir, exist_ok=True)
    write_records_csv(result, os.path.join(args.out_dir, "records.csv"))
    write_summary_csv(result, os.path.join(args.out_dir, "summary.csv"))
    metrics = study.metrics(result)
    _write_csv(os.path.join(args.out_dir, "study.csv"), [("metric", "value"), *metrics])
    for name, value in metrics:
        print("%s %.17g" % (name, value))
    for line in _failure_reasons(result.failures):
        print("warning: %s" % line, file=sys.stderr)
    if args.assert_gates:
        failures = study.gate_failures(metrics, result.failures)
        for line in failures:
            print("assert failed: %s" % line, file=sys.stderr)
        if failures:
            return EXIT_ASSERT
    return EXIT_OK


def _cmd_kernel_check(args):
    report = inequality_sweep(grid_size=args.grid_size)
    _write_csv(
        args.out,
        [("inequality", "min_slack", "arg_x", "arg_y", "arg_rho")]
        + [astuple(row) for row in report.rows],
    )
    worst = min(row.min_slack for row in report.rows)
    print("wrote %s" % args.out)
    print("worst slack %.17g over %d inequalities" % (worst, len(report.rows)))
    failing = report.failing()
    for row in failing:
        print(
            "inequality %s fails: min slack %.17g" % (row.inequality, row.min_slack),
            file=sys.stderr,
        )
    return EXIT_ASSERT if failing else EXIT_OK


def _cmd_rate_fit(args):
    result = load_records(args.input)
    slope, stderr = rate_fit(
        result,
        args.functional,
        vary=args.vary,
        estimator=args.estimator,
        power=args.power,
        stat=args.stat,
    )
    print("slope %.17g stderr %.17g" % (slope, stderr))
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except GuardExceededError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_GUARD
    except (InputError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
