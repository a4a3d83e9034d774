"""The benchmark's three workloads, each a fixed round of rankspec calls.

A workload drives rankspec only through its public entry points,
``rankspec.cli.main`` with the argv a user would type and
``rankspec.harness.run_experiment``.  One round is a fixed amount of work
made from the seed; every round repeats the same operations and must write
the same bytes.

Each workload class gives:

- ``ops``: operations per round (replicate tasks, or ``estimate`` runs);
- ``prepare()``: writes the round's inputs;
- ``run_round()``: the timed work, returning what ``failed`` needs;
- ``failed(result)``: operations of that round that failed;
- ``outputs()``: the files a round writes;
- ``expected_calls()``: per-round call counts for the traced run, as
  {span name: (low, high)};
- ``check()``: problems found by the independent checks.
"""

import contextlib
import io
import os

import numpy as np

from rankspec import cli, harness
from rankspec.copula import SigmaModel, realize_sigma, sample_latent
from rankspec.harness import ExperimentConfig, Functional, replicate_seed

import bench_checks


def call_cli(argv):
    """rankspec.cli.main(argv) with its stdout and stderr kept off the
    benchmark's own output; returns the exit status."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _exact(count):
    return (count, count)


def _incomplete_tasks(records, per_task, tasks):
    """Tasks (cell, replicate) with fewer records than they should have."""
    seen = {}
    for r in records:
        key = (r["n"], r["replicate"])
        seen[key] = seen.get(key, 0) + 1
    return tasks - sum(1 for count in seen.values() if count == per_task)


class TaperMC:
    """`rankspec taper-study --preset thm3` at one thread, grid cut down.

    The preset is bandable(alpha=1, c=0.3) at d=64 with the tau estimator
    and six taper functionals: the selected bandwidth and k = 2..32.
    """

    name = "taper_mc"
    alpha, c, d, ks = 1.0, 0.3, 64, (2, 4, 8, 16, 32)
    functionals = 6

    def __init__(self, seed, workdir, n_grid=(300, 600, 1200), reps=2):
        self.seed, self.n_grid, self.reps = seed, tuple(n_grid), reps
        self.out = os.path.join(workdir, "taper")
        self.ops = len(self.n_grid) * reps
        self.argv = [
            "taper-study", "--preset", "thm3", "--seed", str(seed),
            "--n-grid", ",".join(str(n) for n in self.n_grid),
            "--reps", str(reps), "--threads", "1", "--out-dir", self.out,
        ]

    def prepare(self):
        pass

    def run_round(self):
        return call_cli(self.argv)

    def records_path(self):
        return os.path.join(self.out, "records.csv")

    def failed(self, code):
        if code != 0:
            return self.ops
        records = bench_checks.read_records(self.records_path())
        return _incomplete_tasks(records, self.functionals, self.ops)

    def outputs(self):
        return [os.path.join(self.out, f) for f in ("records.csv", "summary.csv", "study.csv")]

    def expected_calls(self):
        t = self.ops
        return {
            "cli.main": _exact(1),
            "harness.run_experiment": _exact(1),
            "copula.sample_latent": _exact(t),
            "copula.apply_transforms": _exact(t),
            "rankest.kendall_tau_matrix": _exact(t),
            "rankest.sigma_hat_tau": _exact(t),
            "rankest.spearman_rho_matrix": _exact(0),
            "regularize.taper_estimate": _exact(self.functionals * t),
            "linalg.sparse_spectral_norm": _exact(0),
            "harness.write_records_csv": _exact(1),
            "harness.write_summary_csv": _exact(1),
        }

    def check(self):
        records = bench_checks.read_records(self.records_path())
        problems = bench_checks.check_record_count(records, self.ops * self.functionals)
        sigma = realize_sigma(SigmaModel.bandable(self.alpha, self.c, self.d))
        for cell, n in enumerate(self.n_grid):
            rep = (self.seed + cell) % self.reps
            x = sample_latent(sigma, n, replicate_seed(self.seed, cell, rep)).entries
            problems += bench_checks.check_taper_replicate(
                records, n, rep, x, self.alpha, self.c, self.ks
            )
        return problems


class SparseMC:
    """run_experiment on a spiked model: rho and oracle, sparse functionals.

    Small n makes each replicate task short (tens of ms), so the harness's
    own per-task work shows.  No Kendall statistic is computed.  It runs at
    one thread: on a shared two-core host, losing one core for a whole run
    made the two-thread wall time swing by half.
    """

    name = "sparse_mc"
    lam, s, threads = 2.0, 3, 1

    def __init__(self, seed, workdir, n_grid=(200, 400, 800, 1600), reps=10, d=30):
        self.seed = seed
        self.out = os.path.join(workdir, "sparse")
        self.config = ExperimentConfig(
            model=SigmaModel.spiked(self.lam, self.s, d),
            estimators=("rho", "oracle"),
            n_grid=tuple(n_grid),
            d_grid=(d,),
            functionals=(
                Functional.spec_err(),
                Functional.max_err(),
                Functional.sparse_spec_err(self.s),
                Functional.sin_angle_sparse(self.s),
                Functional.support_recovery(self.s),
                Functional.proj_dist(1),
            ),
            reps=reps,
            seed=seed,
        )
        self.ops = len(self.config.cells) * reps

    def prepare(self):
        os.makedirs(self.out, exist_ok=True)

    def run_round(self):
        result = harness.run_experiment(self.config, threads=self.threads)
        harness.write_records_csv(result, os.path.join(self.out, "records.csv"))
        harness.write_summary_csv(result, os.path.join(self.out, "summary.csv"))
        return result

    def failed(self, result):
        return len(set((f.n, f.replicate) for f in result.failures))

    def outputs(self):
        return [os.path.join(self.out, f) for f in ("records.csv", "summary.csv")]

    def expected_calls(self):
        t, e = self.ops, len(self.config.estimators)
        return {
            "harness.run_experiment": _exact(1),
            "copula.sample_latent": _exact(t),
            "copula.apply_transforms": _exact(t),
            "rankest.kendall_tau_matrix": _exact(0),
            "rankest.spearman_rho_matrix": _exact(t),
            "rankest.sigma_hat_rho": _exact(t),
            "rankest.oracle_sample_corr": _exact(t),
            # one enumeration for the population direction, then per
            # (task, estimator) one for sparse_spec_err and one or two for
            # the sparse direction, which two functionals both need
            "linalg.sparse_spectral_norm": (1 + 2 * t * e, 1 + 3 * t * e),
            "regularize.sparse_pca": (1 + t * e, 1 + 2 * t * e),
            "regularize.pca_projections_compare": _exact(t * e),
            "harness.write_records_csv": _exact(1),
            "harness.write_summary_csv": _exact(1),
        }

    def check(self):
        cfg = self.config
        records = bench_checks.read_records(os.path.join(self.out, "records.csv"))
        expected = self.ops * len(cfg.estimators) * len(cfg.functionals)
        problems = bench_checks.check_record_count(records, expected)
        problems += bench_checks.check_sparse_bounds(records, self.s)
        d = cfg.d_grid[0]
        sigma = realize_sigma(SigmaModel.spiked(self.lam, self.s, d))
        for cell, (n, _) in enumerate(cfg.cells):
            rep = (self.seed + cell) % cfg.reps
            x = sample_latent(sigma, n, replicate_seed(self.seed, cell, rep)).entries
            problems += bench_checks.check_sparse_replicate(records, n, rep, x, self.lam, self.s)
        return problems


_TRANSFORMS = (
    lambda z: z**3,
    np.exp,
    lambda z: z / (1.0 + np.abs(z)),
)


_AR1_R = 0.5
_BLOCK = 5000  # rows per generated or written block; bounds generation memory


def copula_sample(seed, index, n, d, keep_latent=False):
    """Transformed AR(1)-correlated Gaussian rows, made block by block.

    Columns cycle through cube, exp and softsign.  A draw whose transformed
    columns hold a tied value (rounding can merge neighbours) is replaced
    by the next draw, so the program never sees ties.  Returns
    (latent or None, observed) as (n, d) arrays; the latent copy is kept
    only on request, so that writing the inputs stays small in memory.
    """
    gap = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    root = np.linalg.cholesky(_AR1_R ** gap.astype(float))
    for attempt in range(8):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index, attempt)))
        )
        latent = np.empty((n, d)) if keep_latent else None
        observed = np.empty((n, d))
        for start in range(0, n, _BLOCK):
            z = rng.standard_normal((min(_BLOCK, n - start), d)) @ root.T
            if keep_latent:
                latent[start:start + len(z)] = z
            for j in range(d):
                observed[start:start + len(z), j] = _TRANSFORMS[j % len(_TRANSFORMS)](z[:, j])
        if not any((np.diff(np.sort(observed[:, j])) == 0).any() for j in range(d)):
            return latent, observed
    raise RuntimeError("no tie-free draw for seed %d, index %d" % (seed, index))


def write_csv(path, values):
    """Rows of values at 17 significant digits, which round-trip exactly."""
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    with open(path, "w") as handle:
        for start in range(0, values.shape[0], _BLOCK):
            handle.write("".join(row % tuple(v) for v in values[start:start + _BLOCK]))


class EstimateCSV:
    """`rankspec estimate --method rho --taper-k 8 --sparse-pca-s 3` on tall
    synthetic CSVs; CSV parsing dominates, and neither Kendall nor the
    harness runs."""

    name = "estimate_csv"
    k, s = 8, 3

    def __init__(self, seed, workdir, files=2, n=50000, d=40):
        self.seed, self.n, self.d = seed, n, d
        self.dir = os.path.join(workdir, "estimate")
        self.ops = files
        self.inputs = [os.path.join(self.dir, "sample%d.csv" % i) for i in range(files)]

    def paths(self, i):
        stem = os.path.join(self.dir, "est%d" % i)
        return {
            "estimate": stem + ".csv",
            "taper": stem + ".taper.csv",
            "sparse": stem + ".sparse_pca.csv",
        }

    def prepare(self):
        os.makedirs(self.dir, exist_ok=True)
        for i, path in enumerate(self.inputs):
            _, observed = copula_sample(self.seed, i, self.n, self.d)
            write_csv(path, observed)
            del observed

    def run_round(self):
        codes = []
        for i, path in enumerate(self.inputs):
            argv = [
                "estimate", "--input", path, "--method", "rho",
                "--output", self.paths(i)["estimate"],
                "--taper-k", str(self.k), "--sparse-pca-s", str(self.s),
            ]
            codes.append(call_cli(argv))
        return codes

    def failed(self, codes):
        return sum(1 for code in codes if code != 0)

    def outputs(self):
        return [p for i in range(self.ops) for p in self.paths(i).values()]

    def expected_calls(self):
        i = self.ops
        return {
            "cli.main": _exact(i),
            "harness.run_experiment": _exact(0),
            "copula.sample_latent": _exact(0),
            "rankest.kendall_tau_matrix": _exact(0),
            "rankest.spearman_rho_matrix": _exact(i),
            "rankest.sigma_hat_rho": _exact(i),
            "regularize.taper_estimate": _exact(i),
            "regularize.sparse_pca": _exact(i),
            "linalg.sparse_spectral_norm": _exact(i),
        }

    def check(self):
        problems = []
        for i in range(self.ops):
            latent, _ = copula_sample(self.seed, i, self.n, self.d, keep_latent=True)
            found = bench_checks.check_estimate(self.paths(i), latent, self.k, self.s)
            problems += ["file %d: %s" % (i, p) for p in found]
        return problems


WORKLOADS = {w.name: w for w in (TaperMC, SparseMC, EstimateCSV)}


def warm_up():
    """One small run through sampling, both rank estimators and the sparse
    and taper functionals, so first-call costs fall in set-up."""
    config = ExperimentConfig(
        model=SigmaModel.ar1(0.5, 6),
        estimators=("tau", "rho", "oracle"),
        n_grid=(40,),
        d_grid=(6,),
        functionals=(
            Functional.spec_err(),
            Functional.sparse_spec_err(2),
            Functional.taper_err(k=2),
        ),
        reps=1,
        seed=0,
    )
    result = harness.run_experiment(config)
    if result.failures:
        raise RuntimeError("warm-up run failed: %s" % (result.failures,))
