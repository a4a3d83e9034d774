"""Pilot calibration behind the frozen golden numbers in GOLDENS.

Not collected by pytest.  Regenerate with

    python3 tests/pilots.py            # every pilot, roughly 15 minutes
    python3 tests/pilots.py thm1 thm5  # a subset

Pilots run on their own seed at three times the acceptance replicate
count where the runtime budget allows (the thm3 grid already costs
minutes, so it runs at the acceptance count).  GOLDENS records each
observed statistic with its Monte Carlo standard error; derived
ceilings and floors carry a tolerance of max(20%, 4 stderr).  Slope
windows are fixed by the rate targets, so pilots only confirm the
fitted slopes land inside them.
"""

import math
import sys
import time

import numpy as np

from rankspec.cli import STUDIES
from rankspec.copula import realize_sigma
from rankspec.harness import ExperimentConfig, run_experiment
from rankspec.linalg import spectral_norm

PILOT_SEED = 424242

# Frozen 2026-08-14 from `python3 tests/pilots.py` at PILOT_SEED.
# Each tuple is (statistic, Monte Carlo standard error).  Ceilings are
# the raw max(20%, 4 stderr) allowance rounded up to two decimals, and
# floors rounded down, so reruns reproduce them; the shipped CLI gate
# table carries the same rounded numbers.
GOLDENS = {
    "thm1": {
        "reps": 300,
        "slope_tau": (-0.5077291668102969, 0.00489803298313296),
        "slope_rho": (-0.5065652530953957, 0.0048132375010568685),
        "slope_oracle": (-0.4984280847244457, 0.002798687761395432),
        "max_ratio_tau": (0.6456701448611489, 0.008229617262830138),
        "max_ratio_rho": (0.6468843724938821, 0.008227990342587059),
        "oracle_ratio": (0.2651034265569407, 0.0037960588984240103),
        "ratio_ceiling_tau": 0.78,
        "ratio_ceiling_rho": 0.78,
    },
    "thm2": {
        "reps": 600,
        "q95_ratio": (1.4924125606500047, 0.019160806075229696),
        "q95_ceiling": 1.80,
    },
    "thm3": {
        "reps": 50,
        "slope_sq": (-0.6277658759562781, 0.01893614641963049),
        "kcurve_n": 2400,
        "kcurve": {
            2: 0.12674799213471488,
            4: 0.03456152912779247,
            8: 0.023495513777783087,
            16: 0.043652872501606786,
            32: 0.0837045173791489,
        },
        "argmin_k": 8,
        "interior": True,
    },
    "thm4": {
        "reps": 300,
        "slope": (-0.5351831267635684, 0.011132297808620545),
    },
    "thm5": {
        "reps": 150,
        "slope_median": (-0.5107540454358047, 0.01327132691801158),
        "median_inversions": 0,
        "recovery_at_nmax": (1.0, 0.006666666666666667),
        "recovery_floor": 0.80,
    },
    "hoeffding": {
        "reps": 600,
        "residual_sq_ratio": (0.7411046451448554, 0.026721910434884272),
    },
}


def _run(preset, reps):
    """Result of the preset's study at PILOT_SEED and its study.csv metrics."""
    study = STUDIES[preset]
    result = run_experiment(study.config(PILOT_SEED, reps=reps))
    assert not result.failures, result.failures[:3]
    return result, dict(study.metrics(result))


def _cell_values(result, n, estimator, functional):
    return np.array(
        [
            r.value for r in result.records
            if r.n == n and r.estimator == estimator and r.functional == functional
        ]
    )


def _max_cell_mean_ratio(result, estimator, model):
    """Worst cell of mean spec_err over the constant-free rate shape."""
    norm = spectral_norm(realize_sigma(model).base)
    best = (-math.inf, 0.0)
    for n, d in result.config.cells:
        arr = _cell_values(result, n, estimator, "spec_err")
        denom = norm * (math.sqrt(d / n) + d / n)
        ratio = float(arr.mean()) / denom
        se = float(arr.std(ddof=1)) / math.sqrt(arr.size) / denom
        if ratio > best[0]:
            best = (ratio, se)
    return best


def _oracle_rms_ratio(result, model):
    """Worst cell of the root mean square error over the explicit bound."""
    norm = spectral_norm(realize_sigma(model).base)
    best = (-math.inf, 0.0)
    for n, d in result.config.cells:
        arr = _cell_values(result, n, "oracle", "spec_err")
        rhs = norm * (
            2.0 * math.sqrt(2.0 * d / n)
            + math.sqrt(2.0) * d / n
            + 6.0 * (d / n**3) ** 0.25
        )
        sq = np.square(arr)
        rms = math.sqrt(float(sq.mean()))
        # delta method: se(rms) = se(mean square) / (2 rms)
        se = float(sq.std(ddof=1)) / math.sqrt(sq.size) / (2.0 * rms)
        ratio = rms / rhs
        if ratio > best[0]:
            best = (ratio, se / rhs)
    return best


def _bootstrap_q95_se(values, denom, draws=500):
    rng = np.random.default_rng(0)
    stats = [
        np.quantile(rng.choice(values, size=values.size, replace=True), 0.95)
        for _ in range(draws)
    ]
    return float(np.std(stats, ddof=1)) / denom


def _ceiling(value, se):
    return max(1.2 * value, value + 4.0 * se)


def thm1(reps=300):
    result, metrics = _run("thm1", reps)
    out = {"reps": reps}
    for estimator in ("tau", "rho", "oracle"):
        out["slope_%s" % estimator] = (
            metrics["slope_%s" % estimator],
            metrics["slope_stderr_%s" % estimator],
        )
    model = result.config.model
    for estimator in ("tau", "rho"):
        ratio, se = _max_cell_mean_ratio(result, estimator, model)
        out["max_ratio_%s" % estimator] = (ratio, se)
        out["ratio_ceiling_%s" % estimator] = _ceiling(ratio, se)
    out["oracle_ratio"] = _oracle_rms_ratio(result, model)
    return out


def thm2(reps=600):
    result, metrics = _run("thm2", reps)
    cfg = result.config
    label = cfg.functionals[0].label
    t = math.log(20.0)
    s = cfg.functionals[0].s
    best = (-math.inf, 0.0)
    for n, d in cfg.cells:
        arr = _cell_values(result, n, "tau", label)
        x = (t + s * math.log(math.e * d / s)) / n
        denom = math.sqrt(x) + x
        cell = float(np.quantile(arr, 0.95)) / denom
        if cell > best[0]:
            best = (cell, _bootstrap_q95_se(arr, denom))
    assert abs(best[0] - metrics["ratio_thm2_q95"]) < 1e-12
    return {
        "reps": reps,
        "q95_ratio": best,
        "q95_ceiling": _ceiling(*best),
    }


def thm3(reps=50):
    result, metrics = _run("thm3", reps)
    ks = sorted(
        f.k for f in result.config.functionals
        if f.name == "taper_err" and f.k is not None
    )
    return {
        "reps": reps,
        "slope_sq": (metrics["slope_sq"], metrics["slope_sq_stderr"]),
        "kcurve_n": int(metrics["kcurve_n"]),
        "kcurve": {k: metrics["kcurve_mse_k%d" % k] for k in ks},
        "argmin_k": int(metrics["kcurve_argmin_k"]),
        "interior": metrics["kcurve_interior"] == 1.0,
    }


def thm4(reps=300):
    _, metrics = _run("thm4", reps)
    return {"reps": reps, "slope": (metrics["slope"], metrics["slope_stderr"])}


def thm5(reps=150):
    _, metrics = _run("thm5", reps)
    p = metrics["recovery_at_nmax"]
    se = math.sqrt(max(p * (1.0 - p), 1.0 / reps) / reps)
    return {
        "reps": reps,
        "slope_median": (metrics["slope_median"], metrics["slope_stderr"]),
        "median_inversions": int(metrics["median_inversions"]),
        "recovery_at_nmax": (p, se),
        "recovery_floor": p - max(0.2 * p, 4.0 * se),
    }


def hoeffding(reps=600):
    from rankspec.copula import SigmaModel
    from rankspec.harness import Functional

    n, d = 500, 4
    cfg = ExperimentConfig(
        model=SigmaModel.ar1(0.5, d),
        estimators=("tau",),
        n_grid=(n,),
        d_grid=(d,),
        functionals=(Functional.hoeffding_report(),),
        reps=reps,
        seed=PILOT_SEED,
    )
    result = run_experiment(cfg)
    arr = _cell_values(result, n, "tau", "hoeffding_report")
    bound = 2.0 * d * (d - 1) / (n * (n - 1))
    return {
        "reps": reps,
        "residual_sq_ratio": (
            float(arr.mean()) / bound,
            float(arr.std(ddof=1)) / math.sqrt(arr.size) / bound,
        ),
    }


_PILOTS = {
    "thm1": thm1,
    "thm2": thm2,
    "thm3": thm3,
    "thm4": thm4,
    "thm5": thm5,
    "hoeffding": hoeffding,
}


def main(argv):
    names = argv or sorted(_PILOTS)
    for name in names:
        start = time.time()
        report = _PILOTS[name]()
        print('    "%s": {' % name)
        for key, value in report.items():
            print("        %r: %r," % (key, value))
        print("    },  # %.1fs" % (time.time() - start))
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
