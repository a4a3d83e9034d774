"""Correctness checks for the benchmark workloads, made apart from rankspec.

Every check recomputes what the program wrote from definitions: Kendall's
tau and Spearman's rho from ``scipy.stats``, spectral norms from
``numpy.linalg.eigvalsh``, sparse norms and sparse leading directions by a
plain loop over ``itertools.combinations``, population matrices and taper
weights from the paper's formulas.  Nothing here calls rankspec's
estimators, norms or regularizers; the only program code the checks reuse
is the seeded latent sampler, to regenerate a replicate's sample.

Each ``check_*`` function returns a list of problems, empty when the
outputs are right.
"""

import csv
import itertools
import math

import numpy as np

# Recomputations take another rounding path (scipy's tau/rho, unbatched
# eigensolvers), so values agree to rounding, far inside this tolerance.
TOL = 1e-9


def read_records(path):
    """Rows of a records CSV as dicts with typed fields."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        return [
            dict(
                n=int(row["n"]),
                d=int(row["d"]),
                estimator=row["estimator"],
                functional=row["functional"],
                replicate=int(row["replicate"]),
                value=float(row["value"]),
            )
            for row in reader
        ]


def read_matrix(path):
    with open(path, newline="") as handle:
        return np.array([[float(v) for v in row] for row in csv.reader(handle)])


def spectral_norm(m):
    w = np.linalg.eigvalsh(m)
    return float(max(abs(w[0]), abs(w[-1])))


def bandable_sigma(alpha, c, d):
    """Entries c |j-k|^(-alpha-1) off the diagonal, 1 on it."""
    gap = np.abs(np.subtract.outer(np.arange(d), np.arange(d))).astype(float)
    sigma = np.ones((d, d))
    off = gap > 0
    sigma[off] = c * gap[off] ** (-alpha - 1.0)
    return sigma


def spiked_sigma(lam, s, d):
    """I + lam theta theta' with theta uniform on the first s coordinates,
    rescaled back to unit diagonal."""
    theta = np.zeros(d)
    theta[:s] = 1.0 / math.sqrt(s)
    bumped = np.eye(d) + lam * np.outer(theta, theta)
    scale = 1.0 / np.sqrt(np.diag(bumped))
    sigma = bumped * np.outer(scale, scale)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def taper_weights(k, d):
    """1 up to |i-j| = k/2, then linear down to 0 at |i-j| = k."""
    w = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            g = abs(i - j)
            if g <= k / 2.0:
                w[i, j] = 1.0
            elif g < k:
                w[i, j] = 2.0 * (1.0 - g / k)
    return w


def even_bandwidth(n, d, alpha):
    """n^(1/(2 alpha + 1)) capped at d, rounded to an even number >= 2."""
    k = 2 * int(math.floor(min(n ** (1.0 / (2.0 * alpha + 1.0)), d) / 2.0 + 0.5))
    return min(max(k, 2), 2 * (d // 2))


def tau_sine(x):
    """sin(pi/2 tau) from pairwise scipy Kendall statistics."""
    from scipy import stats  # heavy; imported once the timed rounds are over

    d = x.shape[1]
    est = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            tau = stats.kendalltau(x[:, i], x[:, j]).statistic
            est[i, j] = est[j, i] = math.sin(math.pi / 2.0 * tau)
    return est


def rho_sine(x):
    """2 sin(pi/6 rho) from scipy's Spearman matrix."""
    from scipy import stats  # heavy; imported once the timed rounds are over

    est = 2.0 * np.sin(np.pi / 6.0 * stats.spearmanr(x).statistic)
    np.fill_diagonal(est, 1.0)
    return est


def best_sparse(m, s):
    """Brute-force s-sparse leading direction of a symmetric matrix.

    Returns (score, support, value, vector): the largest extreme absolute
    eigenvalue over s x s principal submatrices, the first support in
    lexicographic order attaining it, the signed eigenvalue, and the unit
    eigenvector on the full index set with its largest entry positive.
    """
    best = (-1.0, None)
    for support in itertools.combinations(range(m.shape[0]), s):
        w = np.linalg.eigvalsh(m[np.ix_(support, support)])
        score = max(abs(w[0]), abs(w[-1]))
        if score > best[0]:
            best = (score, support)
    score, support = best
    w, v = np.linalg.eigh(m[np.ix_(support, support)])
    pick = -1 if abs(w[-1]) >= abs(w[0]) else 0
    vec = v[:, pick]
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        vec = -vec
    full = np.zeros(m.shape[0])
    full[list(support)] = vec
    return float(score), support, float(w[pick]), full


def sin_angle(u, v):
    return math.sqrt(max(0.0, 1.0 - float(u @ v) ** 2))


def _close(label, got, want, problems):
    if not abs(got - want) <= TOL * max(1.0, abs(want)):
        problems.append("%s: output %.17g, recomputed %.17g" % (label, got, want))


def check_record_count(records, expected):
    """One record per cell x rep x estimator x functional, none missing."""
    if len(records) != expected:
        return ["records: expected %d, found %d" % (expected, len(records))]
    return []


def _replicate_values(records, n, rep):
    return {
        (r["estimator"], r["functional"]): r["value"]
        for r in records
        if r["n"] == n and r["replicate"] == rep
    }


def check_taper_replicate(records, n, rep, x, alpha, c, ks):
    """Recompute every taper_err record of one replicate from its sample x."""
    problems = []
    d = x.shape[1]
    sigma = bandable_sigma(alpha, c, d)
    est = tau_sine(x)
    values = _replicate_values(records, n, rep)
    wanted = [("taper_err_a%g" % alpha, even_bandwidth(n, d, alpha))]
    wanted += [("taper_err_k%d" % k, k) for k in ks]
    for label, k in wanted:
        key = ("tau", label)
        if key not in values:
            problems.append("n=%d rep=%d: no %s record" % (n, rep, label))
            continue
        want = spectral_norm(taper_weights(k, d) * est - sigma)
        _close("n=%d rep=%d %s" % (n, rep, label), values[key], want, problems)
    return problems


def check_sparse_bounds(records, s):
    """Interlacing and range properties every sparse-study replicate has."""
    problems = []
    groups = {}
    for r in records:
        key = (r["n"], r["replicate"], r["estimator"])
        groups.setdefault(key, {})[r["functional"]] = r["value"]
    for (n, rep, est), v in sorted(groups.items()):
        where = "n=%d rep=%d %s" % (n, rep, est)
        sparse = v["sparse_spec_err_s%d" % s]
        slack = TOL * max(1.0, v["spec_err"])
        if not (v["max_err"] <= sparse + slack and sparse <= v["spec_err"] + slack):
            problems.append(
                "%s: max_err %.17g <= sparse %.17g <= spec_err %.17g fails"
                % (where, v["max_err"], sparse, v["spec_err"])
            )
        for label in ("sin_angle_sparse_s%d" % s, "proj_dist_k1"):
            if not 0.0 <= v[label] <= 1.0 + TOL:
                problems.append("%s: %s=%.17g outside [0, 1]" % (where, label, v[label]))
        if v["support_recovery_s%d" % s] not in (0.0, 1.0):
            problems.append("%s: support recovery is not 0 or 1" % where)
    return problems


def check_sparse_replicate(records, n, rep, x, lam, s):
    """Recompute every record of one sparse-study replicate from its sample."""
    problems = []
    d = x.shape[1]
    sigma = spiked_sigma(lam, s, d)
    _, pop_support, _, pop_vec = best_sparse(sigma, s)
    pop_top = np.linalg.eigh(sigma)[1][:, -1]
    values = _replicate_values(records, n, rep)
    estimates = {"rho": rho_sine(x), "oracle": x.T @ x / float(n)}
    for name, est in estimates.items():
        diff = est - sigma
        _, support, _, vec = best_sparse(est, s)
        top = np.linalg.eigh(est)[1][:, -1]
        want = {
            "spec_err": spectral_norm(diff),
            "max_err": float(np.abs(diff).max()),
            "sparse_spec_err_s%d" % s: best_sparse(diff, s)[0],
            "sin_angle_sparse_s%d" % s: sin_angle(vec, pop_vec),
            "support_recovery_s%d" % s: float(support == pop_support),
            "proj_dist_k1": spectral_norm(np.outer(pop_top, pop_top) - np.outer(top, top)),
        }
        for label, value in want.items():
            key = (name, label)
            if key not in values:
                problems.append("n=%d rep=%d %s: no %s record" % (n, rep, name, label))
                continue
            _close("n=%d rep=%d %s %s" % (n, rep, name, label), values[key], value, problems)
    return problems


def check_estimate(paths, latent, k, s):
    """Check one `rankspec estimate --method rho` run against its latent sample.

    ``paths`` maps "estimate", "taper" and "sparse" to the written files.
    Ranks survive the strictly increasing transforms, so the estimate must
    equal 2 sin(pi/6 rho) of the latent sample itself.
    """
    problems = []
    est = read_matrix(paths["estimate"])
    d = latent.shape[1]
    if est.shape != (d, d):
        return ["estimate: shape %s, expected (%d, %d)" % (est.shape, d, d)]
    if not (est == est.T).all():
        problems.append("estimate: not symmetric")
    if not (np.diag(est) == 1.0).all():
        problems.append("estimate: diagonal is not exactly 1")
    if not (np.abs(est) <= 1.0).all():
        problems.append("estimate: entries outside [-1, 1]")
    want = rho_sine(latent)
    worst = float(np.abs(est - want).max())
    if worst > TOL:
        problems.append("estimate: differs from 2 sin(pi/6 rho) by %.3g" % worst)

    tapered = read_matrix(paths["taper"])
    worst = float(np.abs(tapered - taper_weights(k, d) * est).max())
    if worst > TOL:
        problems.append("taper: differs from weights x estimate by %.3g" % worst)

    with open(paths["sparse"], newline="") as handle:
        rows = list(csv.DictReader(handle))
    _, support, value, vec = best_sparse(est, s)
    if len(rows) != d:
        return problems + ["sparse: %d rows, expected %d" % (len(rows), d)]
    got_support = tuple(int(r["index"]) for r in rows if r["in_support"] == "1")
    if got_support != support:
        problems.append("sparse: support %s, brute force %s" % (got_support, support))
    if len(set(r["leading_value"] for r in rows)) != 1:
        problems.append("sparse: leading value differs between rows")
    _close("sparse leading value", float(rows[0]["leading_value"]), value, problems)
    for r in rows:
        j = int(r["index"])
        _close("sparse vector entry %d" % j, float(r["vector_entry"]), vec[j], problems)
    return problems
