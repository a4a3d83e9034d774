"""The benchmark's checks pass on the program's outputs and reject a
perturbed one; the traced mode counts calls and leaves no wrapper behind.

Sizes are cut down so the whole file runs in seconds.
"""

import csv

import rankspec.copula
import rankspec.harness

import bench_checks
import bench_trace
import bench_workloads


def _edit_csv(path, edit):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def _nudge_record(path, functional, delta=1e-6):
    def edit(rows):
        row = next(r for r in rows[1:] if r[3] == functional)
        row[5] = "%.17g" % (float(row[5]) + delta)

    _edit_csv(path, edit)


def _ran_clean(workload):
    workload.prepare()
    result = workload.run_round()
    assert workload.failed(result) == 0
    assert workload.check() == []
    return result


def test_taper_check_rejects_perturbed_record(tmp_path):
    work = bench_workloads.TaperMC(3, str(tmp_path), n_grid=(40, 60), reps=1)
    _ran_clean(work)
    _nudge_record(work.records_path(), "taper_err_k8")
    assert any("taper_err_k8" in p for p in work.check())


def test_record_count_check_rejects_missing_row(tmp_path):
    work = bench_workloads.TaperMC(3, str(tmp_path), n_grid=(40, 60), reps=1)
    _ran_clean(work)
    _edit_csv(work.records_path(), lambda rows: rows.pop())
    assert any(p.startswith("records: expected 12") for p in work.check())


def test_sparse_check_rejects_perturbed_record(tmp_path):
    # one replicate per cell, so every replicate is recomputed
    work = bench_workloads.SparseMC(3, str(tmp_path), n_grid=(60, 90), reps=1, d=8)
    _ran_clean(work)
    path = str(tmp_path / "sparse" / "records.csv")
    _nudge_record(path, "proj_dist_k1")
    assert any("proj_dist_k1" in p for p in work.check())


def test_sparse_bounds_reject_broken_interlacing():
    def replicate(sparse):
        values = {
            "spec_err": 0.5, "max_err": 0.2, "sparse_spec_err_s3": sparse,
            "sin_angle_sparse_s3": 0.1, "support_recovery_s3": 1.0,
            "proj_dist_k1": 0.1,
        }
        return [
            dict(n=10, d=5, estimator="rho", functional=f, replicate=0, value=v)
            for f, v in values.items()
        ]

    assert bench_checks.check_sparse_bounds(replicate(0.3), 3) == []
    assert bench_checks.check_sparse_bounds(replicate(0.6), 3)
    assert bench_checks.check_sparse_bounds(replicate(0.1), 3)


def test_estimate_check_rejects_perturbed_output(tmp_path):
    work = bench_workloads.EstimateCSV(3, str(tmp_path), files=1, n=300, d=6)
    _ran_clean(work)
    paths = work.paths(0)

    def nudge(rows):
        rows[1][2] = "%.17g" % (float(rows[1][2]) * (1 + 1e-6))

    _edit_csv(paths["taper"], nudge)
    assert any("taper" in p for p in work.check())
    _edit_csv(paths["estimate"], nudge)
    problems = work.check()
    assert any("not symmetric" in p for p in problems)
    assert any("2 sin(pi/6 rho)" in p for p in problems)


def test_trace_counts_match_config_and_uninstall(tmp_path):
    original = rankspec.copula.sample_latent
    work = bench_workloads.SparseMC(3, str(tmp_path), n_grid=(60, 90), reps=2, d=8)
    work.prepare()
    with bench_trace.Tracer() as tracer:
        assert rankspec.harness.sample_latent is not original
        work.run_round()
        table = bench_trace.aggregate(tracer.drain())
    assert rankspec.harness.sample_latent is original
    assert rankspec.copula.sample_latent is original
    assert bench_trace.check_counts(table, work.expected_calls()) == []
    metrics = bench_trace.layer_metrics(table)
    assert metrics["copula.sample_latent.calls"] == work.ops
    assert metrics["linalg.sparse_subsets_per_s"] > 0
    doubled = {"rankest.spearman_rho_matrix": (2 * work.ops, 2 * work.ops)}
    assert bench_trace.check_counts(table, doubled)
