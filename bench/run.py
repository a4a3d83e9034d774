"""Benchmark of rankspec: one workload per run, results as one JSON line.

Usage (from the repository root):

    python3 bench/run.py --workload taper_mc --seed 1 --seconds 20 --trace 0

Workloads are taper_mc, sparse_mc and estimate_csv (see bench/README.md).
A run times set-up (from the process's start through importing rankspec
with numpy and scipy and one small warm-up call), writes the workload's
inputs from --seed, then repeats whole rounds of the workload's fixed work
until --seconds have passed.  Afterwards it checks the outputs against
computations made apart from rankspec.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
spends half the time on untraced rounds and half on rounds traced by
wrapping rankspec's public functions, and reports the per-layer metrics.
The last line of standard output is the JSON result; the line before it
gives the machine facts.  Exit status is 0 when every check passed, 1 when
one failed and 2 when the benchmark could not run.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import bench_trace

# One BLAS thread, set before numpy loads: the harness's own threads, not
# BLAS threads, share the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def process_age():
    """Seconds since this process started (Linux; start time in clock ticks)."""
    with open("/proc/self/stat") as handle:
        ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")


def cpu_seconds():
    """User + system CPU of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Peak resident set of this process or its largest child, in MB."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    loaded = []
    with open("/proc/self/maps") as handle:
        libs = sorted(set(
            line.split()[-1] for line in handle if "openblas" in line.lower()
        ))
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = dict(lib=os.path.basename(path))
        for suffix in ("64_", ""):
            get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
            get_config = getattr(lib, "scipy_openblas_get_config" + suffix, None)
            if get_threads is not None and get_config is not None:
                get_config.restype = ctypes.c_char_p
                entry.update(threads=get_threads(), config=get_config().decode())
                break
        loaded.append(entry)
    return dict(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas="%s %s" % (blas.get("name"), blas.get("version")),
        blas_loaded=loaded,
        openblas_num_threads=os.environ["OPENBLAS_NUM_THREADS"],
    )


def run_rounds(workload, seconds, tracer=None):
    """Whole rounds for ``seconds``: at least one, then another only while
    one as long as the last still fits."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() + rounds[-1]["wall"] <= deadline:
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        result = workload.run_round()
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        row = dict(
            wall=wall,
            cpu=cpu,
            failed=workload.failed(result),
            digest=digest(workload.outputs()),
        )
        if tracer is not None:
            row["spans"] = bench_trace.aggregate(tracer.drain())
        print("round %d: wall %.4f s, cpu %.4f s" % (len(rounds), wall, cpu), file=sys.stderr)
        rounds.append(row)
    return rounds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rankspec", "__init__.py")):
        print("error: no rankspec sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # set-up covers importing numpy, scipy and every rankspec module
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import rankspec.cli

    if not os.path.abspath(rankspec.cli.__file__).startswith(SRC + os.sep):
        print("error: rankspec imported from %s" % rankspec.cli.__file__, file=sys.stderr)
        return 2
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    bench_workloads.warm_up()
    setup_s = process_age()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workdir = os.path.join(OUT, "%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        workload = bench_workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        if args.trace:
            values, rounds, problems = traced_run(workload, args)
        else:
            rounds = run_rounds(workload, args.seconds)
            values = dict(
                wall_s=statistics.median(r["wall"] for r in rounds),
                cpu_s=statistics.median(r["cpu"] for r in rounds),
                peak_rss_mb=peak_rss_mb(),
                setup_s=setup_s,
            )
            problems = []
        if len(set(r["digest"] for r in rounds)) != 1:
            problems.append("outputs differ between rounds of the same work")
        try:
            problems += workload.check()
        except Exception as exc:  # a malformed output is a failed check
            problems.append("check raised %s: %s" % (type(exc).__name__, exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: dict(value=values[m["name"]], unit=m["unit"]) for m in listed}
    for line in problems:
        print("check failed: %s" % line, file=sys.stderr)
    print("machine: %s" % json.dumps(machine_facts(), sort_keys=True))
    print(json.dumps(dict(
        correct=not problems,
        attempted=workload.ops * len(rounds),
        failed=sum(r["failed"] for r in rounds),
        metrics=metrics,
    )))
    return 0 if not problems else 1


def traced_run(workload, args):
    """Untraced rounds for half the time, then traced rounds for the rest.

    Returns (per-layer metric values, all rounds, count-check problems).
    Each per-layer value is the median over traced rounds of that round's
    figure; trace.overhead_s is the traced minus the untraced median wall.
    """
    plain = run_rounds(workload, args.seconds / 2.0)
    with bench_trace.Tracer() as tracer:
        traced = run_rounds(workload, args.seconds / 2.0, tracer)
    per_round = [bench_trace.layer_metrics(r["spans"]) for r in traced]
    values = {name: statistics.median_low(m[name] for m in per_round) for name in per_round[0]}
    values["trace.overhead_s"] = (
        statistics.median(r["wall"] for r in traced)
        - statistics.median(r["wall"] for r in plain)
    )
    problems = []
    for r in traced:
        for line in bench_trace.check_counts(r["spans"], workload.expected_calls()):
            if line not in problems:
                problems.append(line)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as handle:
        json.dump([r["spans"] for r in traced], handle, indent=1, sort_keys=True)
    return values, plain + traced, problems


if __name__ == "__main__":
    sys.exit(main())
