"""Spans around rankspec's public functions, recorded from outside the program.

``Tracer.install`` wraps every public function of the layer modules.  A
``from ... import`` binds a function under a second name in the importing
module, so the wrapper replaces every binding of the original across the
package: the caller's module (``harness``, ``cli``, ``regularize``,
``kernels``) and the defining module's own internal calls (``linalg``'s
``spectral_norm`` calling ``eig_sym``, for example).

Spans stay in memory, one list per thread, until ``drain``.  A span's self
time is its duration minus the durations of the spans it directly encloses
on the same thread.  Work of a thread-pool worker is not enclosed by the
calling thread's span, so at threads > 1 the self time of
``harness.run_experiment`` includes the time its thread waits on the pool.
"""

import functools
import inspect
import math
import sys
import threading
import time

LAYERS = ("copula", "rankest", "linalg", "regularize", "harness", "cli", "kernels")


def _kendall_pair_obs(args, kwargs):
    n, d = args[0].entries.shape
    return n * d * (d - 1) // 2


def _subsets(args, kwargs):
    return math.comb(args[0].dim, args[1])


# Work units counted per call, so that rates are measured where work happens.
WORK = {
    "rankest.kendall_tau_matrix": _kendall_pair_obs,
    "linalg.sparse_spectral_norm": _subsets,
}
# Spans that also record process CPU time (all threads), for parallelism.
CPU = ("harness.run_experiment",)


def public_functions():
    """{span name: function} for the public functions of each layer module."""
    found = {}
    for layer in LAYERS:
        module = sys.modules["rankspec." + layer]
        names = getattr(module, "__all__", None)
        if names is None:
            names = [n for n in vars(module) if not n.startswith("_")]
        for name in names:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found["%s.%s" % (layer, name)] = obj
    return found


class Tracer:
    """Records (name, start, end, self time, work units, cpu) per call."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists = []
        self._patches = []

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._lists.append(local.spans)
        return local.spans, local.stack

    def _wrap(self, name, fn):
        work = WORK.get(name)
        cpu = name in CPU
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer._thread_state()
            units = work(args, kwargs) if work else 0
            stack.append(0.0)
            cpu0 = time.process_time() if cpu else 0.0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                used = time.process_time() - cpu0 if cpu else 0.0
                child = stack.pop()
                if stack:
                    stack[-1] += end - start
                spans.append((name, start, end, end - start - child, units, used))

        return traced

    def install(self):
        """Replace every binding of every public function by its wrapper."""
        originals = public_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("rankspec."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def drain(self):
        """All spans recorded since the last drain, from every thread."""
        with self._lock:
            spans = [s for lst in self._lists for s in lst]
            for lst in self._lists:
                lst.clear()
        return spans


_EMPTY = dict(calls=0, self_s=0.0, total_s=0.0, units=0, cpu_s=0.0)


def aggregate(spans):
    """{name: dict(calls, self_s, total_s, units, cpu_s)} over a span list."""
    table = {}
    for name, start, end, self_s, units, cpu in spans:
        row = table.setdefault(name, dict(_EMPTY))
        row["calls"] += 1
        row["self_s"] += self_s
        row["total_s"] += end - start
        row["units"] += units
        row["cpu_s"] += cpu
    return table


def layer_metrics(table):
    """The per-layer metrics of one round, from its aggregated spans.

    ``trace.overhead_s`` needs an untraced round as well and is added by
    the caller.
    """

    def get(name):
        return table.get(name, _EMPTY)

    def self_s(*names):
        return sum(get(name)["self_s"] for name in names)

    def rate(name):
        row = get(name)
        return row["units"] / row["self_s"] if row["self_s"] > 0 else 0.0

    run = get("harness.run_experiment")
    out = {}
    for name in (
        "copula.sample_latent", "copula.apply_transforms",
        "rankest.kendall_tau_matrix", "rankest.spearman_rho_matrix",
        "rankest.oracle_sample_corr", "linalg.sparse_spectral_norm",
        "linalg.eig_sym", "regularize.taper_estimate", "regularize.sparse_pca",
        "harness.run_experiment", "cli.main",
    ):
        out[name + ".self_s"] = get(name)["self_s"]
    for name in (
        "copula.sample_latent", "rankest.kendall_tau_matrix",
        "rankest.spearman_rho_matrix", "linalg.sparse_spectral_norm",
        "linalg.eig_sym", "regularize.sparse_pca",
    ):
        out[name + ".calls"] = get(name)["calls"]
    out["rankest.kendall_pair_obs_per_s"] = rate("rankest.kendall_tau_matrix")
    out["rankest.sine_map.self_s"] = self_s("rankest.sigma_hat_tau", "rankest.sigma_hat_rho")
    out["linalg.sparse_subsets_per_s"] = rate("linalg.sparse_spectral_norm")
    out["harness.write_csv.self_s"] = self_s(
        "harness.write_records_csv", "harness.write_summary_csv"
    )
    out["harness.run_experiment.wall_s"] = run["total_s"]
    out["harness.run_experiment.cpu_s"] = run["cpu_s"]
    out["harness.parallelism"] = run["cpu_s"] / run["total_s"] if run["total_s"] > 0 else 0.0
    return out


def check_counts(table, expected):
    """Compare per-round call counts with counts derived from the config.

    ``expected`` maps a span name to (low, high).  A count above the range
    means work done twice; below it, work done where spans are not seen
    (a worker process, say) or not done at all.
    """
    problems = []
    for name, (low, high) in sorted(expected.items()):
        calls = table.get(name, _EMPTY)["calls"]
        if not low <= calls <= high:
            problems.append(
                "trace: %s called %d times, expected %s"
                % (name, calls, low if low == high else "%d..%d" % (low, high))
            )
    return problems
