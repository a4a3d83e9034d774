"""Each layer module's __all__ matches what the module offers, and every
public function in it, and every optional parameter of one, is reached
from the package itself.  Only harness touches files, and a cold import of
the CLI loads no scipy module."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import rankspec

LAYERS = ("linalg", "copula", "rankest", "kernels", "regularize", "harness")
PACKAGE = pathlib.Path(rankspec.__file__).parent


@pytest.mark.parametrize("layer", LAYERS)
def test_all_resolves_and_lists_every_public_function(layer):
    module = importlib.import_module("rankspec." + layer)
    names = module.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []
    defined = sorted(
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    )
    assert [name for name in defined if name not in names] == []


def _nodes():
    """(module stem, enclosing top-level function or None, node) for every
    AST node in the package."""
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = top if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                yield path.stem, owner, node


def _references():
    """(module stem, enclosing top-level function name or None, name) for
    every name and attribute read in the package.  Import statements and
    __all__ strings are neither, so they do not count."""
    refs = set()
    for stem, owner, node in _nodes():
        name = owner.name if owner else None
        if isinstance(node, ast.Name):
            refs.add((stem, name, node.id))
        elif isinstance(node, ast.Attribute):
            refs.add((stem, name, node.attr))
    return refs


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_function_has_a_caller_in_the_package(layer):
    module = importlib.import_module("rankspec." + layer)
    refs = _references()
    unreached = [
        name
        for name in module.__all__
        if inspect.isfunction(getattr(module, name))
        and not any(
            ref == name and (stem, owner) != (layer, name) for stem, owner, ref in refs
        )
    ]
    assert unreached == []


def _calls():
    """(module stem, enclosing top-level function name or None, called name,
    positional argument count, keyword names) for every call in the
    package.  A keyword that forwards the caller's own optional parameter
    of the same name (f(tol=tol)) sets nothing, so it is left out."""
    calls = []
    for stem, owner, node in _nodes():
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        optional = set()
        if owner is not None:
            spec = owner.args
            args = spec.posonlyargs + spec.args
            optional = {a.arg for a in args[len(args) - len(spec.defaults):]}
            optional |= {a.arg for a, d in zip(spec.kwonlyargs, spec.kw_defaults) if d}
        keywords = {
            k.arg
            for k in node.keywords
            if not (
                isinstance(k.value, ast.Name)
                and k.value.id == k.arg
                and k.arg in optional
            )
        }
        calls.append((stem, owner.name if owner else None, called, len(node.args), keywords))
    return calls


@pytest.mark.parametrize("layer", LAYERS)
def test_every_optional_parameter_is_set_in_the_package(layer):
    # an option that only tests set doubles the configurations to cover
    module = importlib.import_module("rankspec." + layer)
    calls = _calls()
    unset = []
    for name in module.__all__:
        fn = getattr(module, name)
        if not inspect.isfunction(fn):
            continue
        for i, param in enumerate(inspect.signature(fn).parameters.values()):
            if param.default is inspect.Parameter.empty:
                continue
            if not any(
                called == name
                and (stem, owner) != (layer, name)
                and (param.name in keywords or positional > i)
                for stem, owner, called, positional, keywords in calls
            ):
                unset.append("%s(%s)" % (name, param.name))
    assert unset == []


def test_only_harness_reads_and_writes_files():
    # one module owns the CSV format, so a format change is made in one place
    owners = set()
    for stem, _, node in _nodes():
        if isinstance(node, ast.Import):
            if any(alias.name == "csv" for alias in node.names):
                owners.add((stem, "import csv"))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "csv":
                owners.add((stem, "import csv"))
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open":
                owners.add((stem, "open()"))
    assert sorted(owners) == [("harness", "import csv"), ("harness", "open()")]


def _cold_run(*args):
    """Run a fresh interpreter with args, importing rankspec from this
    checkout; return its standard output.  A nonzero exit fails the test."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout


def test_cli_import_loads_no_scipy_module():
    # a cold `import rankspec.cli` is the start-up cost of every command;
    # only kernel-check and the hoeffding_report functional need scipy
    code = "import sys, rankspec.cli; print(' '.join(sorted(sys.modules)))"
    out = _cold_run("-c", code).split()
    assert "rankspec.cli" in out
    assert [m for m in out if m == "scipy" or m.startswith("scipy.")] == []


def test_kernels_run_from_a_cold_start(tmp_path):
    # scipy.special is imported on the first kernel call: here two threads
    # make that call at once, and kernel-check makes it in its own process
    code = """
import sys
from rankspec.copula import SigmaModel
from rankspec.harness import ExperimentConfig, Functional, run_experiment
config = ExperimentConfig(
    model=SigmaModel.ar1(0.5, 4), estimators=("tau",), n_grid=(40,),
    d_grid=(4,), functionals=(Functional.hoeffding_report(),), reps=6, seed=3,
)
assert "scipy.special" not in sys.modules
two = run_experiment(config, threads=2)
one = run_experiment(config, threads=1)
print(len(two.records), two.records == one.records, two.failures == one.failures == ())
"""
    assert _cold_run("-c", code) == "6 True True\n"
    _cold_run("-m", "rankspec.cli", "kernel-check", "--grid-size", "11",
              "--out", str(tmp_path / "sweep.csv"))
