"""Each layer module's __all__ matches what the module offers, and every
public function in it is reached from the package itself."""

import ast
import importlib
import inspect
import pathlib

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


def _references():
    """(module stem, enclosing top-level function or None, name) for every
    name and attribute read in the package.  Import statements and __all__
    strings are neither, so they do not count."""
    refs = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs.add((path.stem, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    refs.add((path.stem, owner, node.attr))
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
