"""Each layer module's __all__ matches what the module offers."""

import importlib
import inspect

import pytest

LAYERS = ("linalg", "copula", "rankest", "kernels", "regularize", "harness")


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
