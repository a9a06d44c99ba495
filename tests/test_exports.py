"""Every public name the package and its layer modules export exists."""

import importlib

import pytest

LAYERS = ("elliptic", "casimir", "grids", "potential", "steady",
          "functionals", "simulate", "cli")


@pytest.mark.parametrize("module", ["flatsteady"]
                         + [f"flatsteady.{layer}" for layer in LAYERS])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)
