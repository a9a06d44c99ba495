"""Every public name the package and its layer modules export exists, and
importing them loads no more of scipy than they use at import."""

import importlib
import os
import subprocess
import sys

import pytest

import flatsteady

LAYERS = ("elliptic", "casimir", "grids", "potential", "steady",
          "functionals", "simulate", "cli")


@pytest.mark.parametrize("module", ["flatsteady"]
                         + [f"flatsteady.{layer}" for layer in LAYERS])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_import_leaves_scipy_interpolate_unloaded():
    # scipy.interpolate takes most of the import time; the spline force and
    # the custom table import it on first use
    probe = ("import sys, flatsteady, flatsteady.cli; "
             "print('scipy.interpolate' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(flatsteady.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    assert out.split() == ["False"]
