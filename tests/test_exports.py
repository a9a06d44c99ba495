"""Every public name the package and its layer modules export exists, and
the CLI runs without scipy: with every scipy import blocked, ``evolve`` and
a custom table's ``solve`` write the same bytes as with scipy importable."""

import importlib
import os
import subprocess
import sys

import numpy as np
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


# runs the (command, config, out) triples after argv[1]; with "block" first,
# a finder ahead of every other refuses each scipy import
_CLI_RUNNER = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
from flatsteady import cli
args = sys.argv[2:]
for cmd, cfg, out in zip(args[::3], args[1::3], args[2::3]):
    code = cli.main([cmd, "--config", cfg, "--out", out])
    if code:
        sys.exit(f"{cmd} exited {code}")
print("scipy" in sys.modules)
"""

EVOLVE_INI = """\
[model]
kind = polytrope
mu = 0.5
c = 57.0

[solver]
n = 96

[evolve]
n_particles = 20000
dt_over_tdyn = 0.02
t_end_over_tdyn = 0.06
output_every = 1
seed = 12
"""


def test_cli_runs_without_scipy(tmp_path):
    # f^3 on 199 nodes in (0, 6]; the table ends at f = 6, so M = 1 exhausts
    # its bracket and the solve runs at M = 0.01
    f = np.linspace(0.0, 6.0, 200)[1:]
    np.savetxt(tmp_path / "f_cubed.csv", np.c_[f, f ** 3], fmt="%.17g",
               delimiter=",", header="f,Q", comments="")
    (tmp_path / "evolve.ini").write_text(EVOLVE_INI)
    (tmp_path / "table.ini").write_text(
        "[model]\nkind = custom\ntable = %s\nmu1 = 0.5\nmu2 = 0.5\n"
        "mu3 = 0.5\n\n[solve]\nmass = 0.01\n" % (tmp_path / "f_cubed.csv"))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(flatsteady.__file__)))
    outs = {}
    for mode in ("block", "allow"):
        argv = [mode]
        for cmd, cfg in (("evolve", "evolve.ini"), ("solve", "table.ini")):
            argv += [cmd, str(tmp_path / cfg), str(tmp_path / mode / cmd)]
        run = subprocess.run([sys.executable, "-c", _CLI_RUNNER, *argv],
                             env=env, capture_output=True, text=True,
                             timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["False"]
        outs[mode] = {p.relative_to(tmp_path / mode): p.read_bytes()
                      for p in sorted((tmp_path / mode).rglob("*"))
                      if p.is_file()}
    assert len(outs["block"]) == 7  # evolve's five artifacts and solve's two
    assert outs["block"] == outs["allow"]
