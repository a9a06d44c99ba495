import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipkm1

import flatsteady
from flatsteady import RadialGrid, RadialProfile, potential_from_density, lp_norm
from flatsteady.potential import (FlatPotentialOperator, operator_for,
                                  outer_potential_energy)
from flatsteady.errors import InputError


def kuzmin_potential(r, M=1.0, a=1.0):
    return -M / np.sqrt(r ** 2 + a ** 2)


@pytest.fixture(scope="module")
def kuzmin_on_grid(kuzmin_profile):
    grid = RadialGrid.hybrid(20.0, 4000.0, 512)
    return RadialProfile(grid, kuzmin_profile(grid.nodes),
                         require_nonnegative=True)


def test_kuzmin_potential_accuracy(kuzmin_on_grid):
    U = potential_from_density(kuzmin_on_grid)
    r = kuzmin_on_grid.grid.nodes
    sel = r <= 10.0
    exact = kuzmin_potential(r[sel])
    err = np.max(np.abs(U.values[sel] - exact) / np.abs(exact))
    assert err < 1e-4


def test_central_potential_value(kuzmin_on_grid):
    # U(0) = -2 pi int_0^inf rho(s) ds = -M/a for the Kuzmin disc
    U = potential_from_density(kuzmin_on_grid)
    assert U.values[0] == pytest.approx(-1.0, rel=1e-4)


def test_potential_energy_kuzmin(kuzmin_on_grid):
    # E_pot = -M^2/(4a) in closed form
    op = operator_for(kuzmin_on_grid.grid)
    e_pot = op.potential_energy(kuzmin_on_grid.values)
    assert e_pot == pytest.approx(-0.25, rel=2e-3)


def test_bilinear_form_symmetric_exactly(kuzmin_on_grid):
    grid = kuzmin_on_grid.grid
    op = operator_for(grid)
    rng = np.random.default_rng(5)
    rho1 = rng.random(grid.n)
    rho2 = rng.random(grid.n)
    assert op.interaction_energy(rho1, rho2) == op.interaction_energy(rho2, rho1)


def test_potential_scales_linearly(kuzmin_on_grid):
    op = operator_for(kuzmin_on_grid.grid)
    u1 = op.potential(kuzmin_on_grid.values)
    u3 = op.potential(3.0 * kuzmin_on_grid.values)
    assert np.allclose(u3, 3.0 * u1, rtol=1e-13, atol=0.0)


def test_potential_negative_and_increasing(kuzmin_on_grid):
    U = potential_from_density(kuzmin_on_grid)
    assert np.all(U.values < 0.0)
    assert np.all(np.diff(U.values) > 0.0)


def test_lp_norm_against_closed_form():
    grid = RadialGrid(np.linspace(0.0, 50.0, 4000))
    prof = RadialProfile(grid, np.exp(-grid.nodes ** 2),
                         require_nonnegative=True)
    # (2 pi int r e^{-p r^2} dr)^{1/p} = (pi/p)^{1/p}
    for p in (1.0, 4.0 / 3.0, 2.0):
        assert lp_norm(prof, p) == pytest.approx((np.pi / p) ** (1.0 / p),
                                                 rel=1e-4)


def test_lp_norm_rejects_p_below_one(kuzmin_on_grid):
    with pytest.raises(InputError):
        lp_norm(kuzmin_on_grid, 0.5)


def test_outer_energy_decay(kuzmin_on_grid):
    rep = outer_potential_energy(kuzmin_on_grid, 4.0,
                                 R_sequence=[4.0, 8.0, 16.0, 32.0])
    assert rep["decay_exponent"] <= -0.5
    assert rep["value"] > 0.0
    vals = rep["sequence_values"]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_outer_energy_bound_with_constant(kuzmin_on_grid):
    rep = outer_potential_energy(kuzmin_on_grid, 8.0, C=3.0)
    assert rep["bound_holds"]


def test_operator_cache_returns_same_object():
    # two grids of one shape share one assembled kmat, scaled by their r_max
    a = operator_for(RadialGrid(np.linspace(0.0, 5.0, 64)))
    b = operator_for(RadialGrid(np.linspace(0.0, 2.0, 64)))
    assert a.kmat is b.kmat
    assert (a.scale, b.scale) == (5.0, 2.0)


_BLAS_PROBE = """
import hashlib
import numpy as np
from flatsteady import CasimirModel, RadialGrid, SolverOptions, solve
from flatsteady.potential import operator_for

for n in (192, 384, 1024):
    grid = RadialGrid.hybrid(0.25, 3.0, n)
    rho = np.exp(-grid.nodes ** 2) * (1.0 + 0.1 * np.sin(7.0 * grid.nodes))
    print(hashlib.sha256(operator_for(grid).potential(rho).tobytes()).hexdigest())
ss = solve(CasimirModel.polytrope(0.5, c=57.0), 1.0, SolverOptions(n=192))
print(float(ss.E0).hex(), hashlib.sha256(ss.U0.values.tobytes()).hexdigest())
"""


def test_matvec_bytes_independent_of_blas_threads():
    # the matvec runs in BLAS; its bytes, and so a solve's, must not depend
    # on how many threads BLAS splits the product over
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.path.dirname(os.path.dirname(flatsteady.__file__)))
        outs.append(subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                                   capture_output=True, text=True, check=True,
                                   timeout=300).stdout)
    assert len(outs[0].split()) == 5
    assert outs[0] == outs[1]


def _reference_row(r, i):
    """Row i of the operator by adaptive quadrature, panel by panel.

    Each panel integrates the kernel -4 s/(r+s) K against the quadratic
    Lagrange basis on its node triple (the panel's left neighbour, clipped
    at the ends), with K from scipy's ellipkm1 of the complementary
    parameter ((r-s)/(r+s))^2.
    """
    n = r.size
    ri = r[i]
    row = np.zeros(n)
    for p in range(n - 1):
        j = min(max(p - 1, 0), n - 3)
        x = r[j:j + 3]
        for l in range(3):
            xo = np.delete(x, l)

            def f(s):
                basis = (s - xo[0]) * (s - xo[1]) / ((x[l] - xo[0]) * (x[l] - xo[1]))
                kp2 = ((ri - s) / (ri + s)) ** 2
                return -4.0 * s / (ri + s) * ellipkm1(kp2) * basis

            row[j + l] += quad(f, r[p], r[p + 1], epsabs=0.0, epsrel=1e-13,
                               limit=200)[0]
    return row


@pytest.mark.parametrize("grid", [RadialGrid(np.linspace(0.0, 1.0, 48)),
                                  RadialGrid.hybrid(0.25, 1.0, 64),
                                  RadialGrid(np.geomspace(1e-2, 1.0, 48))],
                         ids=["uniform", "hybrid", "log"])
def test_operator_rows_match_adaptive_quadrature(grid):
    kmat = FlatPotentialOperator(grid).kmat
    n = grid.n
    for i in (0, 1, 2, n // 2, n - 2, n - 1):
        ref = _reference_row(grid.nodes, i)
        assert np.max(np.abs(kmat[i] - ref)) <= 1e-8 * np.max(np.abs(ref))
