import numpy as np
import pytest

from flatsteady import (CasimirModel, RadialGrid, RadialProfile,
                        SolverOptions, density_from_potential,
                        regularity_report, solve)
from flatsteady.errors import InputError


def test_density_from_potential_oracle(poly_half):
    # 2 pi G(3) = 4 pi for the mu = 1/2, c = 1 polytrope
    grid = RadialGrid.uniform(1.0, 32)
    U = RadialProfile(grid, np.full(32, -5.0))
    rho = density_from_potential(poly_half, -2.0, U)
    assert rho.values[0] == pytest.approx(4.0 * np.pi, rel=1e-12)


def test_density_zero_outside_support(poly_half):
    grid = RadialGrid.uniform(1.0, 32)
    U = RadialProfile(grid, np.linspace(-3.0, -1.0, 32))
    rho = density_from_potential(poly_half, -2.0, U)
    assert np.all(rho.values[U.values >= -2.0] == 0.0)
    assert np.all(rho.values[U.values < -2.0] > 0.0)


def test_solve_self_consistency(ss_half):
    assert ss_half.residual <= 1e-8
    assert abs(ss_half.mass - 1.0) <= 1e-6
    assert ss_half.E0 < 0.0
    assert ss_half.support_radius < ss_half.grid.r_max


def test_solve_density_matches_map(ss_half):
    rho_map = 2.0 * np.pi * ss_half.inv.G(ss_half.E0 - ss_half.U0.values)
    defect = np.max(np.abs(rho_map - ss_half.rho0.values)) / np.max(rho_map)
    assert defect <= 1e-8


def test_support_is_compact(ss_half):
    r = ss_half.grid.nodes
    outside = r > 1.05 * ss_half.support_radius
    assert outside.any()
    assert np.all(ss_half.rho0.values[outside] == 0.0)


def test_e0_converges_under_refinement(poly_half, ss_half):
    ss_fine = solve(poly_half, 1.0, SolverOptions(n=768))
    assert abs(ss_fine.E0 - ss_half.E0) / abs(ss_half.E0) < 1e-4


def test_mass_is_prescribed(poly_half):
    for target in (0.5, 2.0):
        ss = solve(poly_half, target, SolverOptions(n=192))
        assert ss.mass == pytest.approx(target, rel=1e-9)


def test_solver_rejects_nonpositive_mass(poly_half):
    with pytest.raises(InputError):
        solve(poly_half, 0.0)
    with pytest.raises(InputError):
        solve(poly_half, -1.0)


def test_solver_options_validation():
    with pytest.raises(InputError):
        SolverOptions(damping=0.0)
    with pytest.raises(InputError):
        SolverOptions(residual_tol=-1.0)


def test_double_power_state_converges():
    model = CasimirModel.double_power(0.4, 0.9, 1.0, 0.5, F0=2.0)
    ss = solve(model, 1.0, SolverOptions(n=192))
    assert ss.residual <= 1e-8
    assert ss.E0 < 0.0


def test_regularity_identity(ss_half):
    rep = regularity_report(ss_half)
    assert rep["identity_max_defect"] <= 1e-3
    assert rep["bounded"]
    assert np.isfinite(rep["max_abs_U"])


def test_regularity_edge_exponent(ss_half):
    # rho0 vanishes like (E0 - U0)^(mu+1) at the support edge
    rep = regularity_report(ss_half)
    assert rep["edge_exponent"] == pytest.approx(1.5, abs=0.05)


def test_dynamical_time_positive(ss_half):
    assert ss_half.dynamical_time() > 0.0
