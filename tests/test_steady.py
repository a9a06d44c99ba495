import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatsteady import (CasimirModel, RadialGrid, RadialProfile,
                        SolverOptions, density_from_potential,
                        regularity_report, solve, steady)
from flatsteady.errors import ConvergenceError, InputError


def test_density_from_potential_oracle(poly_half):
    # 2 pi G(3) = 4 pi for the mu = 1/2, c = 1 polytrope
    grid = RadialGrid(np.linspace(0.0, 1.0, 32))
    U = RadialProfile(grid, np.full(32, -5.0))
    rho = density_from_potential(poly_half, -2.0, U)
    assert rho.values[0] == pytest.approx(4.0 * np.pi, rel=1e-12)


def test_density_zero_outside_support(poly_half):
    grid = RadialGrid(np.linspace(0.0, 1.0, 32))
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


# -- a state stores what solve decides; the rest follows from it -----------

def test_replaced_model_brings_its_own_inverse(ss_half):
    other = CasimirModel.polytrope(0.5, c=57.0)
    s = np.array([0.25, 1.0, 4.0])
    assert ss_half.inv.q(s)[1] != other.inverse().q(s)[1]
    swapped = dataclasses.replace(ss_half, model=other)
    assert np.array_equal(swapped.inv.q(s), other.inverse().q(s))
    # the original keeps its own
    assert np.array_equal(ss_half.inv.q(s), ss_half.model.inverse().q(s))


def test_replaced_density_brings_its_own_grid(ss_half):
    g2 = RadialGrid(2.0 * ss_half.grid.nodes)
    moved = dataclasses.replace(
        ss_half, rho0=RadialProfile(g2, ss_half.rho0.values),
        U0=RadialProfile(g2, ss_half.U0.values))
    assert moved.grid is g2
    assert ss_half.grid is ss_half.rho0.grid


def test_state_fields_cannot_be_assigned(ss_half):
    # an assignment would leave the cached moments stale
    for f in dataclasses.fields(ss_half):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ss_half, f.name, getattr(ss_half, f.name))
    assert [f.name for f in dataclasses.fields(ss_half)] == [
        "model", "E0", "rho0", "U0", "iterations"]


def test_replaced_density_brings_its_own_mass_support_and_residual(ss_half):
    grid, rho = ss_half.grid, ss_half.rho0.values
    doubled = dataclasses.replace(ss_half, rho0=RadialProfile(grid, 2.0 * rho))
    assert doubled.mass == 2.0 * ss_half.mass
    assert doubled.support_radius == ss_half.support_radius
    # 2*pi*G(E0 - U0) is still rho0/2 of the doubled density
    assert doubled.residual == pytest.approx(0.5, rel=1e-9)
    r, half = grid.nodes, 0.5 * ss_half.support_radius
    cut = dataclasses.replace(
        ss_half, rho0=RadialProfile(grid, np.where(r <= half, rho, 0.0)))
    assert cut.support_radius == r[r <= half][-1]
    assert cut.mass == pytest.approx(
        np.sum(grid.ring_weights[r <= half] * rho[r <= half]), rel=1e-14)
    assert cut.mass < ss_half.mass
    assert cut.residual > 1e-6
    # all-zero: no mass, no support, and no fixed point (an inf residual,
    # reached without a division warning)
    zero = dataclasses.replace(ss_half, rho0=RadialProfile(grid, 0.0 * rho))
    assert (zero.mass, zero.support_radius, zero.residual) == (0.0, 0.0, np.inf)


# -- the outer edge iteration at the edges of the model family --------------

def _counted_solve(model, M, n):
    """(state, outer evaluations) of solve(model, M) on n-node grids.

    Also checks that the state's ``iterations`` counts the sweeps of every
    evaluation, not just the last.
    """
    sweeps = []

    def counted(*args, **kwargs):
        out = sweep(*args, **kwargs)
        sweeps.append(out[-1])
        return out

    sweep = steady._inner_sweep
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(steady, "_inner_sweep", counted)
        ss = solve(model, M, SolverOptions(n=n))
    assert ss.iterations == sum(sweeps)
    return ss, len(sweeps)


def _assert_converged(ss, M):
    assert np.isfinite(ss.E0) and ss.E0 < 0.0
    assert abs(ss.mass - M) <= 1e-9 * M
    assert ss.residual <= 1e-9


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(-2.0, 4.0), st.floats(-2.0, 2.0))
def test_polytrope_solves_in_three_outer_evaluations(mu, log_c, log_m):
    # one power term has A ~ R^(mu - 1) exactly, so the first secant lands
    M = 10.0 ** log_m
    ss, evals = _counted_solve(CasimirModel.polytrope(mu, c=10.0 ** log_c), M, 128)
    _assert_converged(ss, M)
    assert evals <= 3


@pytest.mark.parametrize("mu,c,M", [(0.8, 0.01, 1.0), (0.95, 57.0, 0.01)])
def test_polytrope_far_from_unit_scales_converges(mu, c, M):
    # E0 = -3.9e12 and R = 9.3e51: no absolute bracket holds these states
    ss, evals = _counted_solve(CasimirModel.polytrope(mu, c=c), M, 192)
    _assert_converged(ss, M)
    assert evals <= 3


@pytest.mark.parametrize("mus", [(0.1, 0.9), (0.9, 0.2)])
@pytest.mark.parametrize("M", [0.01, 100.0])
def test_double_power_extreme_mass_converges(mus, M):
    ss, _ = _counted_solve(CasimirModel.double_power(*mus), M, 192)
    _assert_converged(ss, M)


# over 3000 random double powers at n=128 a solve took at most 10 trial radii
# of at most 18 sweeps, 73 sweeps in all (125 with every warm-started radius
# run to the full tolerance; with mixing 1/2: 33 per radius and 201 in all);
# the plain damped sweep took 100-160 sweeps per radius
_SWEEP_BUDGET = 120


@pytest.mark.parametrize("model,budget", [
    (CasimirModel.polytrope(0.5, c=57.0), 20),
    (CasimirModel.double_power(0.5, 0.75), 50),
], ids=["c57", "double_power"])
def test_undamped_sweeps_stay_within_count(model, budget):
    # the steps with mixing 1/2 took 27 and 115 sweeps on these states
    ss, _ = _counted_solve(model, 1.0, 384)
    _assert_converged(ss, 1.0)
    assert ss.iterations <= budget


def test_singular_anderson_history_takes_a_plain_step():
    # small integers keep every Gram entry exact, so two identical residual
    # differences make the normal matrix exactly singular
    f = np.arange(1.0, 9.0)
    row = np.array([1.0, 2.0, 0.0, 3.0, 0.0, 1.0, 2.0, 1.0])
    d_rho = np.ones((2, 8))
    assert steady._anderson_step(f, d_rho, np.stack([row, row])) is f
    # a subnormal Gram entry gives gamma = 1/1e-320, which overflows
    d_res = np.zeros((1, 8))
    d_res[0, 0] = 1e-160
    f_big = np.full(8, 1e160)
    assert steady._anderson_step(f_big, d_rho[:1], d_res) is f_big
    # otherwise gamma is the least-squares combination lstsq finds
    d_rho, d_res = np.random.default_rng(3).standard_normal((2, 5, 8))
    gamma = np.linalg.lstsq(d_res.T, f, rcond=None)[0]
    assert np.allclose(steady._anderson_step(f, d_rho, d_res),
                       f - gamma @ (d_rho + d_res), rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(-2.0, 2.0))
def test_double_power_solves_within_sweep_budget(mu1, mu2, log_m):
    M = 10.0 ** log_m
    ss, _ = _counted_solve(CasimirModel.double_power(mu1, mu2), M, 128)
    _assert_converged(ss, M)
    assert np.all(ss.rho0.values >= 0.0)
    assert ss.iterations <= _SWEEP_BUDGET


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.2, 0.95), min_size=2, max_size=2,
                unique=True).map(sorted),
       st.floats(np.log(0.3), np.log(3.0)).map(np.exp))
def test_inexact_sweeps_match_cold_full_sweeps(mus, M):
    # the reference drops each seed, so every evaluation starts cold and runs
    # to the full tolerance; both solves stop at |A - 1| < _OUTER_TOL, so
    # their edge radii differ by up to twice _OUTER_TOL over the log-log
    # slope of A(R), at least 1 - mu2, and E0 moves as 1/R with them: over
    # 1800 draws on 10 seeds at n=128 the worst E0 defect was 0.53 of that
    model = CasimirModel.double_power(*mus)
    sweep, ends = steady._inner_sweep, []

    def recorded(*args, **kwargs):
        ends.append(sweep(*args, **kwargs))
        return ends[-1]

    def cold(inv, op, grid, M, R, seed=None):
        return sweep(inv, op, grid, M, R)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(steady, "_inner_sweep", recorded)
        ss = solve(model, M, SolverOptions(n=128))
        mp.setattr(steady, "_inner_sweep", cold)
        ref = solve(model, M, SolverOptions(n=128))
    _, _, _, A, res, _ = ends[-1]
    assert res <= steady._RESIDUAL_TOL and abs(A - 1.0) < steady._OUTER_TOL
    tol = 2.0 * steady._OUTER_TOL / (1.0 - mus[1])
    assert abs(ss.E0 - ref.E0) <= tol * abs(ref.E0)


def _damped_sweep(inv, op, grid, M, R, seed=None):
    """The damped inner sweep that Anderson mixing replaced, as a reference.

    Always starts cold, from the Kuzmin disc of scale R/3, and steps
    rho <- (rho + map(rho)) / 2 until the residual is 1e-11.
    """
    r, ringw = grid.nodes, grid.ring_weights
    rho = (1.0 + (3.0 * r / R) ** 2) ** -1.5
    rho *= M / np.sum(ringw * rho)
    for it in range(1, 401):
        U = op.potential(rho)
        E0 = float(np.interp(R, r, U))
        raw = 2.0 * np.pi * inv.G(E0 - U)
        A = M / float(np.sum(ringw * raw))
        rho_map = A * raw
        res = float(np.max(np.abs(rho_map - rho)) / np.max(rho_map))
        if res <= 1e-11:
            return rho_map, U, E0, A, res, it
        rho = 0.5 * rho + 0.5 * rho_map
    raise ConvergenceError(f"reference sweep: residual {res:.3e} at R={R:g}")


def _f_cubed_table():
    f = np.linspace(0.0, 6.0, 200)[1:]
    return CasimirModel.custom(f, f ** 3, F0=1.0, mu1=0.5, mu2=0.5, mu3=0.5)


@pytest.mark.parametrize("make_model", [
    lambda: CasimirModel.polytrope(0.5, c=57.0),
    lambda: CasimirModel.polytrope(0.75, mu3=0.5),
    lambda: CasimirModel.double_power(0.5, 0.75),
    _f_cubed_table,
], ids=["c57", "mu0.75", "double_power", "f_cubed_table"])
def test_anderson_sweep_matches_damped_reference(monkeypatch, make_model):
    model = make_model()
    ss = solve(model, 0.01, SolverOptions(n=192))
    monkeypatch.setattr(steady, "_inner_sweep", _damped_sweep)
    ref = solve(model, 0.01, SolverOptions(n=192))
    assert abs(ss.E0 - ref.E0) <= 1e-9 * abs(ref.E0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", [0.999, 0.995])
def test_state_past_float64_is_convergence_error(mu):
    # the edge radius is near 1e-1000 at mu = 0.999: the secant step leaves
    # float64; near 1e-200 at mu = 0.995: the trial grid's ring weights do
    with pytest.raises(ConvergenceError, match="float64"):
        solve(CasimirModel.polytrope(mu), 1.0, SolverOptions(n=128))


def test_renormalization_that_ignores_r_stalls(monkeypatch, poly_half):
    sweep = steady._inner_sweep

    def deaf(*args, **kwargs):
        rho, U, E0, A, res, it = sweep(*args, **kwargs)
        return rho, U, E0, 2.0, res, it

    monkeypatch.setattr(steady, "_inner_sweep", deaf)
    with pytest.raises(ConvergenceError, match="stalled"):
        solve(poly_half, 1.0, SolverOptions(n=128))
