import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatsteady import (CasimirModel, FlatPotentialOperator, RadialGrid,
                        RadialProfile, SolverOptions, density_from_potential,
                        evaluate_steady, regularity_report,
                        scaling_inequality_check, solve, steady)
from flatsteady.cli import main
from flatsteady.potential import operator_for
from flatsteady.errors import ConvergenceError, GridTooSmallError, InputError


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


@pytest.mark.parametrize("M", [np.nan, np.inf])
def test_solver_rejects_a_non_finite_mass(poly_half, M):
    # such a mass used to reach the solver loop and fail there as a grid
    # past the float64 range (ConvergenceError)
    with pytest.raises(InputError, match="finite and positive"):
        solve(poly_half, M)


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


# -- the solver loop at the edges of the model family ----------------------

def _recorded_matvecs(monkeypatch):
    """Patches FlatPotentialOperator.potential to append to the list it
    returns at each call."""
    calls, potential = [], FlatPotentialOperator.potential

    def recorded(self, rho):
        calls.append(rho.size)
        return potential(self, rho)

    monkeypatch.setattr(FlatPotentialOperator, "potential", recorded)
    return calls


def _counted_solve(model, M, n):
    """solve(model, M) on the n-node solver grid from a cold canonical
    cache, left cold after; checks that the state's ``iterations`` counts
    the loop's passes, one potential matvec each."""
    with pytest.MonkeyPatch.context() as mp:
        matvecs = _recorded_matvecs(mp)
        steady._canonical.cache_clear()
        try:
            ss = solve(model, M, SolverOptions(n=n))
        finally:
            steady._canonical.cache_clear()
    assert ss.iterations == len(matvecs)
    return ss


def _assert_converged(ss, M):
    assert np.isfinite(ss.E0) and ss.E0 < 0.0
    assert abs(ss.mass - M) <= 1e-9 * M
    # rho0 is the mapped density times A, so the residual reads |A - 1| / A
    assert ss.residual <= 1.01 * steady._OUTER_TOL


# a polytrope takes its (c = 1, M = 1) solve's iterations, which depend on
# mu and n alone: at most 24 over 1001 mu in [0.85, 0.95] at n = 96 and 128
# (near mu = 0.94) and 22 at n = 192 and 384; the property below took at
# most 24 under --hypothesis-seed 1-10 (1000 examples), as did 425 random
# polytropes over the same box at n = 96, 128 and 384 (numpy seeds 11-15)
_POLYTROPE_BUDGET = 25


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(-2.0, 4.0), st.floats(-2.0, 2.0))
def test_polytrope_solves_within_iteration_budget(mu, log_c, log_m):
    # one power term has A ~ R^(mu - 1) exactly, so the log R update is a
    # Newton step and the density sets the pace
    M = 10.0 ** log_m
    ss = _counted_solve(CasimirModel.polytrope(mu, c=10.0 ** log_c), M, 128)
    _assert_converged(ss, M)
    assert ss.iterations <= _POLYTROPE_BUDGET


@pytest.mark.parametrize("mu,c,M", [(0.8, 0.01, 1.0), (0.95, 57.0, 0.01)])
def test_polytrope_far_from_unit_scales_converges(mu, c, M):
    # E0 = -3.9e12 and R = 9.3e51: no absolute bracket holds these states
    ss = _counted_solve(CasimirModel.polytrope(mu, c=c), M, 192)
    _assert_converged(ss, M)
    assert ss.iterations <= _POLYTROPE_BUDGET


@pytest.mark.parametrize("mus", [(0.1, 0.9), (0.9, 0.2)])
@pytest.mark.parametrize("M", [0.01, 100.0])
def test_double_power_extreme_mass_converges(mus, M):
    _assert_converged(_counted_solve(CasimirModel.double_power(*mus), M, 192), M)


# the property below took at most 26 iterations under --hypothesis-seed
# 1-10 (400 examples); 425 random double powers over the same box at n = 96,
# 128 and 384 (numpy seeds 11-15) took at most 25, and 2400 with mu1 in
# [0.85, 0.95], a third of them at 0.95, at n = 96 and 128 (seeds 51-53) at
# most 50; the two-loop solver this one replaced took up to 73 sweeps
_SWEEP_BUDGET = 110


@pytest.mark.parametrize("model,budget", [
    (CasimirModel.polytrope(0.5, c=57.0), 20),
    (CasimirModel.double_power(0.5, 0.75), 25),
], ids=["c57", "double_power"])
def test_undamped_sweeps_stay_within_count(model, budget):
    # 16 and 16 iterations; the two-loop solver took 16 and 45 sweeps
    ss = _counted_solve(model, 1.0, 384)
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
    ss = _counted_solve(CasimirModel.double_power(mu1, mu2), M, 128)
    _assert_converged(ss, M)
    assert np.all(ss.rho0.values >= 0.0)
    assert ss.iterations <= _SWEEP_BUDGET


# -- a two-loop reference: an outer secant on R over cold inner sweeps -------

def _cold_sweep(inv, op, grid, M, R, anderson):
    """(E0, A) of the edge-pinned, mass-renormalized fixed point at edge
    radius R, from a Kuzmin disc of scale R/3.

    With ``anderson`` it mixes as ``solve`` does, restarting the history
    whenever the residual grows, to the residual _RESIDUAL_TOL; without, it
    steps rho <- (rho + map(rho)) / 2 to the residual 1e-11.
    """
    r, ringw = grid.nodes, grid.ring_weights
    rho = (1.0 + (3.0 * r / R) ** 2) ** -1.5
    rho *= M / np.sum(ringw * rho)
    hist, prev = [], None
    for _ in range(400):
        U = op.potential(rho)
        E0 = float(np.interp(R, r, U))
        raw = 2.0 * np.pi * inv.G(E0 - U)
        A = M / float(np.sum(ringw * raw))
        f = A * raw - rho
        res = float(np.max(np.abs(f)) / np.max(A * raw))
        if res <= (steady._RESIDUAL_TOL if anderson else 1e-11):
            return E0, A
        if not anderson:
            rho = rho + 0.5 * f
            continue
        grew = prev is not None and res > prev[2]
        hist = [] if grew or prev is None else (
            hist + [(rho - prev[0], f - prev[1])])[-steady._MEMORY:]
        prev = rho, f, res
        d_rho, d_res = (np.array([h[k] for h in hist]).reshape(-1, r.size)
                        for k in (0, 1))
        rho = np.maximum(rho + steady._anderson_step(f, d_rho, d_res), 0.0)
    raise ConvergenceError(f"reference sweep: residual {res:.3e} at R={R:g}")


def _two_loop_solve(model, M, n, anderson):
    """E0 of the solver the one loop replaced: the log-log secant on the
    edge radius R, from a first jump R*A^2 off R = 1, drives A(R) to
    |A - 1| < _OUTER_TOL, with a cold sweep on the grid 5R times the solver
    grid's shape at each trial R."""
    inv, unit = model.inverse(), steady._unit_shape(n)
    R, prev = 1.0, None
    for _ in range(40):
        grid = RadialGrid(5.0 * R * unit.nodes)
        E0, A = _cold_sweep(inv, operator_for(grid), grid, M, R, anderson)
        if abs(A - 1.0) < steady._OUTER_TOL:
            return E0
        step = (2.0 * np.log(A) if prev is None else
                -np.log(A) * np.log(R / prev[0]) / np.log(A / prev[1]))
        prev, R = (R, A), R * np.exp(step)
    raise ConvergenceError(f"reference: |A - 1| = {abs(A - 1.0):.3e} at R={R:g}")


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.2, 0.95), min_size=2, max_size=2,
                unique=True).map(sorted),
       st.floats(np.log(0.3), np.log(3.0)).map(np.exp))
def test_one_loop_matches_two_loop_reference(mus, M):
    # both solves stop at |A - 1| < _OUTER_TOL, so their edge radii differ
    # by up to twice _OUTER_TOL over the log-log slope of A(R), at least
    # 1 - mu2, and E0 moves as 1/R with them
    model = CasimirModel.double_power(*mus)
    ss = solve(model, M, SolverOptions(n=128))
    tol = 2.0 * steady._OUTER_TOL / (1.0 - mus[1])
    assert abs(ss.E0 - _two_loop_solve(model, M, 128, anderson=True)) <= tol * abs(ss.E0)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.2, 0.95), st.floats(0.0, 4.0).map(np.exp),
       st.floats(np.log(0.3), np.log(3.0)).map(np.exp))
def test_polytrope_is_the_image_of_its_unit_state(mu, c, M):
    # a double power with two equal terms is the same Q, which the loop
    # solves directly: both stop at |A - 1| < _OUTER_TOL, so E0 and D agree
    # to 2*_OUTER_TOL over the slope 1 - mu of A(R) (at most 3.6e-13 and
    # 8.5e-13 times 1 - mu over 40 draws, numpy seed 7)
    model = CasimirModel.polytrope(mu, c=c)
    ss = solve(model, M, SolverOptions(n=192))
    twin = CasimirModel.double_power(mu, mu, c / 2.0, c / 2.0)
    ss_twin = solve(twin, M, SolverOptions(n=192))
    tol = 2.0 * steady._OUTER_TOL / (1.0 - mu)
    assert abs(ss.E0 - ss_twin.E0) <= tol * abs(ss.E0)
    d, d_twin = evaluate_steady(model, ss).d, evaluate_steady(twin, ss_twin).d
    assert abs(d - d_twin) <= tol * abs(d)
    # and it is nu^2 times the (c = 1, M = 1) state, which its iterations
    # are; nu^2 carries pow's rounding times 1/(1 - mu) (at most 2.4 ulps
    # times that over 300 draws at n = 96, numpy seed 8)
    unit = solve(CasimirModel.polytrope(mu), 1.0, SolverOptions(n=192))
    nu2 = (M * c ** -mu) ** (1.0 / (1.0 - mu))
    eps = np.finfo(float).eps
    assert abs(ss.E0 - nu2 * unit.E0) <= 8.0 * eps / (1.0 - mu) * abs(ss.E0)
    assert ss.iterations == unit.iterations


def _f_cubed_table():
    f = np.linspace(0.0, 6.0, 200)[1:]
    return CasimirModel.custom(f, f ** 3, F0=1.0, mu1=0.5, mu2=0.5, mu3=0.5)


@pytest.mark.parametrize("make_model", [
    lambda: CasimirModel.polytrope(0.5, c=57.0),
    lambda: CasimirModel.polytrope(0.75, mu3=0.5),
    lambda: CasimirModel.double_power(0.5, 0.75),
    _f_cubed_table,
], ids=["c57", "mu0.75", "double_power", "f_cubed_table"])
def test_anderson_sweep_matches_damped_reference(make_model):
    model = make_model()
    ss = solve(model, 0.01, SolverOptions(n=192))
    ref = _two_loop_solve(model, 0.01, 192, anderson=False)
    assert abs(ss.E0 - ref) <= 1e-9 * abs(ref)


# -- one canonical solve per (mu, n) ----------------------------------------

def _bits(ss):
    return (ss.E0, ss.iterations, ss.rho0.values.tobytes(),
            ss.U0.values.tobytes(), ss.grid.nodes.tobytes())


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 4.0).map(np.exp),
       st.floats(np.log(0.3), np.log(3.0)).map(np.exp))
def test_a_cache_hit_equals_a_miss_bit_for_bit(c, M):
    # the miss runs the loop for this (c, M); the hit maps the entry that a
    # (c = 1, M = 1) solve left
    model, opts = CasimirModel.polytrope(0.6, c=c), SolverOptions(n=96)
    steady._canonical.cache_clear()
    miss = solve(model, M, opts)
    steady._canonical.cache_clear()
    solve(CasimirModel.polytrope(0.6), 1.0, opts)
    hit = solve(model, M, opts)
    assert steady._canonical.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert _bits(hit) == _bits(miss)


def test_a_cache_hit_runs_no_matvec_and_looks_up_no_operator(monkeypatch,
                                                             cold_cache):
    opts = SolverOptions(n=96)
    solve(CasimirModel.polytrope(0.6), 1.0, opts)
    matvecs, lookups = _recorded_matvecs(monkeypatch), []
    monkeypatch.setattr(steady, "operator_for",
                        lambda grid: lookups.append(grid) or operator_for(grid))
    ss = solve(CasimirModel.polytrope(0.6, c=3.0), 2.0, opts)
    assert matvecs == [] and lookups == []
    _assert_converged(ss, 2.0)


def test_writing_into_a_state_leaves_the_next_solve(cold_cache):
    # at c = 1, M = 1 the image is the identity map of the cached state
    model, opts = CasimirModel.polytrope(0.6), SolverOptions(n=96)
    first = solve(model, 1.0, opts)
    bits = _bits(first)
    first.rho0.values[:] = 1.0
    first.U0.values[:] = -1.0
    first.grid.nodes[:] = 0.0
    assert _bits(solve(model, 1.0, opts)) == bits
    grid1, _, _, U, rho_map, _ = steady._canonical(0.6, 96)
    for a in (grid1.nodes, U, rho_map):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_an_image_past_float64_leaves_its_entry_valid(cold_cache):
    opts = SolverOptions(n=128)
    with pytest.raises(ConvergenceError, match="float64"):
        solve(CasimirModel.polytrope(0.5, c=1e300), 1.0, opts)
    hit = solve(CasimirModel.polytrope(0.5), 1.0, opts)
    assert steady._canonical.cache_info()[:2] == (1, 1)
    _assert_converged(hit, 1.0)
    cold_cache()
    assert _bits(solve(CasimirModel.polytrope(0.5), 1.0, opts)) == _bits(hit)


def test_the_cache_stays_within_its_bound(cold_cache):
    size = steady._canonical.cache_parameters()["maxsize"]
    for mu in np.linspace(0.3, 0.7, size + 4):
        solve(CasimirModel.polytrope(float(mu)), 1.0, SolverOptions(n=64))
    info = steady._canonical.cache_info()
    assert (info.misses, info.currsize) == (size + 4, size)


def test_scaling_check_on_a_polytrope_runs_one_loop(monkeypatch, cold_cache):
    # both masses are images of one canonical solve: a cold check makes that
    # solve's matvecs more than a warm one, not twice as many
    matvecs = _recorded_matvecs(monkeypatch)
    model, opts = CasimirModel.polytrope(0.5, c=57.0), SolverOptions(n=128)
    counts = []
    for _ in range(2):
        matvecs.clear()
        assert scaling_inequality_check(model, 0.5, 1.0, opts)["holds"]
        counts.append(len(matvecs))
    assert counts[0] - counts[1] == steady._canonical(0.5, 128)[-1] > 0


# -- the ways a solve fails --------------------------------------------------

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu,c,M", [
    pytest.param(0.999, 1.0, 1.0, id="0.999"),
    pytest.param(0.995, 1.0, 1.0, id="0.995"),
    (0.95, 1e-300, 1.0), (0.95, 1e300, 1.0), (0.5, 1e300, 1e-300),
    (0.9, 1e-200, 1e200),
])
def test_state_past_float64_is_convergence_error(mu, c, M):
    # the edge radius is near 1e-1000 at mu = 0.999 and near 1e-200 at
    # mu = 0.995: a log R step leaves float64 on the way to either; the
    # others solve at c = 1, M = 1, and their image's nu^2 (and so R or
    # sigma) leaves it, which the message gives as a finite log
    with pytest.raises(ConvergenceError, match="float64") as err:
        solve(CasimirModel.polytrope(mu, c=c), M, SolverOptions(n=128))
    assert "nan" not in str(err.value)
    if c != 1.0:
        assert re.search(r"nu\^2 = e\^-?\d", str(err.value))


@pytest.mark.parametrize("name,value,error,message", [
    ("_MAX_SWEEPS", 3, ConvergenceError, "no convergence in 3 iterations"),
    # a step against the density residual makes it grow at every pass
    ("_anderson_step", lambda f, *_: np.append(-0.1 * f[:-1], f[-1]),
     ConvergenceError, "grew for 10 consecutive iterations"),
    # a solver grid that ends at the edge radius: the support reaches it
    ("_unit_shape", lambda n: RadialGrid.hybrid(0.05, 0.2, n),
     GridTooSmallError, r"edge radius R=0\.0175389,"),
], ids=["iteration_cap", "growth", "grid_too_small"])
def test_failed_solve_raises_and_the_cli_writes_nothing(
        monkeypatch, tmp_path, capsys, cold_cache, poly_half, name, value,
        error, message):
    monkeypatch.setattr(steady, name, value)
    with pytest.raises(error, match=message):
        solve(poly_half, 1.0, SolverOptions(n=128))
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\nkind = polytrope\nmu = 0.5\n[solver]\nn = 128\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert list(out.iterdir()) == []
