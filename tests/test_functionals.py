import dataclasses
import functools
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatsteady import (CasimirModel, FunctionalReport, RadialGrid,
                        RadialProfile, ScalingParams, SolverOptions,
                        SteadyState, solve,
                        evaluate_ensemble, evaluate_steady, lp_norm,
                        rescale_steady, sample, scaling_inequality_check,
                        split_diagnostic, stability_distance)
from flatsteady.casimir import _velocity_moments
from flatsteady.functionals import (_bin, _ensemble_row, _phase_histogram,
                                    _radius, alpha_from_mu3,
                                    proof_scaling_params)
from flatsteady.potential import operator_for
from flatsteady.simulate import ParticleEnsemble
from flatsteady.errors import InputError


@pytest.fixture(scope="module")
def report_half(poly_half, ss_half):
    return evaluate_steady(poly_half, ss_half)


def test_report_structure(report_half):
    rep = report_half
    assert rep.p == rep.e_kin + rep.casimir
    assert rep.d == rep.p + rep.e_pot
    assert rep.e_kin >= 0.0 and rep.casimir >= 0.0 and rep.e_pot <= 0.0


@pytest.mark.parametrize("field", ["mass", "e_kin", "e_pot", "casimir"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_report_rejects_non_finite_fields(field, value):
    values = {"mass": 1.0, "e_kin": 0.5, "e_pot": -1.0, "casimir": 0.25}
    values[field] = value
    with pytest.raises(InputError, match=field):
        FunctionalReport(**values)


def test_minimizer_has_negative_d(report_half):
    assert report_half.d < 0.0


def test_virial_identity(report_half):
    assert abs(2.0 * report_half.e_kin + report_half.e_pot) <= 0.01 * abs(report_half.e_pot)


def test_report_json_schema(report_half):
    out = report_half.to_dict(checks=[{"name": "x", "lhs": 1.0, "rhs": 2.0,
                                       "pass": True}])
    assert set(out) == {"mass", "e_kin", "e_pot", "casimir", "p", "d", "checks"}


def test_evaluate_rejects_unconverged(poly_half, ss_half):
    # rho0 and U0 with an E0 moved by 1% are no fixed point of the map
    bad = dataclasses.replace(ss_half, E0=1.01 * ss_half.E0)
    assert bad.residual > 1e-6
    with pytest.raises(InputError, match="not a converged steady state"):
        evaluate_steady(poly_half, bad)


def test_identity_scaling(poly_half, ss_half):
    res = rescale_steady(ss_half, ScalingParams(1.0, 1.0, 1.0))
    for key in ("mass", "e_kin", "e_pot", "casimir"):
        assert res["predicted"][key] == pytest.approx(res["base"][key], rel=1e-12)
        assert res["direct"][key] == pytest.approx(res["base"][key], rel=1e-9)


def test_mass_scaling_quarter(poly_half, ss_half):
    # a = 1, b = 2, c = 1 sends the mass to M/4
    res = rescale_steady(ss_half, ScalingParams(1.0, 2.0, 1.0))
    assert res["predicted"]["mass"] == pytest.approx(0.25, rel=1e-12)
    assert res["direct"]["mass"] == pytest.approx(0.25, rel=1e-9)


def test_alpha_and_proof_params():
    assert alpha_from_mu3(0.5) == pytest.approx(2.0)
    p = proof_scaling_params(0.5, 0.5)
    # m * a^(1/mu3) = m * c^(-2) = m^2 * b and a b^-2 c^-2 = m
    m = 0.5
    assert m * p.a ** (1.0 / 0.5) == pytest.approx(m * p.c ** -2.0, rel=1e-12)
    assert m * p.a ** (1.0 / 0.5) == pytest.approx(m ** 2 * p.b, rel=1e-12)
    assert p.a * p.b ** -2.0 * p.c ** -2.0 == pytest.approx(m, rel=1e-12)
    assert p.a <= 1.0


@pytest.mark.parametrize("mu3", [1e-12, 1e-17])
def test_proof_params_at_small_mu3(mu3):
    # b and c formed from a^(1/mu3) carried a's rounding error times 1/mu3
    # (b = 2 and c = 1 at mu3 = 1e-17); against the closed forms at 30 digits
    m = 0.5
    p = proof_scaling_params(m, mu3)
    with mpmath.workdps(30):
        a = mpmath.mpf(m) ** (mpmath.mpf(mu3) / (1 - mpmath.mpf(mu3)))
        c = mpmath.mpf(m) ** (-0.5 / (1 - mpmath.mpf(mu3)))
        for got, ref in ((p.a, a), (p.b, a), (p.c, c)):
            assert abs(got - ref) <= 1e-15 * ref
    assert p.a * p.b ** -2.0 * p.c ** -2.0 == pytest.approx(m, rel=1e-15)
    # mu3 = 1/2 keeps its bits: a = b = m and c = 1/m
    assert proof_scaling_params(m, 0.5) == ScalingParams(0.5, 0.5, 2.0)


def test_scaling_inequality_trivial_at_equal_masses(poly_half):
    rep = scaling_inequality_check(poly_half, 1.0, 1.0, SolverOptions(n=192))
    assert rep["holds"]
    assert rep["margin"] == pytest.approx(0.0, abs=1e-9 * abs(rep["d_m2"]))


def test_scaling_inequality_strict_for_smaller_mu3():
    model = CasimirModel.polytrope(0.75, c=1.0, mu3=0.5)
    rep = scaling_inequality_check(model, 0.5, 1.0, SolverOptions(n=192))
    assert rep["holds"] and rep["proof_holds"]
    assert rep["margin"] >= 1e-4
    assert rep["rescaled_mass"] == pytest.approx(0.5, rel=1e-8)


def test_split_partitions_mass(ss_half):
    rep = split_diagnostic(ss_half, 0.5 * ss_half.support_radius)
    assert rep["interior_mass"] + rep["exterior_mass"] == pytest.approx(
        ss_half.mass, abs=1e-10)
    assert rep["mixed_term"] < 0.0


def test_split_beyond_support(ss_half):
    rep = split_diagnostic(ss_half, 2.0 * ss_half.support_radius)
    assert rep["exterior_mass"] == 0.0
    assert rep["mixed_term"] == 0.0


@pytest.mark.parametrize("R,C", [(np.nan, None), (np.inf, None),
                                 (0.0, None), (-1.0, None), (0.5, np.nan),
                                 (0.5, np.inf)])
def test_split_rejects_a_radius_or_constant_that_is_not_finite(ss_half, R, C):
    # a NaN radius gave implied_C NaN and exterior mass 1, a NaN C a NaN
    # bound_rhs
    with pytest.raises(InputError, match="^split: "):
        split_diagnostic(ss_half, R, C=C)


def test_split_bound_with_generous_constant(ss_half):
    rep = split_diagnostic(ss_half, 0.5 * ss_half.support_radius, C=None)
    rep2 = split_diagnostic(ss_half, 0.5 * ss_half.support_radius,
                            C=2.0 * rep["implied_C"])
    assert rep2["bound_holds"]


def _random_density(ss, seed, scale):
    """A non-negative density on ss's nodes, zero on about a quarter of them."""
    rng = np.random.default_rng(seed)
    rho = scale * np.max(ss.rho0.values) * rng.random(ss.grid.n)
    return np.where(rng.random(ss.grid.n) < 0.25, 0.0, rho)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e3))
def test_bilinearity(ss_half, seed, scale):
    # E_pot(rho1 + rho2) = E_pot(rho1) + E_pot(rho2) + int rho1 U_rho2
    op = operator_for(ss_half.grid)
    rho1 = ss_half.rho0.values
    rho2 = _random_density(ss_half, seed, scale)
    lhs = op.potential_energy(rho1 + rho2)
    rhs = (op.potential_energy(rho1) + op.potential_energy(rho2)
           + op.interaction_energy(rho1, rho2))
    assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


def test_lower_bound_calibrated(report_half):
    # D >= P - C_M (1 + P^(n1/2)) with n1 = 1 + mu1 = 3/2, at the empirical
    # C_M that makes the coercivity bound tight for this state
    p = report_half.p
    c_m = (p - report_half.d) / (1.0 + p ** 0.75)
    assert c_m > 0.0
    rhs = p - c_m * (1.0 + p ** 0.75)
    assert report_half.d >= rhs - 1e-12 * max(abs(rhs), 1.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e3),
       st.floats(0.0, 1.0))
def test_interpolation_inequality(ss_half, seed, scale, mu1):
    # ||rho||_{4/3} <= ||rho||_1^(1-theta) ||rho||_q^theta with q = 1 + 1/n1,
    # n1 = 1 + mu1 and 3/4 = (1 - theta) + theta/q: log-convexity of the
    # Lp norms
    q = 1.0 + 1.0 / (1.0 + mu1)
    theta = 0.25 / (1.0 - 1.0 / q)
    for rho in (ss_half.rho0.values, _random_density(ss_half, seed, scale)):
        prof = RadialProfile(ss_half.grid, rho)
        lhs = lp_norm(prof, 4.0 / 3.0)
        rhs = lp_norm(prof, 1.0) ** (1.0 - theta) * lp_norm(prof, q) ** theta
        assert lhs <= rhs * (1.0 + 1e-10)


def test_ensemble_matches_steady(poly_wide, ss_wide):
    ens = sample(ss_wide, 400_000, seed=2)
    rep_e = evaluate_ensemble(poly_wide, ens, grid=ss_wide.grid)
    rep_s = evaluate_steady(poly_wide, ss_wide)
    for key in ("mass", "e_kin", "e_pot", "casimir"):
        a, b = getattr(rep_e, key), getattr(rep_s, key)
        assert a == pytest.approx(b, rel=0.02), key


def test_single_particle_zero_epot(poly_wide, ss_wide):
    ens = ParticleEnsemble(np.array([[0.3, 0.0]]), np.array([[0.0, 0.1]]),
                           np.array([1e-6]))
    rep = evaluate_ensemble(poly_wide, ens, grid=ss_wide.grid)
    # the self-energy cancels the deposit's energy only up to rounding: an
    # exact 0 rested on the sign of a one-ulp difference
    e_dep = operator_for(ss_wide.grid).potential_energy(
        _bin(ss_wide.grid, ens.positions, ens.weights).rho)
    assert -1e-15 * abs(e_dep) <= rep.e_pot <= 0.0


def test_particle_at_the_origin_has_a_finite_casimir(poly_wide):
    # its constant columns are widened by 1/2 each way; the one ring is cut
    # at r = 0, so the cell is pi*(1/2)^2 in r times 1 in w
    m = 1e-3
    ens = ParticleEnsemble(np.zeros((1, 2)), np.array([[0.0, 0.1]]),
                           np.array([m]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = evaluate_ensemble(poly_wide, ens)
    vol = 2.0 * np.pi * (np.pi * 0.25)
    assert rep.casimir == pytest.approx(poly_wide.Q(m / vol) * vol, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi), st.floats(-8.0, 2.0))
def test_single_particle_self_energy_is_its_deposit_energy(r, phi, log_m):
    # a lone particle's deposit energy is its self-energy up to rounding,
    # wherever it sits in its cell and whatever its mass; against a state
    # with rho0 = 0 the row's epot_diff is that difference, unclamped
    grid = RadialGrid.hybrid(0.75, 1.0, 192)
    x = np.array([[r * np.cos(phi), r * np.sin(phi)]])
    m = np.array([10.0 ** log_m])
    binned = _bin(grid, x, m)
    e_dep = operator_for(grid).potential_energy(binned.rho)
    model = CasimirModel.polytrope(0.5)
    zero = RadialProfile(grid, np.zeros(grid.n))
    empty = SteadyState(model=model, E0=-1.0, rho0=zero, U0=zero, iterations=0)
    ens = ParticleEnsemble(x, np.zeros_like(x), m)
    row, _ = _ensemble_row(model, ens, binned, empty)
    assert abs(row["epot_diff"]) <= 1e-13 * abs(e_dep)


def test_weight_homogeneity(poly_wide, ss_wide):
    with pytest.warns(UserWarning):
        ens = sample(ss_wide, 500, seed=4)
    doubled = ParticleEnsemble(ens.positions, ens.velocities, 2.0 * ens.weights)
    r1 = evaluate_ensemble(poly_wide, ens, grid=ss_wide.grid)
    r2 = evaluate_ensemble(poly_wide, doubled, grid=ss_wide.grid)
    assert r2.mass == pytest.approx(2.0 * r1.mass, rel=1e-12)
    assert r2.e_kin == pytest.approx(2.0 * r1.e_kin, rel=1e-12)
    assert r2.e_pot == pytest.approx(4.0 * r1.e_pot, rel=1e-9)


def test_empty_ensemble_rejected(poly_wide):
    empty = ParticleEnsemble(np.empty((0, 2)), np.empty((0, 2)), np.empty(0))
    with pytest.raises(InputError):
        evaluate_ensemble(poly_wide, empty)


def test_far_particle_row_is_finite(poly_wide, ss_wide):
    # one particle at 1e200: Scott's rule, the ring areas and Q(f_hat)*vol
    # all leave the float range, and no cell may turn the row into NaN
    ens = sample(ss_wide, 5000, seed=3)
    x = ens.positions.copy()
    x[0] = [1e200, 0.0]
    far = ParticleEnsemble(x, ens.velocities, ens.weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        row, _ = _ensemble_row(poly_wide, far,
                               _bin(ss_wide.grid, x, far.weights), ss_wide)
        assert stability_distance(ss_wide, far) == \
            (row["d_dist"], row["epot_diff"])
        rep = evaluate_ensemble(poly_wide, far, grid=ss_wide.grid)
    assert all(np.isfinite(v) for v in row.values())
    assert (rep.casimir, rep.e_pot) == (row["casimir"], row["e_pot"])
    # every occupied cell's volume overflows: each contributes its limit 0
    assert row["casimir"] == 0.0
    # Scott's rule on the radii uses their exact std, as if scaled by 2^-700
    hist, _, _ = _phase_histogram(_radius(x), np.ones(far.n), far.weights)
    sig = np.std(_radius(x) * 2.0 ** -700) * 2.0 ** 700
    assert hist.shape[0] == np.ceil(1e200 / (sig * far.n ** (-1.0 / 6.0)))


@pytest.mark.parametrize("r_far", [4e103, 1e200])
def test_far_particle_without_a_grid_asks_for_one(poly_wide, ss_wide, r_far):
    # the automatic grid reaches 1.5 * r_far, and its energy form (ring
    # weights times r_max) leaves float64 near r_far = 1e103; at 1e103 the
    # ensemble still scores
    ens = sample(ss_wide, 5000, seed=3)
    x = ens.positions.copy()
    x[0] = [1e103, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        evaluate_ensemble(poly_wide, ParticleEnsemble(x, ens.velocities,
                                                      ens.weights))
        x[0] = [r_far, 0.0]
        far = ParticleEnsemble(x, ens.velocities, ens.weights)
        with pytest.raises(InputError, match=re.escape(f"radius {r_far:g}")):
            evaluate_ensemble(poly_wide, far)


def test_runaway_velocity_raises_input_error(poly_wide, ss_wide):
    # |v|^2/2 overflows to inf: the w column is rejected by name, before
    # numpy can warn about the square or Scott's rule can turn NaN
    ens = sample(ss_wide, 5000, seed=3)
    v = ens.velocities.copy()
    v[0] = [1e200, 0.0]
    fast = ParticleEnsemble(ens.positions, v, ens.weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InputError, match="non-finite w column"):
            stability_distance(ss_wide, fast)
        with pytest.raises(InputError, match="non-finite w column"):
            evaluate_ensemble(poly_wide, fast, grid=ss_wide.grid)


def test_stability_distance_consistency(poly_wide, ss_wide):
    ens = sample(ss_wide, 200_000, seed=9)
    d, epot_diff = stability_distance(ss_wide, ens)
    rep_e = evaluate_ensemble(poly_wide, ens, grid=ss_wide.grid)
    rep_s = evaluate_steady(poly_wide, ss_wide)
    # D(f) - D(f0) = d + E_pot(rho_f - rho0) within combined tolerances
    lhs = rep_e.d - rep_s.d
    assert lhs == pytest.approx(d + epot_diff, abs=0.02 * abs(rep_s.d))
    # near-exact sample: d small and nonnegative up to Monte-Carlo noise
    assert d >= -0.01 * abs(rep_s.d)
    assert abs(d) < 0.05 * abs(rep_s.d)


def _states(poly_wide, ss_wide):
    """A polytrope, a double-power and a custom-table state."""
    dp = CasimirModel.double_power(0.4, 0.9, 1.0, 0.5, F0=2.0)
    f = np.linspace(0.0, 6.0, 200)
    custom = CasimirModel.custom(f, f ** 3, F0=1.0, mu1=0.5, mu2=0.5, mu3=0.5)
    return [(poly_wide, ss_wide), (dp, solve(dp, 1.0, SolverOptions(n=192))),
            # the custom model on the polytrope's potential: the sums need
            # only E0, U0 and q, not a self-consistent state (its residual
            # is above evaluate_steady's cap)
            (custom, dataclasses.replace(ss_wide, model=custom))]


def test_moment_sums_match_inline_expressions(poly_wide, ss_wide):
    # the ring sums the functionals built inline before SteadyState.moments;
    # evaluate_steady reads them from the two self-consistent states
    for model, ss in _states(poly_wide, ss_wide):
        inv, ringw = ss.inv, ss.grid.ring_weights
        s = np.maximum(ss.s_values, 0.0)
        e_kin = float(np.sum(ringw * 2.0 * np.pi * inv.G2(s)))
        c_f0 = float(np.sum(ringw * 2.0 * np.pi
                            * (s * inv.G(s) - 2.0 * inv.G2(s))))
        e_moment_f0 = float(np.sum(ringw * 2.0 * np.pi
                                   * (inv.G2(s) - s * inv.G(s))))
        assert ss.moments == (e_kin, c_f0, e_moment_f0)
        if model.kind != "custom":
            rep = evaluate_steady(model, ss)
            assert (rep.e_kin, rep.casimir) == (e_kin, c_f0)

        ens = sample(ss, 2000, seed=5)
        binned = _bin(ss.grid, ens.positions, ens.weights)
        row, _ = _ensemble_row(model, ens, binned, ss)
        w, v = ens.weights, ens.velocities
        e_kin = 0.5 * float(np.sum(w * (np.square(v[:, 0]) + np.square(v[:, 1]))))
        assert row["e_kin"] == e_kin
        e_moment_f = ((e_kin - ss.E0 * float(np.sum(w)))
                      + float(binned.node_mass @ ss.U0.values))
        assert row["d_dist"] == (row["casimir"] - c_f0) + (e_moment_f - e_moment_f0)


# -- the minimizer property on phase-space densities -------------------------

_THEOREM_MODELS = {
    "polytrope(0.5, c=57)": CasimirModel.polytrope(0.5, c=57.0),
    "polytrope(0.75)": CasimirModel.polytrope(0.75),
    "double_power(0.5, 0.75)": CasimirModel.double_power(0.5, 0.75),
}


# worst |H_C(f) - H_C(f0) - (d + E_pot(sigma) + delta)| / d was 1.07e-8 over
# hypothesis seeds 1-4 at 300 examples each, always at eps = 1e-3 (CHANGES.md)
_IDENTITY_TOL = 1e-7


def _phase_functionals(model, ss, f):
    """(rho, mass, e_kin, casimir) of the isotropic density f on the state's
    support, f(t) its value at w = s - t, from the one velocity rule."""
    rho, kin, cas = _velocity_moments(model, np.maximum(ss.s_values, 0.0), f)
    ringw = ss.grid.ring_weights
    return rho, float(ringw @ rho), float(ringw @ kin), float(ringw @ cas)


@functools.lru_cache(maxsize=16)
def _theorem_state(name, mass):
    model = _THEOREM_MODELS[name]
    ss = solve(model, mass, SolverOptions(n=192))
    return model, ss, _phase_functionals(model, ss, ss.inv.q)


@settings(deadline=None)
@given(st.sampled_from(sorted(_THEOREM_MODELS)),
       st.floats(np.log(0.5), np.log(2.0)).map(np.exp),
       st.floats(np.log(1e-3), np.log(0.3)).map(np.exp),
       st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).map(
           np.array).filter(lambda a: np.linalg.norm(a) >= 0.1))
def test_steady_state_minimizes_the_energy_casimir_functional(name, mass, eps,
                                                              alpha):
    # the paper's theorem on f = f0*exp(eps*phi(r, w)) renormalized to f0's
    # mass, phi a unit combination of cos(j*pi*r/R)*cos(k*pi*w/s(r)):
    # d(f, f0) = C(f) - C(f0) + iint (E - E0)(f - f0) >= 0, and
    # H_C = E_kin + E_pot + C is smallest at f0.  The discrete f0 is a
    # critical point of the discrete H_C only up to the first variation
    # delta = 1/2 [(W rho0).K sigma - (W sigma).K rho0], sigma = rho_f - rho0,
    # which the unsymmetric W K adds (ROADMAP item 3): O(h^2) and linear in
    # eps, it makes H_C(f) < H_C(f0) in some directions at eps near 1e-3, so
    # the minimizer inequality is asserted once delta is taken off
    model, ss, (rho0, mass0, e_kin0, c0) = _theorem_state(name, mass)
    s = np.maximum(ss.s_values, 0.0)
    pos = s > 0.0
    r, sp = ss.grid.nodes[pos, None], s[pos, None]
    alpha = alpha / np.linalg.norm(alpha)
    q = ss.inv.q

    def perturbed(t):
        w = sp - t
        phi = sum(a * np.cos(j * np.pi * r / ss.support_radius)
                  * np.cos(k * np.pi * w / sp)
                  for a, (j, k) in zip(alpha, [(j, k) for j in range(3)
                                               for k in range(3) if j or k]))
        return q(t) * np.exp(eps * phi)

    scale = mass0 / _phase_functionals(model, ss, perturbed)[1]
    rho, mass_f, e_kin, c = _phase_functionals(
        model, ss, lambda t: scale * perturbed(t))
    assert mass_f == pytest.approx(mass0, rel=1e-12)
    ringw = ss.grid.ring_weights
    d = (c - c0) + (e_kin - e_kin0) - float(ringw @ (s * (rho - rho0)))
    assert d >= 0.0

    op = operator_for(ss.grid)
    sigma = rho - rho0
    delta = 0.5 * (float((ringw * rho0) @ op.potential(sigma))
                   - float((ringw * sigma) @ op.potential(rho0)))
    h_diff = ((e_kin + c + op.potential_energy(rho))
              - (e_kin0 + c0 + op.potential_energy(rho0)))
    assert h_diff - delta >= 0.0
    # the identity behind it: H_C(f) - H_C(f0) = d + E_pot(sigma) + delta
    identity = d + op.potential_energy(sigma) + delta
    assert abs(h_diff - identity) <= _IDENTITY_TOL * d
