import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatsteady import (CasimirModel, RadialGrid, ScalingParams, SolverOptions,
                        solve, evaluate_ensemble, evaluate_steady,
                        rescale_steady, sample, scaling_inequality_check,
                        split_diagnostic, stability_distance)
from flatsteady.functionals import (_bin, _ensemble_row, _interp,
                                    _self_energy, alpha_from_mu3,
                                    bilinearity_check,
                                    interpolation_check,
                                    lower_bound_check, proof_scaling_params)
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


def test_minimizer_has_negative_d(report_half):
    assert report_half.d < 0.0


def test_virial_identity(report_half):
    assert abs(2.0 * report_half.e_kin + report_half.e_pot) <= 0.01 * abs(report_half.e_pot)


def test_report_json_schema(report_half):
    out = report_half.to_dict(checks=[{"name": "x", "lhs": 1.0, "rhs": 2.0,
                                       "pass": True}])
    assert set(out) == {"mass", "e_kin", "e_pot", "casimir", "p", "d", "checks"}


def test_evaluate_rejects_unconverged(poly_half, ss_half):
    from dataclasses import replace
    bad = replace(ss_half, residual=1.0)
    with pytest.raises(InputError):
        evaluate_steady(poly_half, bad)


def test_identity_scaling(poly_half, ss_half):
    res = rescale_steady(poly_half, ss_half, ScalingParams(1.0, 1.0, 1.0))
    for key in ("mass", "e_kin", "e_pot", "casimir"):
        assert res["predicted"][key] == pytest.approx(res["base"][key], rel=1e-12)
        assert res["direct"][key] == pytest.approx(res["base"][key], rel=1e-9)


def test_mass_scaling_quarter(poly_half, ss_half):
    # a = 1, b = 2, c = 1 sends the mass to M/4
    res = rescale_steady(poly_half, ss_half, ScalingParams(1.0, 2.0, 1.0))
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


def test_split_bound_with_generous_constant(ss_half):
    rep = split_diagnostic(ss_half, 0.5 * ss_half.support_radius, C=None)
    rep2 = split_diagnostic(ss_half, 0.5 * ss_half.support_radius,
                            C=2.0 * rep["implied_C"])
    assert rep2["bound_holds"]


def test_bilinearity(ss_half):
    rng = np.random.default_rng(3)
    rho1 = ss_half.rho0.values
    rho2 = rng.random(ss_half.grid.n) * np.max(rho1) * 0.1
    assert bilinearity_check(ss_half.grid, rho1, rho2)["pass"]


def test_lower_bound_calibrated(report_half):
    # the empirical C_M that makes the coercivity bound tight for this state
    c_m = (report_half.p - report_half.d) / (1.0 + report_half.p ** 0.75)
    assert c_m > 0.0
    assert lower_bound_check(report_half, c_m, 0.5)["pass"]


def test_interpolation_inequality(ss_half):
    assert interpolation_check(ss_half.grid, ss_half.rho0.values, 0.5)["pass"]


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
    assert rep.e_pot == 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi), st.floats(-8.0, 2.0))
def test_single_particle_self_energy_is_its_deposit_energy(r, phi, log_m):
    # a lone particle's deposit energy is its self-energy up to rounding,
    # wherever it sits in its cell and whatever its mass
    grid = RadialGrid.hybrid(0.75, 1.0, 192)
    x = np.array([[r * np.cos(phi), r * np.sin(phi)]])
    m = np.array([10.0 ** log_m])
    binned = _bin(grid, x, m)
    op = operator_for(grid)
    e_dep = op.potential_energy(binned.rho)
    assert abs(e_dep - _self_energy(op, binned, m)) <= 1e-13 * abs(e_dep)


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


def test_stability_distance_consistency(poly_wide, ss_wide):
    ens = sample(ss_wide, 200_000, seed=9)
    d, epot_diff = stability_distance(poly_wide, ss_wide, ens)
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
            # only E0, U0 and q, not a self-consistent state
            (custom, dataclasses.replace(ss_wide, model=custom, inv=None))]


def test_moment_sums_match_inline_expressions(poly_wide, ss_wide):
    # the ring sums the functionals built inline before SteadyState.moments
    for model, ss in _states(poly_wide, ss_wide):
        inv, ringw = ss.inv, ss.grid.ring_weights
        s = np.maximum(ss.s_values, 0.0)
        e_kin = float(np.sum(ringw * 2.0 * np.pi * inv.G2(s)))
        c_f0 = float(np.sum(ringw * 2.0 * np.pi
                            * (s * inv.G(s) - 2.0 * inv.G2(s))))
        e_moment_f0 = float(np.sum(ringw * 2.0 * np.pi
                                   * (inv.G2(s) - s * inv.G(s))))
        assert ss.moments == (e_kin, c_f0, e_moment_f0)
        rep = evaluate_steady(model, ss)
        assert (rep.e_kin, rep.casimir) == (e_kin, c_f0)

        ens = sample(ss, 2000, seed=5)
        binned = _bin(ss.grid, ens.positions, ens.weights)
        row, _ = _ensemble_row(model, ens, binned, ss)
        w, v = ens.weights, ens.velocities
        e_f = _interp(ss.U0.values, binned)
        w_kin = 0.5 * (np.square(v[:, 0]) + np.square(v[:, 1]))
        e_moment_f = float(np.sum(w * ((w_kin + e_f) - ss.E0)))
        assert row["d_dist"] == (row["casimir"] - c_f0) + (e_moment_f - e_moment_f0)
