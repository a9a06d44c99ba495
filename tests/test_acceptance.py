"""End-to-end acceptance checks with pinned tolerances and runtime budgets."""

import json
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from flatsteady import (CasimirModel, RadialGrid, RadialProfile, SimConfig,
                        SolverOptions, elliptic_k, evaluate_steady,
                        outer_potential_energy, potential_from_density,
                        regularity_report, rescale_steady, run,
                        scaling_inequality_check, solve)
from flatsteady.cli import main as cli_main
from flatsteady.functionals import ScalingParams


def _kuzmin_density(r):
    return 1.0 / (2.0 * np.pi * (r ** 2 + 1.0) ** 1.5)


def _kuzmin_potential(r):
    return -1.0 / np.sqrt(1.0 + r ** 2)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings(
    "ignore::scipy.integrate.IntegrationWarning")
def test_criterion_01_elliptic_kernel():
    t0 = time.monotonic()
    xi = np.linspace(0.0, 1.0 - 1e-8, 100)
    approx = elliptic_k(xi)
    for x, got in zip(xi, approx):
        ref, _ = quad(lambda t: 1.0 / np.sqrt(1.0 - (x * np.sin(t)) ** 2),
                      0.0, 0.5 * np.pi, epsabs=1e-15, epsrel=1e-14, limit=500)
        assert abs(got - ref) / ref <= 1e-10
    assert elliptic_k(0.0) == np.pi / 2.0
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_potential_oracle():
    t0 = time.monotonic()
    errs = {}
    for n in (512, 1024):
        grid = RadialGrid.hybrid(20.0, 4000.0, n)
        rho = RadialProfile(grid, _kuzmin_density(grid.nodes),
                            require_nonnegative=True)
        U = potential_from_density(rho)
        sel = grid.nodes <= 10.0
        exact = _kuzmin_potential(grid.nodes[sel])
        errs[n] = np.max(np.abs(U.values[sel] - exact) / np.abs(exact))
    assert errs[512] <= 1e-3
    assert errs[512] / errs[1024] >= 4.0
    assert time.monotonic() - t0 < 10.0


def test_criterion_03_steady_state_self_consistency(poly_half):
    t0 = time.monotonic()
    ss = solve(poly_half, 1.0)
    elapsed = time.monotonic() - t0
    rho_pred = 2.0 * np.pi * ss.inv.G(ss.s_values)
    residual = np.max(np.abs(ss.rho0.values - rho_pred)) / np.max(rho_pred)
    assert residual <= 1e-8
    assert abs(ss.mass - 1.0) <= 1e-6
    assert ss.E0 < 0.0
    assert 0.0 < ss.support_radius < ss.grid.r_max
    assert elapsed < 60.0


def test_criterion_04_e0_identity(poly_half, ss_half, poly_wide, ss_wide):
    dp = CasimirModel.double_power(0.4, 0.9, 1.0, 0.5, F0=2.0)
    states = [(poly_half, ss_half), (poly_wide, ss_wide),
              (dp, solve(dp, 1.0, SolverOptions(n=192)))]
    for model, ss in states:
        assert _e0_identity_defect(ss) <= 1e-6


def _e0_identity_defect(ss):
    """Relative defect of criterion 4's identity E0 = (1/M) sum_i W_i
    (2*pi*(s*G(s) - G2(s)) + rho0*U0 + 2*pi*G2(s)), s = E0 - U0."""
    s = ss.s_values
    ringw = ss.grid.ring_weights
    casimir_part = 2.0 * np.pi * (s * ss.inv.G(s) - ss.inv.G2(s))
    energy_part = ss.rho0.values * ss.U0.values + \
        2.0 * np.pi * ss.inv.G2(s)
    lhs = float(np.sum(ringw * (casimir_part + energy_part))) / ss.mass
    return abs(lhs - ss.E0) / abs(ss.E0)


def test_criterion_05_negativity_and_virial(poly_half, ss_half):
    rep = evaluate_steady(poly_half, ss_half)
    assert rep.d < 0.0
    assert abs(2.0 * rep.e_kin + rep.e_pot) / abs(rep.e_pot) <= 0.01


def test_criterion_06_scaling_identity(poly_half, ss_half):
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c = rng.uniform(0.5, 2.0, size=3)
        res = rescale_steady(ss_half, ScalingParams(a, b, c))
        for key in ("mass", "e_kin", "e_pot", "casimir"):
            rel = abs(res["direct"][key] - res["predicted"][key]) \
                / abs(res["predicted"][key])
            assert rel <= 1e-6, (key, a, b, c, rel)
        expected_mass = a * b ** -2 * c ** -2 * res["base"]["mass"]
        assert res["predicted"]["mass"] == pytest.approx(expected_mass,
                                                         rel=1e-12)


@settings(max_examples=8, deadline=None)
@given(st.tuples(*3 * [st.floats(np.log(0.2), np.log(5.0))]))
def test_scaling_identity_for_random_factors(poly_half, ss_half, log_abc):
    # criterion 06 over log-uniform (a, b, c) in [0.2, 5]^3
    a, b, c = np.exp(log_abc)
    res = rescale_steady(ss_half, ScalingParams(a, b, c))
    for key in ("mass", "e_kin", "e_pot", "casimir"):
        rel = abs(res["direct"][key] - res["predicted"][key]) \
            / abs(res["predicted"][key])
        assert rel <= 1e-6, (key, a, b, c, rel)


def test_criterion_07_scaling_inequality():
    model = CasimirModel.polytrope(0.75, c=1.0, mu3=0.5)
    rep = scaling_inequality_check(model, 0.5, 1.0, SolverOptions(n=192))
    # alpha = 1/(1 - mu3) = 2, so D_M1 >= (M1/M2)^3 D_M2
    assert rep["d_m1"] >= (0.5 / 1.0) ** 3 * rep["d_m2"]
    assert rep["holds"]
    assert rep["margin"] >= 1e-4


# -- the paper's identities over the model family ----------------------------

# about 4 times the worst over hypothesis seeds 1-4 at 200 examples each:
# 2.2e-5 and 2.4e-10 (CHANGES.md)
_VIRIAL_TOL = 1e-4
_E0_IDENTITY_TOL = 1e-9
_FAMILY_OPTS = SolverOptions(n=192)


@st.composite
def _family_models(draw):
    """Polytropes with mu in [0.2, 0.95] and c = e^U[0, 4], the same with a
    declared mu3 < mu, and double powers with mu1 < mu2 in [0.2, 0.95]."""
    kind = draw(st.sampled_from(["polytrope", "polytrope-mu3", "double_power"]))
    if kind == "double_power":
        mu1, mu2 = sorted(draw(st.lists(st.floats(0.2, 0.95), min_size=2,
                                        max_size=2, unique=True)))
        return CasimirModel.double_power(mu1, mu2)
    mu = draw(st.floats(0.2, 0.95))
    c = float(np.exp(draw(st.floats(0.0, 4.0))))
    mu3 = (draw(st.floats(0.1, mu, exclude_max=True))
           if kind == "polytrope-mu3" else None)
    return CasimirModel.polytrope(mu, c=c, mu3=mu3)


_MASSES = st.floats(np.log(0.3), np.log(3.0)).map(np.exp)


@settings(max_examples=25, deadline=None)
@given(_family_models(), _MASSES)
def test_virial_over_the_model_family(model, mass):
    # criterion 5's 2 E_kin + E_pot = 0 on every steady state
    rep = evaluate_steady(model, solve(model, mass, _FAMILY_OPTS))
    assert abs(2.0 * rep.e_kin + rep.e_pot) <= _VIRIAL_TOL * abs(rep.e_pot)


@settings(max_examples=25, deadline=None)
@given(_family_models(), _MASSES)
def test_e0_identity_over_the_model_family(model, mass):
    assert _e0_identity_defect(solve(model, mass, _FAMILY_OPTS)) <= _E0_IDENTITY_TOL


@settings(max_examples=20, deadline=None)
@given(_family_models(), st.lists(_MASSES, min_size=2, max_size=2,
                                  unique=True).map(sorted))
# two direct solves of this polytrope stopped on either side of the residual
# tolerance and missed the equality case by 1.33e-12 of the right-hand side
@example(CasimirModel.polytrope(0.7408473459961373, c=33.90076227087091),
         [float(np.exp(-0.5)), 1.0])
def test_scaling_inequality_over_the_model_family(model, masses):
    # criterion 7's D_M1 >= (M1/M2)^(1+alpha) D_M2 and its proof mechanism,
    # within their own slacks: the worst margins over seeds 1-4 at 200
    # examples were -4.8e-13 of the right-hand side (mu3 = mu near 0.94, the
    # equality case; the slack is 1e-12) and -2.2e-12 (slack 1e-10)
    rep = scaling_inequality_check(model, *masses, _FAMILY_OPTS)
    assert rep["holds"], rep
    assert rep["proof_holds"], rep


def test_criterion_08_outer_energy_decay():
    grid = RadialGrid.hybrid(20.0, 4000.0, 512)
    rho = RadialProfile(grid, _kuzmin_density(grid.nodes),
                        require_nonnegative=True)
    rep = outer_potential_energy(rho, 4.0, R_sequence=[4.0, 8.0, 16.0, 32.0])
    assert rep["decay_exponent"] <= -0.5


def test_criterion_09_regularity_diagnostics(ss_half):
    rep = regularity_report(ss_half)
    assert rep["identity_max_defect"] <= 1e-3
    assert abs(rep["edge_exponent"] - 1.5) <= 0.05


@pytest.mark.slow
def test_criterion_10_stability_baseline(poly_wide, ss_wide):
    t_dyn = ss_wide.dynamical_time()
    cfg = SimConfig(n_particles=1_000_000, dt=0.01 * t_dyn,
                    t_end=10.0 * t_dyn, method="grid", seed=0,
                    output_every=200)
    t0 = time.monotonic()
    out = run(ss_wide, cfg, model=poly_wide)
    elapsed = time.monotonic() - t0

    rows = out["rows"]
    d0 = rows[0]["D"]
    d_drift = max(abs(r["D"] - d0) for r in rows) / abs(d0)
    assert d_drift <= 0.01

    l3_ref = out["ensemble"].abs_angular_momentum()
    l3_drift = max(abs(r["L3"] - rows[0]["L3"]) for r in rows) / l3_ref
    assert l3_drift <= 1e-6

    eps_mc = out["eps_mc"]
    assert eps_mc > 0.0
    assert max(abs(r["d_dist"]) for r in rows) <= 3.0 * eps_mc
    assert min(r["d_dist"] for r in rows) >= -eps_mc
    assert elapsed < 600.0


# (S - eps_mc) / delta^2 over seeds 12-17 at each delta below: 20.8-26.6 at
# 0.025, 25.1-27.1 at 0.05 and 25.6-26.9 at 0.1
_ENVELOPE_BAND = (17.0, 31.0)


@pytest.mark.slow
def test_perturbed_envelope_shrinks_as_delta_squared(ss_wide):
    # the paper's stability statement: d(f, f0) - E_pot(rho_f - rho0) starts
    # small and stays small; its largest value over a dynamical time,
    # S(delta), less the draw's noise floor, scales as delta^2
    t_dyn = ss_wide.dynamical_time()
    cfg = SimConfig(n_particles=200_000, dt=0.005 * t_dyn, t_end=t_dyn,
                    seed=12, output_every=50)
    lo, hi = _ENVELOPE_BAND
    for delta in (0.025, 0.05, 0.1):
        out = run(ss_wide, cfg, "velocity-scale", delta)
        rows = out["rows"]
        assert len(rows) == 5  # a row every quarter dynamical time
        excess = max(r["d_dist"] - r["epot_diff"] for r in rows) - out["eps_mc"]
        assert lo * delta ** 2 <= excess <= hi * delta ** 2, delta


def test_criterion_11_determinism(tmp_path):
    ini = """\
[model]
kind = polytrope
mu = 0.5
c = 57.0

[solver]
n = 192

[evolve]
n_particles = 5000
dt_over_tdyn = 0.02
t_end_over_tdyn = 0.2
output_every = 5
seed = 12
"""
    cfg = tmp_path / "poly.ini"
    cfg.write_text(ini)
    outs, codes = [], []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        codes.append(cli_main(["evolve", "--config", str(cfg), "--out",
                               str(out), "--threads", threads]))
        outs.append(out)
    # the exit code is deterministic too; it is not asserted to be 0, since
    # 5000 particles miss this config's own D-drift check
    assert codes[0] == codes[1] == codes[2]
    for name in ("steady.csv", "steady.json", "timeseries.csv",
                 "snapshot.csv", "evolve.json"):
        blobs = [(o / name).read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2], name
    payload = json.loads((outs[0] / "evolve.json").read_text())
    assert payload["seed"] == 12
