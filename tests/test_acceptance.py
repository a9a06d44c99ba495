"""End-to-end acceptance checks with pinned tolerances and runtime budgets."""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
        s = ss.s_values
        ringw = ss.grid.ring_weights
        casimir_part = 2.0 * np.pi * (s * ss.inv.G(s) - ss.inv.G2(s))
        energy_part = ss.rho0.values * ss.U0.values + \
            2.0 * np.pi * ss.inv.G2(s)
        lhs = float(np.sum(ringw * (casimir_part + energy_part))) / ss.mass
        assert abs(lhs - ss.E0) / abs(ss.E0) <= 1e-6


def test_criterion_05_negativity_and_virial(poly_half, ss_half):
    rep = evaluate_steady(poly_half, ss_half)
    assert rep.d < 0.0
    assert abs(2.0 * rep.e_kin + rep.e_pot) / abs(rep.e_pot) <= 0.01


def test_criterion_06_scaling_identity(poly_half, ss_half):
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c = rng.uniform(0.5, 2.0, size=3)
        res = rescale_steady(poly_half, ss_half, ScalingParams(a, b, c))
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
    res = rescale_steady(poly_half, ss_half, ScalingParams(a, b, c))
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
