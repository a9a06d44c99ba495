import dataclasses

import numpy as np
import pytest

from flatsteady import SimConfig, accelerations, run, sample, step
from flatsteady.errors import InputError
from flatsteady.simulate import ParticleEnsemble, _apply_perturbation


@pytest.fixture(scope="module")
def ens_wide(ss_wide):
    return sample(ss_wide, 100_000, seed=11)


def test_sampling_radial_ks_distance(ss_wide, ens_wide):
    # empirical CDF of radii against the model's enclosed-mass CDF
    r_nodes = ss_wide.grid.nodes
    g = 2.0 * np.pi * r_nodes * ss_wide.rho0.values
    inc = 0.5 * np.diff(r_nodes) * (g[:-1] + g[1:])
    cdf = np.concatenate([[0.0], np.cumsum(inc)])
    cdf /= cdf[-1]
    radii = np.sort(ens_wide.radii())
    model = np.interp(radii, r_nodes, cdf)
    empirical = np.arange(1, radii.size + 1) / radii.size
    ks = np.max(np.abs(empirical - model))
    assert ks <= 2.0 / np.sqrt(radii.size)


def test_sampled_energies_below_cutoff(ss_wide, ens_wide):
    w_kin = 0.5 * np.sum(ens_wide.velocities ** 2, axis=1)
    energy = w_kin + ss_wide.U0(ens_wide.radii())
    assert np.max(energy) <= ss_wide.E0 + 1e-10 * abs(ss_wide.E0)


def test_sampled_kinetic_energy(poly_wide, ss_wide, ens_wide):
    from flatsteady import evaluate_ensemble, evaluate_steady
    rep_e = evaluate_ensemble(poly_wide, ens_wide, grid=ss_wide.grid)
    rep_s = evaluate_steady(poly_wide, ss_wide)
    assert rep_e.e_kin == pytest.approx(rep_s.e_kin, rel=0.02)


def test_sample_rejects_zero_particles(ss_wide):
    with pytest.raises(InputError):
        sample(ss_wide, 0, seed=0)


def test_sample_is_deterministic(ss_wide):
    a = sample(ss_wide, 5000, seed=3)
    b = sample(ss_wide, 5000, seed=3)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)


def test_pair_force_newton_third_law():
    ens = ParticleEnsemble(np.array([[0.0, 0.0], [1.2, 0.4]]),
                           np.zeros((2, 2)), np.array([2.0, 3.0]))
    acc = accelerations(ens, method="direct", eps_soft=0.05)
    # momentum balance: m1 a1 + m2 a2 = 0
    net = ens.weights[:, None] * acc
    assert np.allclose(net[0], -net[1], rtol=1e-13, atol=1e-15)
    # magnitude on particle 1 is w2 * d / (d^2 + eps^2)^1.5
    d = np.hypot(1.2, 0.4)
    expected = 3.0 * d / (d ** 2 + 0.05 ** 2) ** 1.5
    assert np.hypot(*acc[0]) == pytest.approx(expected, rel=1e-13)


def test_single_particle_free_streams():
    ens = ParticleEnsemble(np.array([[0.5, -0.2]]), np.array([[0.3, 0.7]]),
                           np.array([1.0]))
    acc = accelerations(ens, method="direct", eps_soft=0.01)
    assert np.all(acc == 0.0)
    out = ens
    acc_c = None
    for _ in range(10):
        out, acc_c = step(out, 0.05, method="direct", eps_soft=0.01,
                          acc=acc_c)
    assert np.allclose(out.positions, ens.positions + 0.5 * ens.velocities,
                       rtol=0.0, atol=1e-15)
    assert np.array_equal(out.velocities, ens.velocities)


def test_two_body_circular_orbit():
    w = 0.5
    d = 1.0
    eps = 1e-3
    a_mag = w * d / (d ** 2 + eps ** 2) ** 1.5
    v = np.sqrt(a_mag * d / 2.0)
    ens = ParticleEnsemble(np.array([[d / 2, 0.0], [-d / 2, 0.0]]),
                           np.array([[0.0, v], [0.0, -v]]),
                           np.array([w, w]))
    period = 2.0 * np.pi * (d / 2.0) / v
    n_steps = 4000
    dt = period / n_steps
    out, acc = ens, None
    for _ in range(n_steps):
        out, acc = step(out, dt, method="direct", eps_soft=eps, acc=acc)
    # after one full period the separation is back to d
    sep = np.hypot(*(out.positions[0] - out.positions[1]))
    assert sep == pytest.approx(d, rel=1e-4)
    assert np.allclose(out.positions, ens.positions, atol=1e-3 * d)


def test_leapfrog_time_reversal(ss_wide):
    ens = sample(ss_wide, 2000, seed=7)
    fwd, acc = ens, None
    for _ in range(20):
        fwd, acc = step(fwd, 0.02, method="grid", grid=ss_wide.grid, acc=acc)
    back = ParticleEnsemble(fwd.positions, -fwd.velocities, fwd.weights)
    acc = None
    for _ in range(20):
        back, acc = step(back, 0.02, method="grid", grid=ss_wide.grid,
                         acc=acc)
    assert np.allclose(back.positions, ens.positions, rtol=0.0, atol=1e-10)
    assert np.allclose(-back.velocities, ens.velocities, rtol=0.0, atol=1e-10)


# the grid force leaves a particle past the grid out of its deposit, so only
# the runaway goes non-finite; the pairwise sum passes its NaN pull to every
# particle, so the first index reported may be any
@pytest.mark.parametrize("method,first_bad",
                         [("grid", "5"), ("direct", r"\d+")],
                         ids=["grid", "direct"])
def test_step_rejects_non_finite_coordinates(ss_wide, method, first_bad):
    ens = sample(ss_wide, 2000, seed=7)
    v = ens.velocities.copy()
    v[5] = [1e308, 0.0]  # drifts to infinity in one step of dt = 10
    fast = ParticleEnsemble(ens.positions, v, ens.weights)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            InputError, match=f"non-finite coordinates for particle index "
                              f"{first_bad} after dt=10$"):
        step(fast, 10.0, method, ss_wide.grid, eps_soft=0.01)


def _exact_radial_force(ss, radii):
    from scipy.interpolate import CubicSpline
    dU = CubicSpline(ss.grid.nodes, ss.U0.values).derivative()
    return -dU(radii)


def test_grid_force_matches_steady(ss_wide):
    # deposit shot noise dominates below ~1e5 particles
    ens = sample(ss_wide, 200_000, seed=5)
    a_grid = accelerations(ens, method="grid", grid=ss_wide.grid)
    radii = ens.radii()
    a_rad = -np.sum(a_grid * ens.positions, axis=1) / radii
    exact = -_exact_radial_force(ss_wide, radii)
    sel = radii > 0.1 * ss_wide.support_radius
    err = np.sqrt(np.mean((a_rad[sel] - exact[sel]) ** 2))
    ref = np.sqrt(np.mean(exact[sel] ** 2))
    assert err / ref < 0.05


def test_direct_force_matches_steady_in_the_mean(ss_wide):
    # the pairwise sum is grainy particle by particle, so compare the
    # bin-averaged inward radial acceleration against the smooth force;
    # softening above ~0.01 R biases the force low
    ens = sample(ss_wide, 20_000, seed=5)
    a_dir = accelerations(ens, method="direct",
                          eps_soft=0.005 * ss_wide.support_radius)
    radii = ens.radii()
    a_rad = np.sum(a_dir * ens.positions, axis=1) / radii
    edges = np.linspace(0.2, 0.9, 8) * ss_wide.support_radius
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (radii >= lo) & (radii < hi)
        mean_obs = np.mean(a_rad[sel])
        mean_exact = np.mean(_exact_radial_force(ss_wide, radii[sel]))
        assert mean_obs == pytest.approx(mean_exact, rel=0.05)


def test_direct_momentum_conservation(ss_wide):
    ens = sample(ss_wide, 1500, seed=8)
    out, acc = ens, None
    for _ in range(10):
        out, acc = step(out, 0.02, method="direct",
                        eps_soft=0.02 * ss_wide.support_radius, acc=acc)
    p0 = np.sum(ens.weights[:, None] * ens.velocities, axis=0)
    p1 = np.sum(out.weights[:, None] * out.velocities, axis=0)
    scale = np.sum(ens.weights * np.hypot(*ens.velocities.T))
    assert np.allclose(p1, p0, rtol=0.0, atol=1e-12 * scale)


def test_angular_momentum_conserved_by_grid_force(ss_wide):
    ens = sample(ss_wide, 5000, seed=6)
    out, acc = ens, None
    for _ in range(25):
        out, acc = step(out, 0.02, method="grid", grid=ss_wide.grid, acc=acc)
    ref = ens.abs_angular_momentum()
    assert abs(out.angular_momentum() - ens.angular_momentum()) <= 1e-12 * ref


def test_perturbation_kinds(ss_wide):
    ens = sample(ss_wide, 1200, seed=2)
    vsc = _apply_perturbation(ens, "velocity-scale", 0.1)
    assert np.allclose(vsc.velocities, 1.1 * ens.velocities)
    assert np.array_equal(vsc.positions, ens.positions)
    rsc = _apply_perturbation(ens, "radius-scale", -0.05)
    assert np.allclose(rsc.positions, 0.95 * ens.positions)
    same = _apply_perturbation(ens, "none", 0.3)
    assert same is ens
    with pytest.raises(InputError):
        _apply_perturbation(ens, "squeeze", 0.1)
    # a radius scale by a factor <= 0 is no scale: it would put every
    # particle at the origin or reflect it through it
    for delta in (-1.0, -1.5):
        with pytest.raises(InputError):
            _apply_perturbation(ens, "radius-scale", delta)


def test_run_emits_rows_and_noise_floor(poly_wide, ss_wide):
    cfg = SimConfig(n_particles=20_000, dt=0.05, t_end=0.5, method="grid",
                    seed=1, output_every=5)
    out = run(ss_wide, cfg, model=poly_wide)
    assert len(out["rows"]) == 3  # t = 0, 0.25, 0.5
    assert out["eps_mc"] > 0.0
    assert out["escaped"] == 0
    cols = {"t", "e_kin", "e_pot", "casimir", "D", "d_dist", "epot_diff",
            "L3", "max_r"}
    assert set(out["rows"][0]) == cols
    assert out["rows"][-1]["t"] == pytest.approx(0.5)


def test_run_escape_logging(poly_wide, ss_wide):
    cfg = SimConfig(n_particles=2000, dt=0.05, t_end=0.1, method="grid",
                    seed=1, output_every=1, escape_factor=0.5)
    out = run(ss_wide, cfg, model=poly_wide)
    assert out["escaped"] > 0


def test_config_validation():
    with pytest.raises(InputError):
        SimConfig(dt=0.0)
    with pytest.raises(InputError):
        SimConfig(method="tree")
    with pytest.raises(InputError):
        SimConfig(method="direct", n_particles=200_000)
    with pytest.raises(InputError):
        SimConfig(output_every=0)


def test_ensemble_validation():
    with pytest.raises(InputError):
        ParticleEnsemble(np.zeros((2, 2)), np.zeros((3, 2)), np.ones(2))
    with pytest.raises(InputError):
        ParticleEnsemble(np.zeros((2, 2)), np.zeros((2, 2)),
                         np.array([1.0, -1.0]))
    with pytest.raises(InputError):
        ParticleEnsemble(np.array([[np.nan, 0.0]]), np.zeros((1, 2)),
                         np.ones(1))


def _state_with_mass_outside(ss):
    """ss with extra density on nodes past the support, where E0 - U0 <= 0."""
    from flatsteady import RadialProfile
    r = ss.grid.nodes
    band = (r > 1.2 * ss.support_radius) & (r < 1.5 * ss.support_radius)
    assert np.all(ss.s_values[band] <= 0.0)
    rho = ss.rho0.values + np.where(band, 0.2 * ss.rho0.values.max(), 0.0)
    return dataclasses.replace(ss, rho0=RadialProfile(ss.grid, rho))


def test_run_counts_clamped_stragglers(poly_wide, ss_wide):
    ss = _state_with_mass_outside(ss_wide)
    cfg = SimConfig(n_particles=4000, dt=0.01, t_end=0.0, seed=6)
    out = run(ss, cfg, model=poly_wide)
    at_origin = int(np.count_nonzero(sample(ss, 4000, seed=6).radii() == 0.0))
    assert out["clamped"] == at_origin > 100
    # the same count from the radius draw itself: draws where E0 - U0 is
    # not above sample's floor
    r = ss.grid.nodes
    g = 2.0 * np.pi * r * ss.rho0.values
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(r) * (g[:-1] + g[1:]))])
    u = np.random.Generator(np.random.Philox(6)).random(4000)
    s_at = np.maximum(ss.E0 - ss.U0(np.interp(u, cdf / cdf[-1], r)), 0.0)
    assert out["clamped"] == np.count_nonzero(s_at <= 1e-12 * s_at.max())
    # a radius scale keeps the stragglers at r = 0 and moves no one there
    squeezed = run(ss, cfg, perturbation="radius-scale", delta=-0.5,
                   model=poly_wide)
    assert squeezed["clamped"] == out["clamped"]


def test_run_reports_no_clamping_and_the_pool_size(poly_wide, ss_wide):
    from flatsteady.functionals import _pool
    cfg = SimConfig(n_particles=4000, dt=0.01, t_end=0.02, seed=6)
    out = run(ss_wide, cfg, model=poly_wide)
    assert out["clamped"] == 0
    assert out["workers"] == _pool()[1] >= 1
