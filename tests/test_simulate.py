import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from flatsteady import (CasimirModel, SimConfig, accelerations,
                        evaluate_steady, functionals, grids, run, sample,
                        simulate, stability_distance, step)
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
    from flatsteady import evaluate_ensemble
    rep_e = evaluate_ensemble(poly_wide, ens_wide, grid=ss_wide.grid)
    rep_s = evaluate_steady(poly_wide, ss_wide)
    assert rep_e.e_kin == pytest.approx(rep_s.e_kin, rel=0.02)


def test_sample_rejects_zero_particles(ss_wide):
    with pytest.raises(InputError):
        sample(ss_wide, 0, seed=0)


def test_negative_seed_is_an_input_error(ss_wide):
    with pytest.raises(InputError, match="^seed -1 is not"):
        sample(ss_wide, 1000, seed=-1)
    cfg = SimConfig(n_particles=1000, dt=0.01, t_end=0.0, seed=-1)
    with pytest.raises(InputError, match="^seed -1 is not"):
        run(ss_wide, cfg)


def test_sample_is_deterministic(ss_wide):
    a = sample(ss_wide, 5000, seed=3)
    b = sample(ss_wide, 5000, seed=3)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)


def _direct_accel(x, w, eps, out=None):
    """Reference force: the Plummer-softened pairwise sum
    a_i = -sum_j w_j (x_i - x_j) / (|x_i - x_j|^2 + eps^2)^1.5, in row blocks.
    Writes into ``out`` when given, as ``simulate._kdk``'s force must."""
    acc = np.empty_like(x) if out is None else out
    for lo in range(0, x.shape[0], 64):
        dx = x[lo:lo + 64, 0, None] - x[:, 0]
        dy = x[lo:lo + 64, 1, None] - x[:, 1]
        d2 = dx * dx + dy * dy + eps * eps
        # the i == j term has zero displacement, so it adds nothing
        s = w / (d2 * np.sqrt(d2))
        acc[lo:lo + 64, 0] = -np.sum(s * dx, axis=1)
        acc[lo:lo + 64, 1] = -np.sum(s * dy, axis=1)
    return acc


def _direct_leapfrog(x, v, w, dt, eps, n_steps):
    """n_steps of the package's one leapfrog under the reference force."""
    kick = 0.5 * dt * _direct_accel(x, w, eps)
    for _ in range(n_steps):
        simulate._kdk(x, v, kick, dt, lambda x, out: _direct_accel(x, w, eps, out))


def test_single_particle_free_streams():
    x0, v0, w = np.array([[0.5, -0.2]]), np.array([[0.3, 0.7]]), np.array([1.0])
    assert np.all(_direct_accel(x0, w, 0.01) == 0.0)
    x, v = x0.copy(), v0.copy()
    _direct_leapfrog(x, v, w, 0.05, 0.01, 10)
    assert np.allclose(x, x0 + 0.5 * v0, rtol=0.0, atol=1e-15)
    assert np.array_equal(v, v0)


def test_two_body_circular_orbit():
    w = 0.5
    d = 1.0
    eps = 1e-3
    a_mag = w * d / (d ** 2 + eps ** 2) ** 1.5
    v = np.sqrt(a_mag * d / 2.0)
    x0 = np.array([[d / 2, 0.0], [-d / 2, 0.0]])
    x, vel = x0.copy(), np.array([[0.0, v], [0.0, -v]])
    period = 2.0 * np.pi * (d / 2.0) / v
    n_steps = 4000
    _direct_leapfrog(x, vel, np.array([w, w]), period / n_steps, eps, n_steps)
    # after one full period the separation is back to d
    sep = np.hypot(*(x[0] - x[1]))
    assert sep == pytest.approx(d, rel=1e-4)
    assert np.allclose(x, x0, atol=1e-3 * d)


def test_leapfrog_time_reversal(ss_wide):
    ens = sample(ss_wide, 2000, seed=7)
    fwd, acc = ens, None
    for _ in range(20):
        fwd, acc = step(fwd, 0.02, ss_wide.grid, acc=acc)
    back = ParticleEnsemble(fwd.positions, -fwd.velocities, fwd.weights)
    acc = None
    for _ in range(20):
        back, acc = step(back, 0.02, ss_wide.grid, acc=acc)
    assert np.allclose(back.positions, ens.positions, rtol=0.0, atol=1e-10)
    assert np.allclose(-back.velocities, ens.velocities, rtol=0.0, atol=1e-10)


# the drifted positions are checked before the force runs: the grid force's
# gather would give the runaway the force scale -dU/r = 0 and multiply it by
# its inf coordinate, a numpy "invalid value" warning, which the test
# settings make an error; only the drift's overflow is silenced here
def test_step_rejects_non_finite_coordinates(ss_wide):
    ens = sample(ss_wide, 2000, seed=7)
    v = ens.velocities.copy()
    v[5] = [1e308, 0.0]  # drifts to infinity in one step of dt = 10
    fast = ParticleEnsemble(ens.positions, v, ens.weights)
    with np.errstate(over="ignore"), pytest.raises(
            InputError, match="non-finite coordinates for particle index "
                              "5 after dt=10$"):
        step(fast, 10.0, ss_wide.grid)


def _exact_radial_force(ss, radii):
    from scipy.interpolate import CubicSpline
    dU = CubicSpline(ss.grid.nodes, ss.U0.values).derivative()
    return -dU(radii)


def test_grid_force_matches_steady(ss_wide):
    # deposit shot noise dominates below ~1e5 particles
    ens = sample(ss_wide, 200_000, seed=5)
    a_grid = accelerations(ens, ss_wide.grid)
    radii = ens.radii()
    a_rad = -np.sum(a_grid * ens.positions, axis=1) / radii
    exact = -_exact_radial_force(ss_wide, radii)
    sel = radii > 0.1 * ss_wide.support_radius
    err = np.sqrt(np.mean((a_rad[sel] - exact[sel]) ** 2))
    ref = np.sqrt(np.mean(exact[sel] ** 2))
    assert err / ref < 0.05


def test_force_past_the_grid_is_the_monopole_of_the_grid_mass(ss_wide):
    # probes of negligible mass at rest on the x axis past r_max; the rest
    # of the draw fixes the deposit, and the grid potential's mass is
    # ring_weights @ rho of that deposit
    grid = ss_wide.grid
    probes = np.array([6.0, 20.0, 100.0])
    assert np.all(probes > grid.r_max)
    ens = sample(ss_wide, 20_000, seed=3)
    x = np.concatenate([ens.positions, np.column_stack([probes, 0.0 * probes])])
    v = np.concatenate([ens.velocities, np.zeros((3, 2))])
    w = np.concatenate([ens.weights, np.full(3, 1e-15)])
    cloud = ParticleEnsemble(x, v, w)

    def expected(x):
        m_grid = grid.ring_weights @ functionals._bin(grid, x, w).rho
        r = np.hypot(x[-3:, 0], x[-3:, 1])
        return -m_grid * x[-3:] / r[:, None] ** 3

    acc = accelerations(cloud, grid)
    assert np.allclose(acc[-3:, 0], expected(x)[:, 0], rtol=1e-12, atol=0.0)
    assert np.all(acc[-3:, 1] == 0.0)
    moved, acc_new = step(cloud, 0.01, grid, acc=acc)
    assert np.all(moved.positions[-3:, 0] < probes)
    assert np.allclose(acc_new[-3:], expected(moved.positions),
                       rtol=1e-12, atol=0.0)


def test_direct_force_matches_steady_in_the_mean(ss_wide):
    # the pairwise sum is grainy particle by particle, so compare the
    # bin-averaged inward radial acceleration against the smooth force;
    # softening above ~0.01 R biases the force low
    ens = sample(ss_wide, 20_000, seed=5)
    a_dir = _direct_accel(ens.positions, ens.weights,
                          0.005 * ss_wide.support_radius)
    radii = ens.radii()
    a_rad = np.sum(a_dir * ens.positions, axis=1) / radii
    edges = np.linspace(0.2, 0.9, 8) * ss_wide.support_radius
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (radii >= lo) & (radii < hi)
        mean_obs = np.mean(a_rad[sel])
        mean_exact = np.mean(_exact_radial_force(ss_wide, radii[sel]))
        assert mean_obs == pytest.approx(mean_exact, rel=0.05)


def test_angular_momentum_conserved_by_grid_force(ss_wide):
    ens = sample(ss_wide, 5000, seed=6)
    out, acc = ens, None
    for _ in range(25):
        out, acc = step(out, 0.02, ss_wide.grid, acc=acc)
    ref = ens.abs_angular_momentum()
    assert abs(out.angular_momentum() - ens.angular_momentum()) <= 1e-12 * ref


def test_perturbation_kinds(ss_wide):
    ens = sample(ss_wide, 1200, seed=2)
    vsc = _apply_perturbation(ens, "velocity-scale", 0.1)
    assert np.allclose(vsc.velocities, 1.1 * ens.velocities)
    assert np.array_equal(vsc.positions, ens.positions)
    rsc = _apply_perturbation(ens, "radius-scale", -0.05)
    assert np.allclose(rsc.positions, 0.95 * ens.positions)
    assert _apply_perturbation(ens, "none", 0.0) is ens
    assert _apply_perturbation(ens, "velocity-scale", 0.0) is ens
    # a setting that would do nothing is refused: an unknown kind whatever
    # delta is, and a delta without a kind
    for kind, delta in (("squeeze", 0.1), ("squeeze", 0.0), ("none", 0.3)):
        with pytest.raises(InputError):
            _apply_perturbation(ens, kind, delta)
    # a radius scale by a factor <= 0 is no scale: it would put every
    # particle at the origin or reflect it through it
    for delta in (-1.0, -1.5):
        with pytest.raises(InputError):
            _apply_perturbation(ens, "radius-scale", delta)


def test_a_model_other_than_the_states_is_refused(ss_wide):
    # run once scored the histogram Casimir with the argument and C(f0) with
    # the state's model, and evaluate_steady ignored the argument
    other = CasimirModel.polytrope(0.5, c=1.0)
    cfg = SimConfig(n_particles=2000, dt=0.01, t_end=0.0, seed=1)
    with pytest.raises(InputError, match="not the state's model"):
        run(ss_wide, cfg, model=other)
    with pytest.raises(InputError, match="not the state's model"):
        evaluate_steady(other, ss_wide)


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
    # the run's gates, each from its rows
    rows = out["rows"]
    d = [r["D"] for r in rows]
    l3 = [r["L3"] for r in rows]
    d_drift = max(abs(x - d[0]) for x in d) / abs(d[0])
    l3_drift = (max(abs(x - l3[0]) for x in l3)
                / out["ensemble"].abs_angular_momentum())
    d_min = min(r["d_dist"] for r in rows)
    assert (out["d_drift"], out["l3_drift"], out["d_min"]) == (
        d_drift, l3_drift, d_min)
    assert [(c["name"], c["lhs"], c["rhs"], c["pass"]) for c in out["checks"]] == [
        ("D_drift_below_1pc", d_drift, 0.01, d_drift <= 0.01),
        ("L3_drift_below_1e6", l3_drift, 1e-6, l3_drift <= 1e-6),
        ("d_above_minus_eps_mc", d_min, -out["eps_mc"], d_min >= -out["eps_mc"])]


@pytest.mark.parametrize("kind,delta", [("velocity-scale", 0.1),
                                        ("radius-scale", -0.05)])
def test_perturbed_run_has_the_draws_noise_floor(poly_wide, ss_wide, kind,
                                                 delta):
    # eps_mc is the floor of the unperturbed draw: the perturbation is the
    # signal that d is compared against, not noise
    cfg = SimConfig(n_particles=20_000, dt=0.01, t_end=0.0, seed=12)
    base = run(ss_wide, cfg, model=poly_wide)
    moved = run(ss_wide, cfg, perturbation=kind, delta=delta, model=poly_wide)
    assert moved["eps_mc"] == base["eps_mc"]
    assert moved["rows"][0]["d_dist"] != base["rows"][0]["d_dist"]


@pytest.mark.parametrize("kind,delta", [("none", 0.0), ("velocity-scale", 0.1),
                                        ("radius-scale", -0.05)])
def test_noise_floor_is_the_spread_of_the_draws_halves(poly_wide, ss_wide,
                                                       kind, delta):
    # run takes the halves' d from slices of one binning of the draw: bit
    # for bit stability_distance on the draw and on each half alone
    n = 20_000
    cfg = SimConfig(n_particles=n, dt=0.01, t_end=0.0, seed=13)
    out = run(ss_wide, cfg, perturbation=kind, delta=delta, model=poly_wide)
    drawn = sample(ss_wide, n, cfg.seed)
    d0, _ = stability_distance(ss_wide, drawn)
    da, db = (stability_distance(ss_wide, ParticleEnsemble(
        drawn.positions[part], drawn.velocities[part], drawn.weights[part]))[0]
        for part in (slice(None, n // 2), slice(n // 2, None)))
    assert out["eps_mc"] == abs(d0) + abs(da - db)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_steps_the_draw_without_copies(monkeypatch, poly_wide, ss_wide):
    # one worker, so the chunk temporaries alive at once do not depend on
    # the host's CPUs.  run's peak over sample's, which run includes, was
    # 1.697 with run's copies of x and v and 1.341-1.342 without them (seeds
    # 3 and 11-17; sample maps its draws in chunks and peaks at 18.0 MB)
    monkeypatch.setattr(grids, "_pool", functools.cache(lambda: (None, 1)))
    n, t_dyn = 200_000, ss_wide.dynamical_time()
    cfg = SimConfig(n_particles=n, dt=0.01 * t_dyn, t_end=0.03 * t_dyn,
                    seed=12, output_every=1)
    drawn = _traced_peak(lambda: sample(ss_wide, n, cfg.seed))
    stepped = _traced_peak(lambda: run(ss_wide, cfg, model=poly_wide))
    assert stepped < 1.5 * drawn


def test_run_escape_logging(monkeypatch, poly_wide, ss_wide):
    monkeypatch.setattr(simulate, "_ESCAPE_FACTOR", 0.5)
    cfg = SimConfig(n_particles=2000, dt=0.05, t_end=0.1, method="grid",
                    seed=1, output_every=1)
    out = run(ss_wide, cfg, model=poly_wide)
    assert out["escaped"] > 0


def test_config_validation():
    with pytest.raises(InputError):
        SimConfig(dt=0.0)
    with pytest.raises(InputError):
        SimConfig(method="tree")
    with pytest.raises(InputError):
        SimConfig(method="direct")
    with pytest.raises(InputError):
        SimConfig(output_every=0)
    for bad in ({"n_particles": 0}, {"dt": np.nan}, {"dt": np.inf},
                {"t_end": -1.0}, {"t_end": np.inf}):
        with pytest.raises(InputError, match="^SimConfig: "):
            SimConfig(**bad)


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


def test_sample_draws_nothing_past_the_support(ss_wide):
    # with the radius CDF rising across the whole last support cell, seeds 3
    # and 7 moved 2 and 1 of 10^6 draws to r = 0; the cell now ends where
    # E0 - U0 falls to sample's floor, which lies past support_radius
    floor = 1e-12 * ss_wide.s_values.max()
    for seed in (3, 7):
        r = sample(ss_wide, 10 ** 6, seed=seed).radii()
        assert np.count_nonzero(r == 0.0) == 0
        assert np.min(ss_wide.E0 - ss_wide.U0(r)) > floor
        assert np.count_nonzero(r > ss_wide.support_radius) > 0


def test_run_reports_no_clamping_and_the_pool_size(poly_wide, ss_wide):
    from flatsteady.grids import _pool
    cfg = SimConfig(n_particles=4000, dt=0.01, t_end=0.02, seed=6)
    out = run(ss_wide, cfg, model=poly_wide)
    assert out["clamped"] == 0
    assert out["workers"] == _pool()[1] >= 1
