"""One binning per position update: ``RadialGrid._locate`` and its consumers.

The deposit, the grid-force gather, the deposit self-energy and the U0
moment all read one (cell, fraction) binning.  The properties check
``_locate`` against the ``searchsorted`` rule it replaces and the consumers
against their definitions; the regression tests keep the earlier separate
implementations as references.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from flatsteady import (CasimirModel, RadialGrid, RadialProfile, SimConfig,
                        accelerations, evaluate_ensemble,
                        run, sample, stability_distance)
from flatsteady import functionals, grids, simulate
from flatsteady.functionals import _bin, _ensemble_row, _radius
from flatsteady.potential import operator_for
from flatsteady.simulate import ParticleEnsemble, _grid_accel_arrays


def _searchsorted_cells(grid, r):
    return np.clip(np.searchsorted(grid.nodes, r, "right") - 1, 0, grid.n - 2)


def _on_axis(r):
    """Positions (r, 0): their binning has the radii r exactly."""
    return np.column_stack([r, np.zeros_like(r)])


@st.composite
def grids_any(draw):
    """Uniform, log, hybrid and solver grids (5R times the solver shape).

    Log grids with a small inner radius need more buckets than the table
    cap, which exercises the ``searchsorted`` fallback.
    """
    n = draw(st.integers(16, 512))
    kind = draw(st.sampled_from(["uniform", "log", "hybrid", "solver"]))
    r_max = draw(st.floats(1e-3, 1e3))
    if kind == "uniform":
        return RadialGrid(np.linspace(0.0, r_max, n))
    if kind == "log":
        r_min = r_max * draw(st.floats(1e-7, 0.5))
        return RadialGrid(np.geomspace(r_min, r_max, n))
    if kind == "hybrid":
        return RadialGrid.hybrid(r_max * draw(st.floats(0.05, 0.95)), r_max,
                                 max(n, 32))
    shape = RadialGrid.hybrid(0.25, 1.0, max(n, 32)).shape()
    return RadialGrid(5.0 * r_max * shape.nodes)


@st.composite
def radii_on(draw, grid):
    """Radii in [0, 2 r_max]: random, exact nodes, 0, r_max and past it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = [rng.random(2000) * 2.0 * grid.r_max,
         grid.r_max * 10.0 ** rng.uniform(-9.0, 0.3, 500),
         rng.choice(grid.nodes, 200),
         [0.0, grid.nodes[0], grid.r_max, np.nextafter(grid.r_max, np.inf),
          2.0 * grid.r_max]]
    return np.concatenate(r)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_locate_matches_searchsorted_rule(data):
    grid = data.draw(grids_any())
    r = data.draw(radii_on(grid))
    idx, frac = grid._locate(r)
    ref = _searchsorted_cells(grid, r)
    assert np.array_equal(idx, ref)
    rc = np.clip(r, grid.nodes[0], grid.r_max)
    assert np.array_equal(frac, (rc - grid.nodes[ref])
                          / (grid.nodes[ref + 1] - grid.nodes[ref]))


def test_locate_past_the_bucket_cap_uses_searchsorted():
    # 512 log nodes over 9 decades: an exact table would need more than
    # _LOCATE_MAX_BUCKETS buckets
    grid = RadialGrid(np.geomspace(1e-6, 1e3, 512))
    assert grid.r_max / np.diff(grid.nodes).min() > grids._LOCATE_MAX_BUCKETS
    assert grid._cell_table.cells is None
    r = np.concatenate([grid.nodes, 10.0 ** np.linspace(-7.0, 3.5, 5001)])
    assert np.array_equal(grid._locate(r)[0], _searchsorted_cells(grid, r))


def test_locate_table_size_on_the_solver_grid():
    shape = RadialGrid.hybrid(0.25, 1.0, 256).shape()
    grid = RadialGrid(5.0 * 0.37 * shape.nodes)
    tab = grid._cell_table
    n_buckets = tab.cells.size - 1  # one more entry for r = r_max
    assert n_buckets == 766
    assert 1.0 / tab.scale < np.diff(grid.nodes).min()


def test_locate_rejects_nan():
    from flatsteady.errors import InputError
    with pytest.raises(InputError):
        RadialGrid(np.linspace(0.0, 1.0, 32))._locate(np.array([0.5, np.nan]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_deposit_keeps_the_retained_mass(data):
    grid = data.draw(grids_any())
    r = data.draw(radii_on(grid))
    m = np.random.default_rng(r.size).random(r.size) + 0.5
    rho = _bin(grid, _on_axis(r), m).rho
    inside = r <= grid.r_max
    retained = float(np.sum(m[inside]))
    # a node of zero ring weight (r = 0) holds no density: the share of
    # the first cell's particles assigned to it drops out of the ring mass
    origin = 0.0
    if grid.nodes[0] == 0.0:
        cell0 = r < grid.nodes[1]
        origin = float(np.sum(m[cell0] * (1.0 - r[cell0] / grid.nodes[1])))
    ring_mass = float(np.sum(grid.ring_weights * rho))
    assert ring_mass + origin == pytest.approx(retained, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_node_mass_moment_matches_profile_sum(data):
    # cloud-in-cell interpolation is the transpose of the deposit: the node
    # masses against U give sum_i m_i * U(r_i), 0 past r_max, node 0 included
    grid = data.draw(grids_any())
    r = data.draw(radii_on(grid))
    rng = np.random.default_rng(grid.n)
    U = -0.5 - rng.random(grid.n)          # potential-like: negative, O(1)
    m = rng.random(r.size) + 0.5
    got = float(_bin(grid, _on_axis(r), m).node_mass @ U)
    ref = float(np.sum(m * RadialProfile(grid, U)(r)))
    assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


# -- the one radius formula ----------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.floats(1e-150, 1e150), st.floats(1e-150, 1e150),
       st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]))
def test_radius_is_within_an_ulp_of_hypot_and_exact_on_the_axes(a, b, sa, sb):
    x = np.array([[sa * a, sb * b], [sa * a, 0.0], [0.0, sb * b]])
    r = _radius(x)
    ref = np.hypot(x[0, 0], x[0, 1])
    assert abs(r[0] - ref) <= np.spacing(ref)
    assert (r[1], r[2]) == (a, b)


def test_radius_past_the_squares_range_stays_finite(ss_wide):
    far = np.array([[1e200, 0.0], [0.0, -1e200], [3e-200, 4e-200], [0.0, 0.0]])
    r = _radius(far)
    assert np.array_equal(r, np.hypot(far[:, 0], far[:, 1]))
    ens = sample(ss_wide, 2000, seed=8)
    x = ens.positions.copy()
    x[0] = [1e200, 0.0]
    acc = accelerations(ParticleEnsemble(x, ens.velocities, ens.weights),
                        ss_wide.grid)
    assert np.all(np.isfinite(acc))


# -- regression against the separate searchsorted paths -----------------------

def _ref_deposit(grid, radii, masses):
    r = grid.nodes
    ringw = grid.ring_weights
    keep = radii <= r[-1]
    rad, m = radii[keep], masses[keep]
    idx = np.clip(np.searchsorted(r, rad) - 1, 0, r.size - 2)
    frac = (rad - r[idx]) / (r[idx + 1] - r[idx])
    rho = np.bincount(idx, weights=m * (1.0 - frac), minlength=r.size)
    rho += np.bincount(idx + 1, weights=m * frac, minlength=r.size)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(ringw > 0.0, rho / np.where(ringw > 0.0, ringw, 1.0), 0.0)


def _ref_self_energy(op, grid, radii, masses):
    r = grid.nodes
    ringw = grid.ring_weights
    keep = radii <= r[-1]
    rad, m = radii[keep], masses[keep]
    idx = np.clip(np.searchsorted(r, rad) - 1, 0, r.size - 2)
    frac = (rad - r[idx]) / (r[idx + 1] - r[idx])
    safe = np.where(ringw > 0.0, ringw, np.inf)
    wa = m * (1.0 - frac) / safe[idx]
    wb = m * frac / safe[idx + 1]
    # the energies' bilinear form, scale * sym(W K), built in full
    wk = (op.scale * ringw)[:, None] * op.kmat
    s = 0.5 * (wk + wk.T)
    return 0.5 * float(np.sum(wa * wa * s[idx, idx]
                              + 2.0 * wa * wb * s[idx, idx + 1]
                              + wb * wb * s[idx + 1, idx + 1]))


def _ref_histogram_casimir(model, ens):
    # the package's one radius, so that a bitwise comparison tests the
    # histogram arithmetic alone (np.hypot differs from it by an ulp)
    r = _radius(ens.positions)
    w = 0.5 * np.sum(ens.velocities ** 2, axis=1)
    return _ref_histogram_casimir_rw(model, r, w, ens.weights)


def _ref_histogram_casimir_rw(model, r, w, weights):
    nb = []
    for x in (r, w):
        sig = float(np.std(x))
        if sig == 0.0:
            nb.append(1)
            continue
        h = sig * r.size ** (-1.0 / 6.0)
        nb.append(int(np.clip(np.ceil((x.max() - x.min()) / h), 1, 512)))
    hist, (re, we) = np.histogramdd(np.column_stack([r, w]), bins=nb,
                                    weights=weights)
    # a constant r column below 1/2 gets an edge below 0; the ring stops there
    re = np.maximum(re, 0.0)
    vol = 2.0 * np.pi * (np.pi * (re[1:] ** 2 - re[:-1] ** 2))[:, None] \
        * np.diff(we)[None, :]
    occ = hist > 0.0
    return float(np.sum(model.Q(hist[occ] / vol[occ]) * vol[occ]))


def _ref_row(model, ss, ens):
    """The row as evaluate_ensemble and stability_distance built it."""
    grid, op, w = ss.grid, operator_for(ss.grid), ens.weights
    radii = np.hypot(ens.positions[:, 0], ens.positions[:, 1])
    v2 = np.sum(ens.velocities ** 2, axis=1)
    e_kin = 0.5 * float(np.sum(w * v2))
    rho = _ref_deposit(grid, radii, w)
    self_e = _ref_self_energy(op, grid, radii, w)
    e_pot = min(op.potential_energy(rho) - self_e, 0.0)
    casimir = _ref_histogram_casimir(model, ens)
    inv, ringw = ss.inv, grid.ring_weights
    s = np.maximum(ss.s_values, 0.0)
    c_f0 = float(np.sum(ringw * 2.0 * np.pi * (s * inv.G(s) - 2.0 * inv.G2(s))))
    e_f = float(np.sum(w * (0.5 * v2 + ss.U0(radii) - ss.E0)))
    e_f0 = float(np.sum(ringw * 2.0 * np.pi * (inv.G2(s) - s * inv.G(s))))
    return {"e_kin": e_kin, "e_pot": e_pot, "casimir": casimir,
            "D": (e_kin + casimir) + e_pot,
            "d_dist": (casimir - c_f0) + (e_f - e_f0),
            "epot_diff": op.potential_energy(rho - ss.rho0.values) - self_e}


@pytest.fixture(scope="module")
def ens_edge(ss_wide):
    """A sampled ensemble with a few particles pushed past the grid."""
    ens = sample(ss_wide, 200_000, seed=13)
    x = ens.positions.copy()
    x[:50] *= 1.5 * ss_wide.grid.r_max / np.hypot(*x[:50].T)[:, None]
    x[50] = [ss_wide.grid.r_max, 0.0]
    x[51] = [0.0, 0.0]
    return ParticleEnsemble(x, ens.velocities, ens.weights)


def test_force_gather_matches_spline_derivative(ss_wide, ens_edge):
    grid = ss_wide.grid
    x, w = ens_edge.positions, ens_edge.weights
    radii = np.hypot(x[:, 0], x[:, 1])
    rho = _ref_deposit(grid, radii, w)
    U = operator_for(grid).potential(rho)
    dU = CubicSpline(grid.nodes, U).derivative()(np.clip(radii, 0.0, grid.r_max))
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(radii > 0.0, -dU / np.where(radii > 0.0, radii, 1.0), 0.0)
    # past the grid, the monopole of the deposited mass
    outside = radii > grid.r_max
    assert outside.any()
    scale[outside] = -(grid.ring_weights @ rho) / radii[outside] ** 3
    ref = scale[:, None] * x
    got = _grid_accel_arrays(x, _bin(grid, x, w))
    np.testing.assert_allclose(got, ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))


def test_fused_row_matches_separate_paths(poly_wide, ss_wide, ens_edge):
    row, past = _ensemble_row(poly_wide, ens_edge,
                              _bin(ss_wide.grid, ens_edge.positions,
                                   ens_edge.weights), ss_wide)
    assert list(row) == ["t", "e_kin", "e_pot", "casimir", "D", "d_dist",
                         "epot_diff", "L3", "max_r"]
    ref = _ref_row(poly_wide, ss_wide, ens_edge)
    for key, value in ref.items():
        assert row[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
    # the kinetic sum and the histogram Casimir keep their arithmetic
    assert (row["e_kin"], row["casimir"]) == (ref["e_kin"], ref["casimir"])
    d, epot_diff = stability_distance(ss_wide, ens_edge)
    assert (d, epot_diff) == (row["d_dist"], row["epot_diff"])
    rep = evaluate_ensemble(poly_wide, ens_edge, grid=ss_wide.grid)
    assert (rep.e_pot, rep.casimir, rep.d) == (row["e_pot"], row["casimir"], row["D"])
    assert past == pytest.approx(50 / ens_edge.n, rel=1e-12)


@pytest.mark.parametrize("method,output_every",
                         [("grid", 1), ("grid", 3)])
def test_run_bins_once_per_position_update(monkeypatch, poly_wide, ss_wide,
                                           method, output_every):
    calls = []

    def counted(*args):
        calls.append(args)
        return _bin(*args)

    monkeypatch.setattr(functionals, "_bin", counted)
    monkeypatch.setattr(simulate, "_bin", counted)
    t_dyn = ss_wide.dynamical_time()
    cfg = SimConfig(n_particles=2000, dt=0.01 * t_dyn, t_end=0.1 * t_dyn,
                    method=method, seed=3, output_every=output_every)
    out = run(ss_wide, cfg, model=poly_wide)
    assert len(out["rows"]) == 1 + -(-10 // output_every)
    # t = 0 and each of the 10 drifts, plus the two halves of eps_mc: the
    # force, the rows, the escape count and clamped share these
    assert len(calls) == 10 + 1 + 2


# -- one definition of outside the grid ----------------------------------------

def test_particle_past_grid_is_counted_and_not_deposited(poly_wide, ss_wide):
    grid = ss_wide.grid
    ens = sample(ss_wide, 5000, seed=21)
    far = ParticleEnsemble(np.vstack([ens.positions, [[2.0 * grid.r_max, 0.0]]]),
                           np.vstack([ens.velocities, [[0.0, 0.1]]]),
                           np.append(ens.weights, 0.25))
    binned = _bin(grid, far.positions, far.weights)
    _, past = _ensemble_row(poly_wide, far, binned, ss_wide)
    assert past == pytest.approx(0.25 / far.mass, rel=1e-12)
    assert np.array_equal(binned.rho,
                          _bin(grid, ens.positions, ens.weights).rho)


def test_run_reports_mass_past_grid(poly_wide, ss_wide):
    cfg = SimConfig(n_particles=2000, dt=0.01, t_end=0.02, method="grid",
                    seed=4, output_every=1)
    assert run(ss_wide, cfg, model=poly_wide)["mass_past_grid"] == 0.0
    # radius-scale by 6 puts everything beyond r_max / 6 past the grid edge
    out = run(ss_wide, cfg, perturbation="radius-scale", delta=5.0,
              model=poly_wide)
    start = sample(ss_wide, 2000, seed=4)
    frac0 = np.mean(6.0 * start.radii() > ss_wide.grid.r_max)
    assert frac0 > 0.0
    assert out["mass_past_grid"] >= frac0 - 1e-12


# -- the one cell lookup on the histogram's axes --------------------------------

@st.composite
def hist_columns(draw):
    """(r, w) samples with repeated values, a constant column or one only a
    few ulps wide now and then, and the extremes placed more than once."""
    n = draw(st.integers(2, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cols = []
    for _ in range(2):
        kind = draw(st.sampled_from(["uniform", "lattice", "constant", "skewed",
                                     "narrow"]))
        scale = 10.0 ** draw(st.floats(-6.0, 6.0))
        if kind == "uniform":
            x = rng.random(n) * scale
        elif kind == "narrow":  # a spread of a few ulps: bins below rounding
            x = scale * (1.0 + rng.integers(0, 50, n) * 2.0 ** -52)
        elif kind == "lattice":  # many values on exact multiples of a step
            x = rng.integers(0, draw(st.integers(1, 64)), n) * (scale / 8.0)
        elif kind == "constant":
            x = np.full(n, scale)
        else:
            x = rng.exponential(scale, n) + draw(st.floats(-1e3, 1e3))
        x[rng.integers(0, n, 3)] = x.max()
        cols.append(x)
    return cols[0], cols[1], rng.random(n) + 0.5


def _place_edges(x, edges, rng):
    """Put exact bin edges in x without moving its min or max."""
    interior = np.nonzero((x > x.min()) & (x < x.max()))[0]
    k = min(interior.size, edges.size - 2)
    if k > 0:
        x[rng.choice(interior, k, replace=False)] = rng.permutation(edges[1:-1])[:k]


@settings(max_examples=80, deadline=None)
@given(hist_columns(), st.integers(1, 512), st.integers(0, 2 ** 32 - 1))
def test_cell_table_matches_histogramdd_rule(cols, nb, seed):
    from flatsteady.functionals import _uniform_edges
    x = cols[0].copy()
    edges = _uniform_edges(x, nb)
    _place_edges(x, edges, np.random.default_rng(seed))
    ref_counts, ref_edges = np.histogramdd(x[:, None], bins=[nb])
    assert np.array_equal(edges, ref_edges[0])
    cell = grids._CellTable(edges)(x)
    assert np.array_equal(np.bincount(cell, minlength=nb), ref_counts)
    ref_cell = np.searchsorted(edges, x, "right") - 1
    ref_cell[x == edges[-1]] -= 1
    assert np.array_equal(cell, ref_cell)


@settings(max_examples=80, deadline=None)
@given(hist_columns(), st.integers(0, 2 ** 32 - 1))
def test_phase_histogram_matches_histogramdd(cols, seed):
    from flatsteady.functionals import _histogram_casimir, _phase_histogram
    r, w, weights = cols
    hist, r_edges, w_edges = _phase_histogram(r, w, weights)
    # exact edges in both columns; the bin counts depend only on std, min and
    # max, so redraw once with the edges in place
    rng = np.random.default_rng(seed)
    r, w = r.copy(), w.copy()
    _place_edges(r, r_edges, rng)
    _place_edges(w, w_edges, rng)
    hist, r_edges, w_edges = _phase_histogram(r, w, weights)
    ref, (ref_r, ref_w) = np.histogramdd(np.column_stack([r, w]),
                                         bins=hist.shape, weights=weights)
    assert np.array_equal(r_edges, ref_r) and np.array_equal(w_edges, ref_w)
    assert hist.tobytes() == ref.tobytes()
    model = CasimirModel.polytrope(0.5, c=57.0)
    r, w = np.abs(r), np.abs(w)  # radii and kinetic energies
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero-area ring
        got = _histogram_casimir(model, r, w, weights)
        ref = _ref_histogram_casimir_rw(model, r, w, weights)
    assert np.float64(got).tobytes() == np.float64(ref).tobytes()
