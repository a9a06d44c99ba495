"""One potential assembly per grid shape: homogeneity and the cache contract.

The flat-disc kernel is homogeneous of degree one, so the operator on
lam*g is lam times the operator on g; ``operator_for`` relies on this to
give every grid of one shape that shape's assembled kmat, times a scale.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings, strategies as st

from flatsteady import CasimirModel, RadialGrid, SolverOptions, evaluate_steady, solve
from flatsteady import functionals, potential, steady
from flatsteady.functionals import _bin, _ensemble_row
from flatsteady.potential import FlatPotentialOperator, operator_for
from flatsteady.simulate import ParticleEnsemble

_SCALE = st.floats(1e-3, 1e3)
# no tiny coefficients: their subnormal products would lose relative precision
_COEF = st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3)


@st.composite
def unit_grids(draw, n_min=16, n_max=160):
    """Uniform, log or hybrid grids with r_max = 1.

    Every panel is integrated by Gauss-Legendre in a variable that scales
    with the grid, so an assembly is homogeneous to roundoff at any n.  The
    cached operator is compared with a looser bound: it is assembled on
    ``grid.shape()``, whose node mantissas are rounded to 40 bits.
    """
    kind = draw(st.sampled_from(["uniform", "log", "hybrid"]))
    # a hybrid grid needs 8 tail nodes beyond its 75% core
    n = draw(st.integers(max(n_min, 32) if kind == "hybrid" else n_min, n_max))
    if kind == "uniform":
        return RadialGrid(np.linspace(0.0, 1.0, n))
    if kind == "log":
        return RadialGrid(np.geomspace(draw(st.floats(1e-3, 0.5)), 1.0, n))
    return RadialGrid.hybrid(draw(st.floats(0.2, 0.8)), 1.0, n)


@settings(max_examples=15, deadline=None)
@given(unit_grids(), _SCALE)
def test_kernel_homogeneous_of_degree_one(grid, lam):
    k_unit = FlatPotentialOperator(grid).kmat
    scaled = RadialGrid(lam * grid.nodes)
    k_scaled = FlatPotentialOperator(scaled).kmat
    norm = np.linalg.norm(k_scaled)
    assert np.linalg.norm(k_scaled - lam * k_unit) / norm <= 1e-12
    # the shape's kmat times the scale stands in for the independent
    # assembly, up to the 40-bit rounding of the shape it was assembled on
    op = operator_for(scaled)
    assert np.linalg.norm(op.scale * op.kmat - k_scaled) / norm <= 1e-8


@settings(max_examples=25, deadline=None)
@given(_SCALE, st.integers(0, 2 ** 32 - 1), _COEF, _COEF)
def test_views_keep_exact_symmetry_and_linearity(lam, seed, a, b):
    base = RadialGrid.hybrid(0.75, 1.0, 96)
    op = operator_for(RadialGrid(lam * base.nodes))
    rng = np.random.default_rng(seed)
    rho1, rho2 = rng.random(base.n), rng.random(base.n)
    assert op.interaction_energy(rho1, rho2) == op.interaction_energy(rho2, rho1)
    u1, u2 = op.potential(rho1), op.potential(rho2)
    lhs = op.potential(a * rho1 + b * rho2)
    scale = abs(a) * np.max(np.abs(u1)) + abs(b) * np.max(np.abs(u2))
    assert np.max(np.abs(lhs - (a * u1 + b * u2))) <= 1e-13 * scale


def _outer_product_energies(op, rho1, rho2):
    """(E_pot(rho1), int rho1 U_rho2) by the full symmetrized form
    scale * sym(W K) and the symmetrized outer product of the densities."""
    wk = (op.scale * op.grid.ring_weights)[:, None] * op.kmat
    form = 0.5 * (wk + wk.T)

    def pair(a, b):
        return float(np.sum(form * (0.5 * (a[:, None] * b[None, :]
                                           + b[:, None] * a[None, :]))))

    return 0.5 * pair(rho1, rho1), pair(rho1, rho2)


@settings(max_examples=30, deadline=None)
@given(unit_grids(40, 400), _SCALE, st.integers(0, 2 ** 32 - 1))
def test_energies_match_the_outer_product_form(grid, lam, seed):
    # the energies come from the matvec; the full n x n form is the reference
    op = operator_for(RadialGrid(lam * grid.nodes))
    rng = np.random.default_rng(seed)
    rho1, rho2 = rng.random(grid.n), rng.random(grid.n)
    e_pot, e_int = _outer_product_energies(op, rho1, rho2)
    assert op.potential_energy(rho1) == 0.5 * op.interaction_energy(rho1, rho1)
    assert abs(op.potential_energy(rho1) - e_pot) <= 1e-13 * abs(e_pot)
    assert abs(op.interaction_energy(rho1, rho2) - e_int) <= 1e-13 * abs(e_int)


def _fresh_cache(monkeypatch):
    monkeypatch.setattr(potential, "_OP_CACHE", OrderedDict())


def test_solves_at_one_n_share_one_assembly(monkeypatch):
    _fresh_cache(monkeypatch)
    calls = []
    assemble = FlatPotentialOperator._assemble

    def counted(self):
        calls.append(self.grid.n)
        return assemble(self)

    monkeypatch.setattr(FlatPotentialOperator, "_assemble", counted)
    opts = SolverOptions(n=192)
    runs = [(CasimirModel.polytrope(0.5, c=1.0), 1.0),
            (CasimirModel.polytrope(0.5, c=1.0), 2.0),
            (CasimirModel.polytrope(0.75, c=1.0, mu3=0.5), 0.5),
            (CasimirModel.double_power(0.4, 0.9, 1.0, 0.5, F0=2.0), 1.0)]
    for model, mass in runs:
        evaluate_steady(model, solve(model, mass, opts))
    assert calls == [192]


def test_solve_and_diagnostics_hold_only_the_shared_kmat(monkeypatch):
    # a solve looks up one operator, on the grid of edge radius 1; the state's
    # grid is a multiple of it, and the energies need no second matrix
    _fresh_cache(monkeypatch)
    ops = []

    def recorded(grid):
        ops.append(potential.operator_for(grid))
        return ops[-1]

    monkeypatch.setattr(steady, "operator_for", recorded)
    model = CasimirModel.double_power(0.5, 0.75)
    ss = solve(model, 1.0, SolverOptions(n=192))
    assert len(ops) == 1
    assert ss.grid.shape().key() == ops[0].grid.shape().key()

    n_solve = len(ops)
    monkeypatch.setattr(functionals, "operator_for", recorded)
    evaluate_steady(model, ss)
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, (1000, 2)) * ss.grid.r_max
    ens = ParticleEnsemble(x, rng.normal(size=(1000, 2)), np.full(1000, 1e-3))
    _ensemble_row(model, ens, _bin(ss.grid, ens.positions, ens.weights), ss)
    n = ss.grid.n
    held = [(op, v) for op in ops + list(potential._OP_CACHE.values())
            for v in vars(op).values()
            if isinstance(v, np.ndarray) and v.shape == (n, n)]
    assert len(ops) > n_solve
    assert all(op.kmat is ops[0].kmat for op in ops)
    assert held and all(v is op.kmat for op, v in held)


def test_potential_independent_of_cache_history(monkeypatch):
    shape = RadialGrid.hybrid(0.25, 1.0, 128).shape()
    grid = RadialGrid(3.0 * shape.nodes)
    other = RadialGrid(0.7 * shape.nodes)
    assert other.shape().key() == grid.shape().key()
    rho = np.exp(-grid.nodes ** 2)

    _fresh_cache(monkeypatch)
    cold = operator_for(grid).potential(rho)
    _fresh_cache(monkeypatch)
    operator_for(other)
    warm = operator_for(grid).potential(rho)
    assert cold.tobytes() == warm.tobytes()


def test_cache_stays_within_its_bound(monkeypatch):
    _fresh_cache(monkeypatch)
    # 20 grids of 20 shapes: every lookup assembles, and the oldest go
    grids = [RadialGrid(np.geomspace(10.0 ** (-1.0 - 0.1 * k), 1.0 + k,
                                     16 + k % 4))
             for k in range(20)]
    assert len({g.shape().key() for g in grids}) == len(grids)
    for grid in grids:
        operator_for(grid)
        assert len(potential._OP_CACHE) <= potential._CACHE_SIZE
    kept = grids[-potential._CACHE_SIZE:]
    assert list(potential._OP_CACHE) == [g.shape().key() for g in kept]
    # the most recent lookup survives the evictions it caused
    base = potential._OP_CACHE[grids[-1].shape().key()]
    assert operator_for(grids[-1]).kmat is base.kmat


def test_shape_is_computed_once_per_grid(monkeypatch):
    grid = RadialGrid.hybrid(0.3, 2.0, 96)
    built = []
    post_init = RadialGrid.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    # every computation of a shape builds one shape grid
    monkeypatch.setattr(RadialGrid, "__post_init__", counted)
    operator_for(grid)
    operator_for(grid)
    assert len(built) == 1
    monkeypatch.undo()
    fresh = RadialGrid(grid.nodes.copy())
    assert fresh.shape() is not grid.shape()
    assert fresh.shape().key() == grid.shape().key()
    # each node of the shape is nodes / r_max to the nearest 40-bit mantissa
    unit, nodes = grid.nodes / grid.r_max, grid.shape().nodes
    m, e = np.frexp(nodes)
    assert np.all(np.ldexp(m, 40) == np.rint(np.ldexp(m, 40)))
    assert np.all(np.abs(nodes - unit) <= np.ldexp(1.0, e - 41))


@settings(max_examples=200, deadline=None)
@given(unit_grids(), st.floats(-300.0, 300.0))
def test_shape_is_exact_under_scaling(grid, log_lam):
    # a multiple of a shape, over its own r_max, is a few ulps from the
    # shape's 40-bit nodes, and the rounding maps it straight back
    shape = grid.shape()
    assert shape.r_max == 1.0
    assert RadialGrid(10.0 ** log_lam * shape.nodes).shape().key() == shape.key()


def test_second_solve_assembles_no_operator(monkeypatch, cold_cache):
    _fresh_cache(monkeypatch)
    model = CasimirModel.polytrope(0.5, c=57.0)
    opts = SolverOptions(n=160)
    solve(model, 1.0, opts)
    cold_cache()  # the second solve runs its loop, not a cached state's image
    assembled, ops = [], []
    assemble = FlatPotentialOperator._assemble

    def counted(self):
        assembled.append(self.grid.n)
        return assemble(self)

    def recorded(grid):
        ops.append(potential.operator_for(grid))
        return ops[-1]

    monkeypatch.setattr(FlatPotentialOperator, "_assemble", counted)
    monkeypatch.setattr(steady, "operator_for", recorded)
    solve(model, 2.0, opts)
    assert assembled == [] and len(ops) == 1
    # the solver's operator holds the one cached kmat, at the scale its
    # grid's shape gives
    unit = RadialGrid.hybrid(0.25, 1.0, 160).shape()
    kmat = potential._OP_CACHE[unit.key()].kmat
    for op in ops:
        fresh = RadialGrid(op.grid.nodes.copy()).shape()
        assert op.kmat is kmat
        assert fresh.key() == unit.key()
        assert op.scale == op.grid.r_max / fresh.r_max
