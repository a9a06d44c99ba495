"""One potential assembly per grid shape: homogeneity and the cache contract.

The flat-disc kernel is homogeneous of degree one, so the operator on
lam*g is lam times the operator on g; ``operator_for`` relies on this to
hand out scaled views of one assembly per grid shape.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings, strategies as st

from flatsteady import CasimirModel, RadialGrid, SolverOptions, evaluate_steady, solve
from flatsteady import potential
from flatsteady.potential import FlatPotentialOperator, operator_for

_SCALE = st.floats(1e-3, 1e3)
# no tiny coefficients: their subnormal products would lose relative precision
_COEF = st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3)


@st.composite
def unit_grids(draw):
    """Uniform, log or hybrid grids with r_max = 1.

    Every panel is integrated by Gauss-Legendre in a variable that scales
    with the grid, so an assembly is homogeneous to roundoff at any n.  The
    view is compared with a looser bound: it is assembled on
    ``grid.shape()``, whose nodes are rounded to 12 significant digits.
    """
    kind = draw(st.sampled_from(["uniform", "log", "hybrid"]))
    # a hybrid grid needs 8 tail nodes beyond its 75% core
    n = draw(st.integers(32 if kind == "hybrid" else 16, 160))
    if kind == "uniform":
        return RadialGrid.uniform(1.0, n)
    if kind == "log":
        return RadialGrid.log(draw(st.floats(1e-3, 0.5)), 1.0, n)
    return RadialGrid.hybrid(draw(st.floats(0.2, 0.8)), 1.0, n)


@settings(max_examples=15, deadline=None)
@given(unit_grids(), _SCALE)
def test_kernel_homogeneous_of_degree_one(grid, lam):
    k_unit = FlatPotentialOperator(grid).kmat
    scaled = RadialGrid(lam * grid.nodes)
    k_scaled = FlatPotentialOperator(scaled).kmat
    norm = np.linalg.norm(k_scaled)
    assert np.linalg.norm(k_scaled - lam * k_unit) / norm <= 1e-12
    # the cached view stands in for the independent assembly, up to the
    # 12-digit rounding of the shape it was assembled on
    assert np.linalg.norm(operator_for(scaled).kmat - k_scaled) / norm <= 1e-8


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
    grids = [RadialGrid.uniform(1.0 + k, 16 + k % 4) for k in range(20)]
    for grid in grids:
        operator_for(grid)
        assert len(potential._OP_CACHE) <= potential._CACHE_SIZE
    # the most recent lookup survives the evictions it caused
    assert operator_for(grids[-1]) is potential._OP_CACHE[grids[-1].key()]
