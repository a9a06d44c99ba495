"""Energy and Casimir functionals, scaling transforms, and stability metrics.

For steady states every phase-space integral reduces through isotropy in v:
with w = |v|^2 / 2 and s = E0 - U0(r),

    rho0     = 2*pi*G(s),
    kinetic  = 2*pi*G2(s),
    Casimir  = 2*pi*(s*G(s) - 2*G2(s))   per unit area,

so only 1D radial quadratures remain.  Ensembles are evaluated directly:
kinetic energy particle-wise, potential energy through the deposited ring
density with per-particle self energies removed, and the Casimir through a
phase-space histogram in the reduced coordinates (r, |v|^2/2), the dominant
error term of the ensemble path.  ``_bin`` is the one particle-to-grid
step (``_radius``, ``RadialGrid._locate`` cells and the deposit, whose node
masses it keeps) of particle positions; one binning per position update
serves the grid force, every particle sum of a diagnostics row and
``run``'s counts.  ``_ensemble_row`` builds that row: one chunked pass
forms each particle's kinetic and self-energy terms, and the U0 moment is
the node masses times U0, with no U0 lookup per particle.
``evaluate_ensemble`` and ``stability_distance`` read their rows from it.  The per-particle maps
run in chunks on the thread pool of ``grids._map_chunks``; every reduction
runs on the whole array, so no result depends on the worker count or the
chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .casimir import CasimirModel, _velocity_moments
from .errors import InputError
from .grids import RadialGrid, RadialProfile, _CellTable, _map_chunks
from .potential import FlatPotentialOperator, lp_norm, operator_for
from .steady import _RESIDUAL_CAP, SteadyState

__all__ = ["FunctionalReport", "ScalingParams", "evaluate_steady",
           "evaluate_ensemble", "rescale_steady", "scaling_inequality_check",
           "split_diagnostic", "stability_distance", "alpha_from_mu3",
           "proof_scaling_params"]

# smallest normal float64: a sum of squares below it has lost digits
_SQUARE_MIN = np.finfo(float).tiny


@dataclass
class FunctionalReport:
    """Values of the defining functionals for one state."""

    mass: float
    e_kin: float
    e_pot: float
    casimir: float

    def __post_init__(self):
        bad = [k for k, v in vars(self).items() if not np.isfinite(v)]
        if bad:
            raise InputError(f"FunctionalReport: non-finite {', '.join(bad)}")
        if self.e_kin < 0 or self.casimir < 0:
            raise InputError("FunctionalReport: e_kin and casimir must be >= 0")
        if self.e_pot > 0:
            raise InputError("FunctionalReport: e_pot must be <= 0")

    @property
    def p(self) -> float:
        return self.e_kin + self.casimir

    @property
    def d(self) -> float:
        return self.p + self.e_pot

    def to_dict(self, checks=None) -> dict:
        return {
            "mass": self.mass, "e_kin": self.e_kin, "e_pot": self.e_pot,
            "casimir": self.casimir, "p": self.p, "d": self.d,
            "checks": list(checks or []),
        }


@dataclass(frozen=True)
class ScalingParams:
    """Scale factors of the transform f_bar(x, v) = a * f(b*x, c*v)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.c <= 0:
            raise InputError("ScalingParams: factors must be positive")


def alpha_from_mu3(mu3: float) -> float:
    """alpha = 1 / (1 - mu3); always recomputed, never stored."""
    if not (0.0 < mu3 < 1.0):
        raise InputError("alpha_from_mu3: mu3 must lie in (0, 1)")
    return 1.0 / (1.0 - mu3)


def proof_scaling_params(m: float, mu3: float) -> ScalingParams:
    """The (a, b, c) used to transport a mass-M2 state to mass m*M2.

    Chosen so that m*a^(1/mu3) = m*c^(-2) = m^2*b and a*b^(-2)*c^(-2) = m,
    which makes every term of the scaled functional pick up at least the
    factor m^(1+alpha)."""
    if not (0.0 < m <= 1.0):
        raise InputError("proof_scaling_params: need 0 < m <= 1")
    # b = a^(1/mu3)/m and c = a^(-1/(2*mu3)) in closed form: raising a to
    # the power 1/mu3 multiplies its rounding error by 1/mu3
    a = m ** (mu3 / (1.0 - mu3))
    return ScalingParams(a=a, b=a, c=m ** (-0.5 / (1.0 - mu3)))


# -- steady-state path -----------------------------------------------------

def evaluate_steady(model: CasimirModel, ss: SteadyState) -> FunctionalReport:
    """Exact (per quadrature) functionals of a converged state; model is ss.model."""
    if model is not ss.model:
        raise InputError("evaluate_steady: model is not the state's model")
    if ss.residual > _RESIDUAL_CAP:
        raise InputError(
            f"evaluate_steady: state residual {ss.residual:.3e} exceeds "
            f"{_RESIDUAL_CAP:.1e}; not a converged steady state")
    e_kin, casimir, _ = ss.moments
    op = operator_for(ss.grid)
    e_pot = op.potential_energy(ss.rho0.values)
    return FunctionalReport(mass=ss.mass, e_kin=e_kin, e_pot=min(e_pot, 0.0),
                            casimir=casimir)


# -- ensemble path ---------------------------------------------------------

class _Binning(NamedTuple):
    """One binning of particle positions on a grid; built by ``_bin``."""

    grid: RadialGrid
    radii: np.ndarray      # |x| of each particle
    idx: np.ndarray        # cell, from ``grid._locate``
    frac: np.ndarray       # in-cell fraction, from ``grid._locate``
    outside: np.ndarray    # r > r_max: the one definition of outside the grid
    rho: np.ndarray        # cloud-in-cell node density
    node_mass: np.ndarray  # cloud-in-cell node masses, node 0's share kept


def _cic_masses(frac, outside, masses, lo=None, hi=None) -> tuple:
    """Cloud-in-cell masses the particles give the lower and upper node of
    their cells; zero for particles outside the grid."""
    kept = np.where(outside, 0.0, masses)
    return (np.multiply(kept, 1.0 - frac, out=lo),
            np.multiply(kept, frac, out=hi))


def _radius(x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """|x| of each row of the positions x (N, 2): the one radius formula.

    sqrt(x0*x0 + x1*x1), in ``out`` when given; exact on the axes.  Where
    the sum of squares is not a finite normal number (a component past
    about 1e154 or below about 1e-154, or one that is not finite), that
    element falls back to ``np.hypot``, so a finite position never gets
    r = inf.  Each element's value does not depend on the others.
    """
    x0, x1 = x[:, 0], x[:, 1]
    with np.errstate(over="ignore"):
        r = np.multiply(x0, x0, out=out)
        r += x1 * x1
    bad = None
    if r.size and not (_SQUARE_MIN <= r.min() and r.max() < np.inf):
        bad = ~((r >= _SQUARE_MIN) & (r < np.inf))
    np.sqrt(r, out=r)
    if bad is not None:
        r[bad] = np.hypot(x0[bad], x1[bad])
    return r


def _bin(grid: RadialGrid, x: np.ndarray, masses: np.ndarray) -> _Binning:
    """The one particle-to-grid binning, shared by every layer that needs it.

    One chunked pass over the positions x (N, 2) computes each radius, its
    cell and fraction, the outside mask and each particle's cloud-in-cell
    masses; two whole-array ``bincount`` calls sum them into the node
    masses, which are kept and give the ring density rho.  Mass past r_max
    is not deposited, and the share of a node of zero ring weight (a first
    node at r = 0) stays in the node masses and drops out of rho.  The
    radius is ``_radius``'s sqrt(x0*x0 + x1*x1), computed in place, with its
    ``np.hypot`` fallback for a sum of squares that overflows or underflows.
    """
    n = masses.size
    radii, idx = np.empty(n), np.empty(n, dtype=np.intp)
    frac, lo, hi = np.empty(n), np.empty(n), np.empty(n)
    outside = np.empty(n, dtype=bool)

    def chunk(a, b):
        r = _radius(x[a:b], out=radii[a:b])
        idx[a:b], frac[a:b] = grid._locate(r)
        _cic_masses(frac[a:b], np.greater(r, grid.r_max, out=outside[a:b]),
                    masses[a:b], lo[a:b], hi[a:b])

    _map_chunks(chunk, n)
    return _Binning(grid, radii, idx, frac, outside, *_deposit(grid, idx, lo, hi))


def _deposit(grid: RadialGrid, idx, lo, hi) -> tuple:
    """(rho, node_mass): two whole-array ``bincount`` calls sum the lower
    and upper cloud-in-cell masses of cells idx into the node masses."""
    node_mass = np.bincount(idx, weights=lo, minlength=grid.n)
    # the node above cell i is i + 1: shift instead of a second index array
    node_mass[1:] += np.bincount(idx, weights=hi, minlength=grid.n)[:-1]
    ringw = grid.ring_weights
    return node_mass / np.where(ringw > 0.0, ringw, np.inf), node_mass


def _bin_part(binned: _Binning, masses: np.ndarray, part: slice) -> _Binning:
    """The binning of the particles ``part`` of a binned ensemble with
    ``masses``: slices of its per-particle arrays and their own deposit,
    bit for bit what ``_bin`` gives for those particles alone."""
    idx, frac, outside = binned.idx[part], binned.frac[part], binned.outside[part]
    lo, hi = _cic_masses(frac, outside, masses[part])
    return _Binning(binned.grid, binned.radii[part], idx, frac, outside,
                    *_deposit(binned.grid, idx, lo, hi))


def _uniform_edges(x: np.ndarray, nb: int) -> np.ndarray:
    """``np.histogramdd``'s edges of nb equal bins over [min(x), max(x)],
    widened by 1/2 on each side for a constant column."""
    lo, hi = x.min(), x.max()
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, nb + 1)


def _phase_histogram(r: np.ndarray, w: np.ndarray, weights: np.ndarray) -> tuple:
    """(hist, r_edges, w_edges): the weighted (r, w) histogram with Scott's
    rule bin counts per dimension, equal bit for bit to ``np.histogramdd``'s;
    the bins come from ``grids._CellTable``, as ``RadialGrid._locate``'s do.
    A non-finite r or w (a runaway particle) raises ``InputError``."""
    n = r.size
    edges = []
    for name, x in (("r", r), ("w", w)):
        if not (np.isfinite(x.min()) and np.isfinite(x.max())):
            raise InputError(f"phase histogram: non-finite {name} column "
                             "(r = |x|, w = |v|^2/2)")
        with np.errstate(over="ignore"):
            sig = float(np.std(x))
        if sig == np.inf:  # the squares overflowed: the same std of x / 2^k
            k = np.frexp(max(-x.min(), x.max()))[1]
            sig = float(np.ldexp(np.std(np.ldexp(x, -k)), k))
        nb = 1
        if sig != 0.0:
            h = sig * n ** (-1.0 / 6.0)
            nb = int(np.clip(np.ceil((x.max() - x.min()) / h), 1, 512))
        edges.append(_uniform_edges(x, nb))
    r_edges, w_edges = edges
    r_cell, w_cell = _CellTable(r_edges), _CellTable(w_edges)
    nb_w = w_edges.size - 1
    cell = np.empty(n, dtype=np.intp)

    def chunk(a, b):
        np.add(r_cell(r[a:b]) * nb_w, w_cell(w[a:b]), out=cell[a:b])

    _map_chunks(chunk, n)
    hist = np.bincount(cell, weights=weights, minlength=(r_edges.size - 1) * nb_w)
    return hist.reshape(-1, nb_w), r_edges, w_edges


def _histogram_casimir(model: CasimirModel, r: np.ndarray, w: np.ndarray,
                       weights: np.ndarray) -> float:
    """C(f) from a histogram density estimate on phase-space cells.

    Cells live in the reduced coordinates (r, w = |v|^2/2); a raw 4D
    histogram leaves so little mass per cell that the noise bias of the
    superlinear Q dwarfs the value, while the (r, w) reduction (exact for
    any state isotropic in v, which the sampled and axisymmetrically
    perturbed ensembles are) concentrates the counts.  Bin widths follow
    Scott's rule per reduced dimension; the cell volume element is
    2*pi^2*(r2^2 - r1^2)*dw.  A cell whose volume V overflows (inf, or NaN
    from inf - inf) contributes its limit 0: Q(h/V)*V -> 0 as V grows, for
    a superlinear Q with Q(0) = 0.  This estimate remains the dominant
    error of the ensemble path.
    """
    hist, r_edges, w_edges = _phase_histogram(r, w, weights)
    # a constant r column below 1/2 is widened past r = 0, where its ring
    # stops; unclipped, a column at r = 0 gets a ring of area 0
    r_edges = np.maximum(r_edges, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        ann = np.pi * (r_edges[1:] ** 2 - r_edges[:-1] ** 2)
        vol = 2.0 * np.pi * ann[:, None] * np.diff(w_edges)[None, :]
    occ = (hist > 0.0) & (vol < np.inf)
    f_hat = hist[occ] / vol[occ]
    return float(np.sum(model.Q(f_hat) * vol[occ]))


def _ensemble_row(model: CasimirModel, ens, binned: _Binning,
                  ss: SteadyState = None) -> tuple:
    """(row, mass_past_grid): one diagnostics row of the ensemble from
    ``binned``, its binning, and the fraction of its mass past r_max.

    The row holds t, e_kin, e_pot (self-energies removed, clamped at 0),
    casimir, D; with a steady state ss on the binning's grid also d_dist
    (d(f, f0), its U0 moment ``node_mass @ U0``) and epot_diff
    (E_pot(rho_f - rho0)); then L3 and max_r.  One chunked pass forms each
    particle's |v|^2/2, kinetic and self-energy terms.
    """
    w, v = ens.weights, ens.velocities
    n = w.size
    grid = binned.grid
    op = operator_for(grid)
    diag, sup = op.form_bands()
    ringw = grid.ring_weights
    safe = np.where(ringw > 0.0, ringw, np.inf)
    idx, frac, outside = binned.idx, binned.frac, binned.outside
    w_kin, wv2, quad = np.empty(n), np.empty(n), np.empty(n)

    def chunk(a, b):
        # |v|^2 as the sum over axis 1 of v**2, bit for bit, without its
        # per-row loop; a |v| past about 1.3e154 gives inf, which
        # _phase_histogram rejects
        with np.errstate(over="ignore"):
            v2 = np.square(v[a:b, 0])
            v2 += np.square(v[a:b, 1])
        np.multiply(0.5, v2, out=w_kin[a:b])
        np.multiply(w[a:b], v2, out=wv2[a:b])
        # twice the deposit self-energy: the form's 2x2 block on the
        # particle's two cell nodes, from its bands
        i = idx[a:b]
        wa, wb = _cic_masses(frac[a:b], outside[a:b], w[a:b])
        wa /= safe[i]
        wb /= safe[1:][i]
        quad[a:b] = (wa * wa * diag[i] + 2.0 * wa * wb * sup[i]
                     + wb * wb * diag[1:][i])

    _map_chunks(chunk, n)
    mass = float(np.sum(w))
    e_kin = 0.5 * float(np.sum(wv2))
    self_e = 0.5 * float(np.sum(quad))
    # each array goes once it is summed or read, so the histogram's and
    # L3's temporaries take its memory rather than raise the peak
    del wv2, quad
    casimir = _histogram_casimir(model, binned.radii, w_kin, w)
    del w_kin
    e_pot = min(op.potential_energy(binned.rho) - self_e, 0.0)
    row = {"t": ens.time, "e_kin": e_kin, "e_pot": e_pot, "casimir": casimir,
           "D": (e_kin + casimir) + e_pot}
    if ss is not None:
        _, c_f0, e_moment_f0 = ss.moments
        # sum_i w_i * U0(r_i) is node_mass @ U0: cloud-in-cell interpolation
        # is the transpose of the deposit
        e_moment_f = ((e_kin - ss.E0 * mass)
                      + float(binned.node_mass @ ss.U0.values))
        row["d_dist"] = (casimir - c_f0) + (e_moment_f - e_moment_f0)
        row["epot_diff"] = (op.potential_energy(binned.rho - ss.rho0.values)
                            - self_e)
    row["L3"] = ens.angular_momentum()
    row["max_r"] = float(np.max(binned.radii))
    return row, float(np.sum(w[binned.outside])) / mass


def evaluate_ensemble(model: CasimirModel, ens,
                      grid: RadialGrid = None) -> FunctionalReport:
    """Functionals of a particle ensemble.

    E_pot uses the deposited axisymmetric ring density with the particle
    self-energies removed: a single particle's E_pot is zero up to rounding.
    """
    if ens.positions.shape[0] == 0:
        raise InputError("evaluate_ensemble: empty ensemble")
    if grid is None:
        r_far = float(np.max(_radius(ens.positions)))
        r_out = max(1.5 * r_far, 1e-6)
        grid = RadialGrid.hybrid(0.75 * r_out, r_out, 256)
        # the energy form grows as r_out^3 and leaves float64 near r_out = 1e103
        with np.errstate(over="ignore", invalid="ignore"):
            bands = operator_for(grid).form_bands()
        if not all(np.isfinite(b).all() for b in bands):
            raise InputError(
                f"evaluate_ensemble: a particle at radius {r_far:g} takes the "
                f"automatic grid past the float64 range; pass a grid")
    row, _ = _ensemble_row(model, ens, _bin(grid, ens.positions, ens.weights))
    return FunctionalReport(mass=ens.mass, e_kin=row["e_kin"],
                            e_pot=row["e_pot"], casimir=row["casimir"])


# -- scaling ---------------------------------------------------------------

def rescale_steady(ss: SteadyState, p: ScalingParams) -> dict:
    """Predicted and directly evaluated functionals of f_bar = a*f0(b*x, c*v).

    The prediction applies the scaling identities term by term, with C(a*f0)
    from ``casimir._velocity_moments`` on the original grid.  The direct path
    materializes f_bar = a*q(s(b*r) - c^2*w), w in [0, s/c^2], on the scaled
    grid (nodes r/b), takes its density, kinetic energy and Casimir from the
    same evaluator, and its potential energy from an independently assembled
    operator on that density.
    """
    base = evaluate_steady(ss.model, ss)
    a, b, c = p.a, p.b, p.c
    q = ss.inv.q
    s = np.maximum(ss.s_values, 0.0)

    c_of_af = float(np.sum(ss.grid.ring_weights * _velocity_moments(
        ss.model, s, lambda t: a * q(t))[2]))
    predicted = {
        "mass": a * b ** -2 * c ** -2 * base.mass,
        "e_kin": a * b ** -2 * c ** -4 * base.e_kin,
        "e_pot": a ** 2 * b ** -3 * c ** -4 * base.e_pot,
        "casimir": b ** -2 * c ** -2 * c_of_af,
    }

    # at w = s/c^2 - t the rescaled density is a*q(s - c^2*w) = a*q(c^2*t)
    rho_bar, kin_bar, cas_bar = _velocity_moments(
        ss.model, s / c ** 2, lambda t: a * q(c ** 2 * t))
    scaled_grid = RadialGrid(ss.grid.nodes / b)
    ringw = scaled_grid.ring_weights
    # an independent assembly: operator_for would derive this operator from
    # the unscaled one by the same homogeneity the prediction uses
    op = FlatPotentialOperator(scaled_grid)
    direct = {
        "mass": float(np.sum(ringw * rho_bar)),
        "e_kin": float(np.sum(ringw * kin_bar)),
        "e_pot": op.potential_energy(rho_bar),
        "casimir": float(np.sum(ringw * cas_bar)),
    }
    return {"params": p, "predicted": predicted, "direct": direct,
            "base": base.to_dict()}


def scaling_inequality_check(model: CasimirModel, M1: float, M2: float,
                             solver_opts=None) -> dict:
    """D_{M1} >= (M1/M2)^(1+alpha) * D_{M2} via two solves, plus the proof
    mechanism on the rescaled M2 state."""
    from .steady import solve
    if not (0.0 < M1 <= M2):
        raise InputError("scaling_inequality_check: need 0 < M1 <= M2")
    mu3 = model.mu3
    alpha = alpha_from_mu3(mu3)
    m = M1 / M2
    ss1 = solve(model, M1, solver_opts)
    ss2 = solve(model, M2, solver_opts)
    d1 = evaluate_steady(model, ss1).d
    d2 = evaluate_steady(model, ss2).d
    rhs = m ** (1.0 + alpha) * d2
    margin = d1 - rhs

    p = proof_scaling_params(m, mu3)
    res = rescale_steady(ss2, p)
    d_rescaled = (res["direct"]["e_kin"] + res["direct"]["casimir"]
                  + res["direct"]["e_pot"])
    return {
        "M1": M1, "M2": M2, "m": m, "alpha": alpha, "mu3": mu3,
        "d_m1": d1, "d_m2": d2, "rhs": rhs, "margin": margin,
        "holds": bool(d1 >= rhs - 1e-12 * abs(rhs)),
        "proof_params": {"a": p.a, "b": p.b, "c": p.c},
        "rescaled_mass": res["direct"]["mass"],
        "d_rescaled": d_rescaled,
        "proof_margin": d_rescaled - rhs,
        "proof_holds": bool(d_rescaled >= rhs - 1e-10 * max(abs(rhs), 1.0)),
    }


# -- splitting -------------------------------------------------------------

def _check_split(R, C=None, names=("R", "C")):
    """InputError unless 0 < R < inf and C, if given, is finite (named ``names``)."""
    if not 0.0 < R < np.inf:
        raise InputError(f"split: {names[0]} must be finite and positive (got {R!r})")
    if C is not None and not np.isfinite(C):
        raise InputError(f"split: {names[1]} must be finite (got {C!r})")


def split_diagnostic(ss: SteadyState, R: float, C: float = None) -> dict:
    """Interior/exterior mass split at radius R and the mixed energy term.

    Splits rho0 into rho1 (r < R) and rho2 (r >= R) and reports the mixed
    interaction int U_rho1 * rho2 together with the bound
    C * R^(-1/2) * ||rho0||_{4/3} * lambda when a constant C is supplied.
    """
    _check_split(R, C)
    r = ss.grid.nodes
    ringw = ss.grid.ring_weights
    rho = ss.rho0.values
    inside = r < R
    rho1 = np.where(inside, rho, 0.0)
    rho2 = np.where(~inside, rho, 0.0)
    lam = float(np.sum(ringw * rho2))
    op = operator_for(ss.grid)
    mixed = op.interaction_energy(rho2, rho1)
    norm43 = lp_norm(RadialProfile(ss.grid, rho), 4.0 / 3.0)
    out = {
        "R": R,
        "interior_mass": float(np.sum(ringw * rho1)),
        "exterior_mass": lam,
        "mixed_term": mixed,
        "rho_norm_4_3": norm43,
        "implied_C": (abs(mixed) / (R ** -0.5 * norm43 * lam)
                      if lam > 0.0 else 0.0),
    }
    if C is not None:
        rhs = C * R ** -0.5 * norm43 * lam
        out["bound_rhs"] = rhs
        out["bound_holds"] = bool(abs(mixed) <= rhs)
    return out


# -- stability metric ------------------------------------------------------

def stability_distance(ss: SteadyState, ens) -> tuple:
    """(d(f, f0), E_pot(rho_f - rho0)) for an ensemble against a steady state.

    d = [C(f) - C(f0)] + iint (E - E0)(f - f0) with E = |v|^2/2 + U0(x)
    evaluated particle-wise; the identity D(f) - D(f0) = d + e_pot_diff then
    holds exactly in the discretization.
    """
    if ens.positions.shape[0] == 0:
        raise InputError("stability_distance: empty ensemble")
    row, _ = _ensemble_row(ss.model, ens, _bin(ss.grid, ens.positions,
                                               ens.weights), ss)
    return row["d_dist"], row["epot_diff"]
