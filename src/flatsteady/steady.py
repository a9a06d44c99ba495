"""Self-consistent construction of the minimizing steady state.

The Euler-Lagrange characterization f0 = q(E0 - E) reduces, after the
velocity integral, to the planar closure

    rho0(r) = 2*pi*G(E0 - U0(r)),   U0 = U_rho0,

with G the antiderivative of q.  The naive damped iteration of this map is
unstable: the scale mode (contract the disc, deepen the potential) has a
fixed-point Jacobian eigenvalue above one, so any damping factor merely
slows the collapse.  The solver therefore pins the support edge: for a
trial edge radius R the inner sweep sets E0 = U(R), applies the map and
renormalizes to the target mass, which removes the unstable amplitude and
scale modes.

The inner fixed point is found by undamped Anderson mixing (Anderson 1965;
Walker & Ni 2011, SIAM J. Numer. Anal. 49, 1715) with memory 5: with f the
residual map(rho) - rho and gamma the combination of the last five residual
differences dF that best cancels f, from (dF dF^T) gamma = dF f, each step
is f - (dX + dF) gamma, dX the matching iterate differences, clipped at
rho >= 0 (just f if that system is singular).  The residual is not
monotone; whenever it grows the history restarts, so the next step is f,
and ten consecutive growths raise ConvergenceError.  The renormalization
factor A(R) at the inner fixed point is smooth and monotone in R, and
A(R*) = 1 exactly at the self-consistent state.  The outer iteration
drives A to one, rescaling the grid around each trial R so the support
sits well inside it: a first jump R*A^2 from R = 1, then the unclamped
log-log secant through the last two (R, A) pairs.  One power term has
A ~ R^(mu-1) exactly, so two evaluations fix the slope and the secant
lands: a polytrope takes at most three.  Trial grids are multiples of one
shape, so each evaluation after the first starts from the last one's node
densities, renormalized to the target mass on its grid (warm start); a
polytrope is self-similar in R, and its later evaluations take one sweep.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .casimir import CasimirModel, InverseQ
from .errors import ConvergenceError, GridTooSmallError, InputError
from .grids import RadialGrid, RadialProfile
from .potential import operator_for

__all__ = ["SteadyState", "SolverOptions", "solve", "density_from_potential",
           "regularity_report"]

_SUPPORT_CUT = 1e-14  # rho below this fraction of its max counts as zero
_MEMORY = 5  # Anderson mixing: past sweeps whose differences enter a step
_MAX_SWEEPS = 400  # inner sweeps per trial edge radius before giving up
_RESIDUAL_TOL = 1e-13  # relative inner residual at which a sweep stops
_MASS_TOL = 1e-9  # relative mass defect a converged state may carry
_R_SEED = 1.0  # first trial edge radius
_OUTER_TOL = 1e-10  # |A - 1| at which the outer edge iteration stops
_MAX_OUTER = 40  # outer edge evaluations before giving up


@dataclass
class SolverOptions:
    n: int = 384  # nodes of each trial grid


@dataclass(frozen=True)
class SteadyState:
    """Converged fixed point of rho = 2*pi*G(E0 - U_rho) at prescribed mass;
    its grid is rho0's and its inverse q the model's."""

    model: CasimirModel
    E0: float
    rho0: RadialProfile
    U0: RadialProfile
    mass: float
    support_radius: float
    residual: float
    iterations: int

    @property
    def grid(self) -> RadialGrid:
        return self.rho0.grid

    @functools.cached_property
    def inv(self) -> InverseQ:
        return self.model.inverse()

    @property
    def s_values(self) -> np.ndarray:
        """E0 - U0 at the nodes (positive on the support)."""
        return self.E0 - self.U0.values

    @functools.cached_property
    def moments(self) -> tuple:
        """(kinetic energy, Casimir, iint (E - E0) f0) of f0, computed once."""
        ringw = self.grid.ring_weights
        s = np.maximum(self.s_values, 0.0)
        g, g2 = self.inv.G(s), self.inv.G2(s)
        return (float(np.sum(ringw * 2.0 * np.pi * g2)),
                float(np.sum(ringw * 2.0 * np.pi * (s * g - 2.0 * g2))),
                float(np.sum(ringw * 2.0 * np.pi * (g2 - s * g))))

    def dynamical_time(self) -> float:
        return 2.0 * np.pi * np.sqrt(self.support_radius ** 3 / self.mass)


def density_from_potential(model: CasimirModel, E0: float,
                           U: RadialProfile) -> RadialProfile:
    """rho(r) = 2*pi*G(E0 - U(r)); exactly zero wherever U >= E0."""
    inv = model.inverse()
    return RadialProfile(U.grid, 2.0 * np.pi * inv.G(E0 - U.values),
                         require_nonnegative=True)


def _anderson_step(f, d_rho, d_res):
    """f - (d_rho + d_res)^T gamma, with (d_res d_res^T) gamma = d_res f: f
    itself for no rows, a singular system or a gamma that is not finite."""
    try:
        gamma = np.linalg.solve(d_res @ d_res.T, d_res @ f)
    except np.linalg.LinAlgError:
        return f
    return f - gamma @ (d_rho + d_res) if np.isfinite(gamma).all() else f


def _inner_sweep(inv: InverseQ, op, grid: RadialGrid, M: float, R: float,
                 seed: np.ndarray | None = None):
    """Edge-pinned, mass-renormalized fixed point for a trial edge radius R.

    Starts from ``seed`` node densities (a Kuzmin disc of scale R/3 when
    None), renormalized to mass M on this grid, and Anderson-mixes the map
    without damping: the first step and each step after a restart of the
    history is the map itself.
    Returns (rho, U, E0, A, residual, iterations) where A is the factor that
    rescales the mapped density back to mass M.
    """
    r = grid.nodes
    ringw = grid.ring_weights
    if seed is None:
        # written in r/R so that no power of R can leave float64; the grid's
        # own mass integral still may, far from unit R
        seed = (1.0 + (3.0 * r / R) ** 2) ** -1.5
    seed_mass = np.sum(ringw * seed)
    if not 0.0 < seed_mass < np.inf:
        raise ConvergenceError(
            f"the trial grid at edge radius R={R:g} leaves the float64 range")
    rho = seed * (M / seed_mass)

    # Anderson history: difference pair k since the restart in row k % _MEMORY
    hist, n_hist = np.empty((2, _MEMORY, r.size)), 0
    grow_count, prev_res = 0, np.inf
    for it in range(1, _MAX_SWEEPS + 1):
        U = op.potential(rho)
        if not np.isfinite(U).all():
            raise ConvergenceError(
                f"the potential at edge radius R={R:g} leaves the float64 range")
        E0 = float(np.interp(R, r, U))
        raw = 2.0 * np.pi * inv.G(E0 - U)
        raw_mass = float(np.sum(ringw * raw))
        if not 0.0 < raw_mass < np.inf:
            raise ConvergenceError(
                f"edge-pinned map produced mass {raw_mass:g} at R={R:g}")
        A = M / raw_mass
        rho_map = A * raw
        f = rho_map - rho
        res = float(np.abs(f).max() / rho_map.max())
        if res <= _RESIDUAL_TOL:
            return rho_map, U, E0, A, res, it
        if res > prev_res * (1.0 + 1e-12):
            grow_count += 1
            if grow_count >= 10:
                raise ConvergenceError(
                    f"inner residual grew for 10 consecutive sweeps at "
                    f"R={R:g} (residual {res:.3e})")
            n_hist = 0  # the safeguard: restart from a plain map step
        else:
            grow_count = 0
            if it > 1:
                hist[:, n_hist % _MEMORY] = rho - rho_prev, f - f_prev
                n_hist += 1
        prev_res, rho_prev, f_prev = res, rho, f
        step = _anderson_step(f, *hist[:, :min(n_hist, _MEMORY)])
        rho = np.maximum(rho + step, 0.0)
    raise ConvergenceError(
        f"no inner convergence in {_MAX_SWEEPS} sweeps at R={R:g} "
        f"(residual {res:.3e})")


@functools.lru_cache(maxsize=8)
def _unit_shape(n: int) -> RadialGrid:
    """The shape of every n-node trial grid, computed once per n.

    A uniform core covers the support with margin, and a short log tail
    serves the edge interpolation of U.  Trial grids are exact multiples of
    this shape and share its operator assembly (see potential.operator_for).
    """
    return RadialGrid.hybrid(0.25, 1.0, n).shape()


def solve(model: CasimirModel, M: float, opts: SolverOptions | None = None) -> SteadyState:
    """Compute the steady state of total mass M for the given Casimir model."""
    if M <= 0:
        raise InputError("solve: target mass must be positive")
    unit = _unit_shape((opts or SolverOptions()).n)
    inv = model.inverse()

    R, R_prev, A_prev = _R_SEED, None, None
    rho, sweeps = None, 0
    for _ in range(_MAX_OUTER):
        grid = RadialGrid(5.0 * R * unit.nodes)
        # node i of every trial grid is the same fraction of its r_max, so
        # the last evaluation's densities seed this one node for node
        rho, U, E0, A, _, inner_it = _inner_sweep(inv, operator_for(grid), grid,
                                                  M, R, seed=rho)
        sweeps += inner_it
        if abs(A - 1.0) < _OUTER_TOL:
            break
        if R_prev is not None:
            dlog = np.log(A / A_prev)
            if dlog == 0.0 or R == R_prev:
                raise ConvergenceError(
                    "outer edge iteration stalled: the mass renormalization "
                    "factor does not respond to the edge radius")
            p = dlog / np.log(R / R_prev)  # local log-log slope of A(R)
        R_next = R * (np.float64(A) ** 2 if R_prev is None
                      else np.exp(-np.log(A) / p))
        if not 0.0 < R_next < np.inf:
            raise ConvergenceError(
                f"outer edge step from R={R:g} (renormalization defect "
                f"{A - 1.0:.3e}) leaves the float64 range")
        R_prev, A_prev, R = R, A, R_next
    else:
        raise ConvergenceError(
            f"no outer convergence in {_MAX_OUTER} edge evaluations "
            f"(renormalization defect {A - 1.0:.3e})")

    ringw = grid.ring_weights
    rho_check = 2.0 * np.pi * inv.G(E0 - U)
    residual = float(np.max(np.abs(rho_check - rho)) / np.max(rho))
    mass = float(np.sum(ringw * rho))
    if abs(mass - M) > _MASS_TOL * M:
        raise ConvergenceError(f"mass defect {abs(mass - M):.3e} exceeds tolerance")
    if not (np.isfinite(E0) and E0 < 0.0):
        raise ConvergenceError(
            f"converged cutoff energy E0={E0:g} is not that of a bound state")

    r = grid.nodes
    nz = np.nonzero(rho > _SUPPORT_CUT * np.max(rho))[0]
    support_radius = float(r[nz[-1]]) if nz.size else 0.0
    if nz.size and nz[-1] >= r.size - 2:
        raise GridTooSmallError(
            f"support reaches the grid edge (r_max={grid.r_max:g}, edge "
            f"radius R={R:g}, residual {residual:.3e})")

    return SteadyState(
        model=model, E0=float(E0),
        rho0=RadialProfile(grid, rho, require_nonnegative=True),
        U0=RadialProfile(grid, U),
        mass=mass, support_radius=support_radius,
        residual=residual, iterations=sweeps,
    )


def regularity_report(ss: SteadyState) -> dict:
    """Finite-difference regularity diagnostics of the converged state.

    Checks the differential identity rho0' = -2*pi*q(E0-U0)*U0', the
    boundedness of U0 and rho0, the continuity of U0' across nodes, and the
    vanishing rate of rho0 at the support edge (exponent mu+1 for
    polytropes).
    """
    r = ss.grid.nodes
    rho = ss.rho0.values
    U = ss.U0.values
    drho = np.gradient(rho, r)
    dU = np.gradient(U, r)
    q_vals = ss.inv.q(ss.s_values)
    rhs = -2.0 * np.pi * q_vals * dU

    # interior: on the support, away from the edge kink and the origin
    scale = np.max(np.abs(drho))
    interior = (rho > 1e-3 * np.max(rho))
    if interior.sum() > 8:
        sel = np.nonzero(interior)[0][2:-4]
    else:
        sel = np.nonzero(interior)[0]
    identity_defect = float(np.max(np.abs(drho[sel] - rhs[sel])) / scale)

    # U0' continuity modulus: jump of one-sided slopes relative to trend
    slopes = np.diff(U) / np.diff(r)
    jumps = np.abs(np.diff(slopes))
    modulus = float(np.max(jumps) / max(np.max(np.abs(slopes)), 1e-300))

    report = {
        "identity_max_defect": identity_defect,
        "uprime_jump_modulus": modulus,
        "max_abs_U": float(np.max(np.abs(U))),
        "max_rho": float(np.max(rho)),
        "bounded": bool(np.all(np.isfinite(U)) and np.all(np.isfinite(rho))),
        "rho_edge_value": float(rho[min(np.searchsorted(r, ss.support_radius),
                                        r.size - 1)]),
    }

    # edge exponent: rho ~ (E0 - U0)^p near the support boundary, p = mu+1
    # for polytropes; the radial fit rho ~ (R_edge - r)^p is reported as a
    # secondary value (it carries the extra error of locating R_edge)
    s = ss.s_values
    if np.any(s <= 0):
        i_edge = int(np.argmax(s <= 0))
        R_edge = float(np.interp(0.0, [s[i_edge], s[i_edge - 1]],
                                 [r[i_edge], r[i_edge - 1]]))
    else:
        R_edge = ss.support_radius
    window = (rho > 1e-7 * np.max(rho)) & (rho < 1e-2 * np.max(rho)) & (r < R_edge)
    if window.sum() >= 4:
        y = np.log(rho[window])
        report["edge_exponent"] = float(np.polyfit(np.log(s[window]), y, 1)[0])
        report["edge_exponent_radial"] = float(
            np.polyfit(np.log(R_edge - r[window]), y, 1)[0])
    else:
        report["edge_exponent"] = float("nan")
        report["edge_exponent_radial"] = float("nan")
    report["edge_radius"] = R_edge
    return report
