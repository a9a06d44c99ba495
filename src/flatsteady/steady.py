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
scale modes.  The renormalization factor A(R) at the inner fixed point is
smooth and monotone in R, and A(R*) = 1 exactly at the self-consistent
state; an outer log-log secant iteration drives A to one, rescaling the
grid around each trial R so the support always sits well inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .casimir import CasimirModel, InverseQ
from .errors import ConvergenceError, GridTooSmallError, InputError
from .grids import RadialGrid, RadialProfile
from .potential import operator_for

__all__ = ["SteadyState", "SolverOptions", "solve", "density_from_potential",
           "regularity_report"]

_SUPPORT_CUT = 1e-14  # rho below this fraction of its max counts as zero
_E0_BRACKET = (-1e12, -1e-15)  # a converged cutoff energy lies inside
_OUTER_TOL = 1e-10  # |A - 1| at which the outer edge iteration stops
_MAX_OUTER = 40  # outer edge iterations before giving up


@dataclass
class SolverOptions:
    damping: float = 0.5
    max_iters: int = 400
    residual_tol: float = 1e-11
    mass_tol: float = 1e-9
    n: int = 384
    r_edge_seed: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise InputError("SolverOptions: damping must lie in (0, 1]")
        if self.residual_tol <= 0 or self.mass_tol <= 0:
            raise InputError("SolverOptions: tolerances must be positive")
        if self.r_edge_seed <= 0:
            raise InputError("SolverOptions: edge seed radius must be positive")


@dataclass
class SteadyState:
    """Converged fixed point of rho = 2*pi*G(E0 - U_rho) at prescribed mass."""

    model: CasimirModel
    E0: float
    grid: RadialGrid
    rho0: RadialProfile
    U0: RadialProfile
    mass: float
    support_radius: float
    residual: float
    iterations: int
    inv: InverseQ = field(repr=False, default=None)

    def __post_init__(self):
        if self.inv is None:
            self.inv = self.model.inverse()

    @property
    def s_values(self) -> np.ndarray:
        """E0 - U0 at the nodes (positive on the support)."""
        return self.E0 - self.U0.values

    def dynamical_time(self) -> float:
        return 2.0 * np.pi * np.sqrt(self.support_radius ** 3 / self.mass)


def density_from_potential(model: CasimirModel, E0: float,
                           U: RadialProfile) -> RadialProfile:
    """rho(r) = 2*pi*G(E0 - U(r)); exactly zero wherever U >= E0."""
    inv = model.inverse()
    return RadialProfile(U.grid, 2.0 * np.pi * inv.G(E0 - U.values),
                         require_nonnegative=True)


def _inner_sweep(inv: InverseQ, op, grid: RadialGrid, M: float, R: float,
                 opts: SolverOptions):
    """Edge-pinned, mass-renormalized fixed point for a trial edge radius R.

    Returns (rho, U, E0, A, residual, iterations) where A is the factor that
    rescales the mapped density back to mass M.
    """
    r = grid.nodes
    ringw = grid.ring_weights
    a_seed = R / 3.0
    rho = M * a_seed / (2.0 * np.pi * (r ** 2 + a_seed ** 2) ** 1.5)
    rho *= M / np.sum(ringw * rho)

    lam = opts.damping
    grow_count = 0
    prev_res = np.inf
    for it in range(1, opts.max_iters + 1):
        U = op.potential(rho)
        E0 = float(np.interp(R, r, U))
        raw = 2.0 * np.pi * inv.G(E0 - U)
        raw_mass = float(np.sum(ringw * raw))
        if raw_mass <= 0.0:
            raise ConvergenceError(
                f"edge-pinned map produced zero mass at R={R:g}")
        A = M / raw_mass
        rho_map = A * raw
        res = float(np.max(np.abs(rho_map - rho)) / np.max(rho_map))
        if res <= opts.residual_tol:
            return rho_map, U, E0, A, res, it
        if res > prev_res * (1.0 + 1e-12):
            grow_count += 1
            if grow_count >= 10:
                raise ConvergenceError(
                    f"inner residual grew for 10 consecutive sweeps at "
                    f"R={R:g} (residual {res:.3e}); try a smaller damping factor")
        else:
            grow_count = 0
        prev_res = res
        rho = (1.0 - lam) * rho + lam * rho_map
    raise ConvergenceError(
        f"no inner convergence in {opts.max_iters} sweeps at R={R:g} "
        f"(residual {res:.3e})")


def solve(model: CasimirModel, M: float, opts: Optional[SolverOptions] = None) -> SteadyState:
    """Compute the steady state of total mass M for the given Casimir model."""
    if M <= 0:
        raise InputError("solve: target mass must be positive")
    opts = opts or SolverOptions()
    inv = model.inverse()
    # uniform core covers the support with margin; short log tail for the
    # edge interpolation of U.  Exact multiples of one shape share one
    # operator assembly (see potential.operator_for).
    unit = RadialGrid.hybrid(0.25, 1.0, opts.n).shape().nodes

    def evaluate(R):
        g = RadialGrid(5.0 * R * unit, scheme="hybrid")
        return g, _inner_sweep(inv, operator_for(g), g, M, R, opts)

    R1 = opts.r_edge_seed
    grid, (rho, U, E0, A1, res, inner_it) = evaluate(R1)
    # first jump assumes A ~ R^(-1/2) (exact for the mu3 = 1/2 scaling
    # family, a good local model otherwise), then secant in log-log
    R2 = R1 if abs(A1 - 1.0) < _OUTER_TOL else R1 * A1 ** 2
    A = A1
    for outer in range(_MAX_OUTER):
        if abs(A - 1.0) < _OUTER_TOL:
            break
        R2 = min(max(R2, 0.25 * R1), 4.0 * R1)
        grid, (rho, U, E0, A2, res, inner_it) = evaluate(R2)
        if abs(A2 - 1.0) < _OUTER_TOL:
            A = A2
            break
        dlog = np.log(A2 / A1)
        if dlog == 0.0 or R2 == R1:
            raise ConvergenceError(
                "outer edge iteration stalled: the mass renormalization "
                "factor does not respond to the edge radius")
        p = dlog / np.log(R2 / R1)
        R1, A1, A = R2, A2, A2
        R2 = R2 * np.exp(-np.log(A2) / p)
    else:
        raise ConvergenceError(
            f"no outer convergence in {_MAX_OUTER} edge iterations "
            f"(renormalization defect {A - 1.0:.3e})")

    ringw = grid.ring_weights
    rho_check = 2.0 * np.pi * inv.G(E0 - U)
    residual = float(np.max(np.abs(rho_check - rho)) / np.max(rho))
    mass = float(np.sum(ringw * rho))
    if abs(mass - M) > opts.mass_tol * M:
        raise ConvergenceError(f"mass defect {abs(mass - M):.3e} exceeds tolerance")
    if not (_E0_BRACKET[0] < E0 < _E0_BRACKET[1]):
        raise ConvergenceError(
            f"converged cutoff energy E0={E0:g} falls outside the bracket "
            f"{_E0_BRACKET}")

    r = grid.nodes
    nz = np.nonzero(rho > _SUPPORT_CUT * np.max(rho))[0]
    support_radius = float(r[nz[-1]]) if nz.size else 0.0
    if nz.size and nz[-1] >= r.size - 2:
        raise GridTooSmallError(
            f"support reaches the grid edge (r_max={grid.r_max:g}); rerun with "
            "a larger r_max")

    return SteadyState(
        model=model, E0=float(E0), grid=grid,
        rho0=RadialProfile(grid, rho, require_nonnegative=True),
        U0=RadialProfile(grid, U),
        mass=mass, support_radius=support_radius,
        residual=residual, iterations=inner_it, inv=inv,
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
