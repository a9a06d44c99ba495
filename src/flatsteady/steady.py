"""Self-consistent construction of the minimizing steady state.

The Euler-Lagrange characterization f0 = q(E0 - E) reduces, after the
velocity integral, to the planar closure

    rho0(r) = 2*pi*G(E0 - U0(r)),   U0 = U_rho0,

with G the antiderivative of q.  The naive damped iteration of this map is
unstable: the scale mode (contract the disc, deepen the potential) has a
fixed-point Jacobian eigenvalue above one, so any damping factor merely
slows the collapse.  The solver therefore pins the support edge: for an
edge radius R it sets E0 = U(R), applies the map and renormalizes to the
target mass by a factor A, which removes the unstable amplitude and scale
modes.  A(R) is smooth and monotone in R, and A(R*) = 1 exactly at the
self-consistent state.

The grid of edge radius R is R times one grid, so one operator assembly
serves every R (U scales as R, the ring weights as R^2), and the node
densities and log R form one vector of unknowns, z = (rho / max rho_map,
log R).  Its residual is ((rho_map - rho) / max rho_map, -log A / p_hat),
with p_hat = (mu1 + mu2)/2 - 1 from the model's declared exponents: one
power term has A ~ R^(mu - 1) exactly, so the log R step is Newton's there.
The iteration is undamped Anderson mixing (Anderson 1965; Walker & Ni
2011, SIAM J. Numer. Anal. 49, 1715) with memory 5: with f the residual
and gamma the combination of the last five residual differences dF that
best cancels f, from (dF dF^T) gamma = dF f, each step is
f - (dX + dF) gamma, dX the matching differences of z, with rho clipped at
0 and renormalized to the target mass (just f if that system is
singular).  The density residual is not monotone; whenever it grows the
history restarts, so the next step is f, and ten consecutive growths raise
ConvergenceError.  The iteration starts from a Kuzmin disc at R = 1 and
stops where the density residual is at most _RESIDUAL_TOL and
|A - 1| < _OUTER_TOL.  One power term, Q = c*f^(1+1/mu), is homologous: the
loop solves it at c = 1 and M = 1, and with nu^2 = (M*c^-mu)^(1/(1-mu)) and
sigma = c^-mu*nu^(2(1+mu)) the map r -> r*nu^2/sigma, rho0 -> sigma*rho0,
(U0, E0) -> nu^2*(U0, E0) gives the (c, M) state.  One-term models share
one cached (c = 1, M = 1) solve per (mu, n), in a bounded cache, so a hit
is bitwise the state a miss gives and `iterations` stays that solve's count.
A first pass that moved only log R used to make two masses' iterates differ
by a log R shift alone; two solves that stopped on either side of
_RESIDUAL_TOL broke that, so it went.
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
_MEMORY = 5  # Anderson mixing: past iterations whose differences enter a step
_MAX_SWEEPS = 400  # solver iterations before giving up
_RESIDUAL_TOL = 1e-13  # relative density residual at which the solver stops
_MASS_TOL = 1e-9  # relative mass defect a converged state may carry
_RESIDUAL_CAP = 1e-6  # largest residual of a converged state
_OUTER_TOL = 1e-10  # |A - 1| at which the solver stops


@dataclass
class SolverOptions:
    n: int = 384  # nodes of the solver grid


@dataclass(frozen=True)
class SteadyState:
    """Converged fixed point of rho = 2*pi*G(E0 - U_rho) at prescribed mass;
    its grid, inverse q, mass, support radius and residual are derived."""

    model: CasimirModel
    E0: float
    rho0: RadialProfile
    U0: RadialProfile
    iterations: int

    @property
    def grid(self) -> RadialGrid:
        return self.rho0.grid

    @functools.cached_property
    def inv(self) -> InverseQ:
        return self.model.inverse()

    @functools.cached_property
    def mass(self) -> float:
        return float(np.sum(self.grid.ring_weights * self.rho0.values))

    @functools.cached_property
    def support_radius(self) -> float:
        """The last node with rho0 above _SUPPORT_CUT of its max; 0 if none."""
        nz = np.nonzero(self.rho0.values > _SUPPORT_CUT * np.max(self.rho0.values))[0]
        return float(self.grid.nodes[nz[-1]]) if nz.size else 0.0

    @functools.cached_property
    def residual(self) -> float:
        """max |2*pi*G(E0 - U0) - rho0| / max rho0; inf for rho0 = 0."""
        rho, peak = self.rho0.values, np.max(self.rho0.values)
        defect = np.max(np.abs(2.0 * np.pi * self._g_values - rho))
        return float(defect / peak) if peak > 0.0 else np.inf

    @property
    def s_values(self) -> np.ndarray:
        """E0 - U0 at the nodes (positive on the support)."""
        return self.E0 - self.U0.values

    @functools.cached_property
    def _g_values(self) -> np.ndarray:
        """G(E0 - U0) at the nodes, computed once for residual and moments;
        0 off the support."""
        return self.inv.G(self.s_values)

    @functools.cached_property
    def moments(self) -> tuple:
        """(kinetic energy, Casimir, iint (E - E0) f0) of f0, computed once."""
        ringw = self.grid.ring_weights
        s = np.maximum(self.s_values, 0.0)
        g, g2 = self._g_values, self.inv.G2(s)
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


@functools.lru_cache(maxsize=8)
def _unit_shape(n: int) -> RadialGrid:
    """The shape of the n-node solver grid, computed once per n.

    A uniform core covers the support with margin, and a short log tail
    serves the edge interpolation of U.  The solver grid of edge radius R
    is 5R times this shape, so every R shares its operator assembly (see
    potential.operator_for).
    """
    return RadialGrid.hybrid(0.25, 1.0, n).shape()


def _loop(inv: InverseQ, m: float, p_hat: float, n: int) -> tuple:
    """(grid1, R, E0, U, rho_map, iterations) of the edge-pinned iteration at
    mass m and log-log slope p_hat of A(R), U and rho_map at grid1's nodes."""
    # the grid at R = 1; at edge radius R the nodes are R*r1, the potential
    # of node densities rho is R*op(rho) and the ring weights are R^2*w1
    grid1 = RadialGrid(5.0 * _unit_shape(n).nodes)
    op, r1, w1 = operator_for(grid1), grid1.nodes, grid1.ring_weights

    # the unknowns (rho / max rho_map, log R), from a Kuzmin disc of scale
    # R/3 at R = 1; the density part is renormalized to mass m each pass
    z = np.append((1.0 + (3.0 * r1) ** 2) ** -1.5, 0.0)
    # Anderson history: difference pair k since the restart in row k % _MEMORY
    hist, n_hist = np.empty((2, _MEMORY, z.size)), 0
    grow_count, prev_res = 0, np.inf
    for it in range(1, _MAX_SWEEPS + 1):
        with np.errstate(all="ignore"):  # a log R past float64 raises below
            R = np.exp(z[-1])
            z_mass = R * R * np.sum(w1 * z[:-1])
            rho = z[:-1] * (m / z_mass)
        if not (0.0 < z_mass < np.inf and np.isfinite(rho).all()):
            raise ConvergenceError(
                f"the grid at edge radius R={R:g} leaves the float64 range")
        U = R * op.potential(rho)
        if not np.isfinite(U).all():
            raise ConvergenceError(
                f"the potential at edge radius R={R:g} leaves the float64 range")
        E0 = float(np.interp(1.0, r1, U))
        raw = 2.0 * np.pi * inv.G(E0 - U)
        raw_mass = R * R * float(np.sum(w1 * raw))
        if not 0.0 < raw_mass < np.inf:
            raise ConvergenceError(
                f"edge-pinned map produced mass {raw_mass:g} at R={R:g}")
        A = m / raw_mass
        rho_map = A * raw
        peak = rho_map.max()
        f = np.append((rho_map - rho) / peak, -np.log(A) / p_hat)
        res = float(np.abs(f[:-1]).max())
        if res <= _RESIDUAL_TOL and abs(A - 1.0) < _OUTER_TOL:
            break
        x = np.append(rho / peak, z[-1])
        if res > prev_res * (1.0 + 1e-12):
            grow_count += 1
            if grow_count >= 10:
                raise ConvergenceError(
                    f"residual grew for 10 consecutive iterations at R={R:g} "
                    f"(residual {res:.3e}, renormalization defect {A - 1.0:.3e})")
            n_hist = 0  # the safeguard: restart from a plain map step
        else:
            grow_count = 0
            if it > 1:
                hist[:, n_hist % _MEMORY] = x - x_prev, f - f_prev
                n_hist += 1
        prev_res, x_prev, f_prev = res, x, f
        z = x + _anderson_step(f, *hist[:, :min(n_hist, _MEMORY)])
        z[:-1] = np.maximum(z[:-1], 0.0)
    else:
        raise ConvergenceError(
            f"no convergence in {_MAX_SWEEPS} iterations (residual {res:.3e}, "
            f"renormalization defect {A - 1.0:.3e})")
    return grid1, R, E0, U, rho_map, it


@functools.lru_cache(maxsize=32)
def _canonical(mu: float, n: int) -> tuple:
    """_loop's state of polytrope(mu) at M = 1, its arrays read-only."""
    state = _loop(CasimirModel.polytrope(mu).inverse(), 1.0, mu - 1.0, n)
    for a in (state[0].nodes, *state[3:5]):  # grid1's nodes, U and rho_map
        a.flags.writeable = False
    return state


def solve(model: CasimirModel, M: float, opts: SolverOptions | None = None) -> SteadyState:
    """Compute the steady state of total mass M for the given Casimir model."""
    if not 0.0 < M < np.inf:
        raise InputError(f"solve: target mass must be finite and positive (got {M!r})")
    n = (opts or SolverOptions()).n
    one = len(model.terms) == 1  # solved at c = 1, mass m = 1 and mapped
    (c, mu), m = (model.terms[0], 1.0) if one else ((1.0, 0.0), M)
    grid1, R, E0, U, rho_map, it = (_canonical(mu, n) if one else _loop(
        model.inverse(), M, 0.5 * (model.mu1 + model.mu2) - 1.0, n))
    r1, w1 = grid1.nodes, grid1.ring_weights
    log_nu2 = (np.log(M / m) - mu * np.log(c)) / (1.0 - mu)  # 0 unless one
    log_sigma = (1.0 + mu) * log_nu2 - mu * np.log(c)

    with np.errstate(all="ignore"):  # onto (c, M); an image past float64 raises
        nu2, sigma, lam = np.exp([log_nu2, log_sigma, log_nu2 - log_sigma])
        R, E0, U, rho_map = R * lam, float(nu2 * E0), nu2 * U, sigma * rho_map
        if not (0.0 < R * R * np.sum(w1 * rho_map) < np.inf and np.isfinite(U).all()):
            raise ConvergenceError(
                f"the state leaves the float64 range (nu^2 = e^{log_nu2:.6g}, "
                f"sigma = e^{log_sigma:.6g})")
    grid = RadialGrid(R * r1)
    ss = SteadyState(model=model, E0=E0, iterations=it,
                     rho0=RadialProfile(grid, rho_map, require_nonnegative=True),
                     U0=RadialProfile(grid, U))
    if abs(ss.mass - M) > _MASS_TOL * M:
        raise ConvergenceError(f"mass defect {abs(ss.mass - M):.3e} exceeds tolerance")
    if not (np.isfinite(E0) and E0 < 0.0):
        raise ConvergenceError(
            f"converged cutoff energy E0={E0:g} is not that of a bound state")
    if ss.support_radius >= grid.nodes[-2]:
        raise GridTooSmallError(
            f"support reaches the grid edge (r_max={grid.r_max:g}, edge "
            f"radius R={R:g}, residual {ss.residual:.3e})")
    return ss


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
