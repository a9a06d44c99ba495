"""Energy and Casimir functionals, scaling transforms, and stability metrics.

For steady states every phase-space integral reduces through isotropy in v:
with w = |v|^2 / 2 and s = E0 - U0(r),

    rho0     = 2*pi*G(s),
    kinetic  = 2*pi*G2(s),
    Casimir  = 2*pi*GQ(s)   per unit area,

so only 1D radial quadratures remain.  Ensembles are evaluated directly:
kinetic energy particle-wise, potential energy through the deposited ring
density with per-particle self energies removed, and the Casimir through a
4D phase-space histogram (the dominant error term of the ensemble path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .casimir import CasimirModel
from .errors import InputError
from .grids import RadialGrid, RadialProfile
from .potential import FlatPotentialOperator, lp_norm, operator_for
from .steady import SteadyState

__all__ = ["FunctionalReport", "ScalingParams", "evaluate_steady",
           "evaluate_ensemble", "rescale_steady", "scaling_inequality_check",
           "split_diagnostic", "stability_distance", "bilinearity_check",
           "lower_bound_check", "interpolation_check", "deposit_density",
           "alpha_from_mu3", "proof_scaling_params"]

_GL64_X, _GL64_W = np.polynomial.legendre.leggauss(64)


@dataclass
class FunctionalReport:
    """Values of the defining functionals for one state."""

    mass: float
    e_kin: float
    e_pot: float
    casimir: float

    def __post_init__(self):
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
    a = m ** (mu3 / (1.0 - mu3))
    c = a ** (-0.5 / mu3)
    b = a ** (1.0 / mu3) / m
    return ScalingParams(a=a, b=b, c=c)


# -- steady-state path -----------------------------------------------------

def evaluate_steady(model: CasimirModel, ss: SteadyState,
                    residual_cap: float = 1e-6) -> FunctionalReport:
    """Exact (per quadrature) functionals of a converged steady state."""
    if ss.residual > residual_cap:
        raise InputError(
            f"evaluate_steady: state residual {ss.residual:.3e} exceeds "
            f"{residual_cap:.1e}; not a converged steady state")
    inv = ss.inv
    ringw = ss.grid.ring_weights
    s = np.maximum(ss.s_values, 0.0)
    e_kin = float(np.sum(ringw * 2.0 * np.pi * inv.G2(s)))
    casimir = float(np.sum(ringw * 2.0 * np.pi * inv.GQ(s)))
    op = operator_for(ss.grid)
    e_pot = op.potential_energy(ss.rho0.values)
    return FunctionalReport(mass=ss.mass, e_kin=e_kin, e_pot=min(e_pot, 0.0),
                            casimir=casimir)


# -- ensemble path ---------------------------------------------------------

def deposit_density(grid: RadialGrid, radii: np.ndarray,
                    masses: np.ndarray) -> np.ndarray:
    """Cloud-in-cell ring deposit; returns node density values.

    Mass beyond the last node is dropped (escapers); total deposited ring
    mass equals the retained particle mass.
    """
    r = grid.nodes
    ringw = grid.ring_weights
    keep = radii <= r[-1]
    rad = radii[keep]
    m = masses[keep]
    idx = np.clip(np.searchsorted(r, rad) - 1, 0, r.size - 2)
    frac = (rad - r[idx]) / (r[idx + 1] - r[idx])
    rho = np.bincount(idx, weights=m * (1.0 - frac), minlength=r.size)
    rho += np.bincount(idx + 1, weights=m * frac, minlength=r.size)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(ringw > 0.0, rho / np.where(ringw > 0.0, ringw, 1.0), 0.0)
    return rho


def _deposit_self_energy(op, grid: RadialGrid, radii: np.ndarray,
                         masses: np.ndarray) -> float:
    """Sum of per-particle deposit self-energies (to subtract from E_pot)."""
    r = grid.nodes
    ringw = grid.ring_weights
    keep = radii <= r[-1]
    rad = radii[keep]
    m = masses[keep]
    idx = np.clip(np.searchsorted(r, rad) - 1, 0, r.size - 2)
    frac = (rad - r[idx]) / (r[idx + 1] - r[idx])
    safe = np.where(ringw > 0.0, ringw, np.inf)
    wa = m * (1.0 - frac) / safe[idx]
    wb = m * frac / safe[idx + 1]
    s = op.smat
    quad = (wa * wa * s[idx, idx] + 2.0 * wa * wb * s[idx, idx + 1]
            + wb * wb * s[idx + 1, idx + 1])
    return 0.5 * float(np.sum(quad))


def _histogram_casimir(model: CasimirModel, ens) -> float:
    """C(f) from a histogram density estimate on phase-space cells.

    Cells live in the reduced coordinates (r, w = |v|^2/2); a raw 4D
    histogram leaves so little mass per cell that the noise bias of the
    superlinear Q dwarfs the value, while the (r, w) reduction (exact for
    any state isotropic in v, which the sampled and axisymmetrically
    perturbed ensembles are) concentrates the counts.  Bin widths follow
    Scott's rule per reduced dimension; the cell volume element is
    2*pi^2*(r2^2 - r1^2)*dw.  This estimate remains the dominant error of
    the ensemble path.
    """
    r = np.hypot(ens.positions[:, 0], ens.positions[:, 1])
    w = 0.5 * np.sum(ens.velocities ** 2, axis=1)
    n = r.size
    nb = []
    for x in (r, w):
        sig = float(np.std(x))
        if sig == 0.0:
            nb.append(1)
            continue
        h = sig * n ** (-1.0 / 6.0)
        nb.append(int(np.clip(np.ceil((x.max() - x.min()) / h), 1, 512)))
    hist, (r_edges, w_edges) = np.histogramdd(
        np.column_stack([r, w]), bins=nb, weights=ens.weights, density=False)
    ann = np.pi * (r_edges[1:] ** 2 - r_edges[:-1] ** 2)
    dw = np.diff(w_edges)
    vol = 2.0 * np.pi * ann[:, None] * dw[None, :]
    occ = hist > 0.0
    f_hat = hist[occ] / vol[occ]
    return float(np.sum(model.Q(f_hat) * vol[occ]))


def evaluate_ensemble(model: CasimirModel, ens,
                      grid: RadialGrid = None) -> FunctionalReport:
    """Functionals of a particle ensemble.

    E_pot uses the deposited axisymmetric ring density with the particle
    self-energies removed, so a single particle has zero potential energy.
    """
    if ens.positions.shape[0] == 0:
        raise InputError("evaluate_ensemble: empty ensemble")
    w = ens.weights
    v2 = np.sum(ens.velocities ** 2, axis=1)
    e_kin = 0.5 * float(np.sum(w * v2))
    mass = float(np.sum(w))
    radii = np.hypot(ens.positions[:, 0], ens.positions[:, 1])
    if grid is None:
        r_out = max(1.5 * float(np.max(radii)), 1e-6)
        grid = RadialGrid.hybrid(0.75 * r_out, r_out, 256)
    op = operator_for(grid)
    rho = deposit_density(grid, radii, w)
    e_pot = op.potential_energy(rho) - _deposit_self_energy(op, grid, radii, w)
    casimir = _histogram_casimir(model, ens)
    return FunctionalReport(mass=mass, e_kin=e_kin, e_pot=min(e_pot, 0.0),
                            casimir=casimir)


# -- scaling ---------------------------------------------------------------

def _velocity_moment_direct(inv, s, c, kind, amp):
    """2*pi * int phi(w) * amp*q(s - c^2 w) dw by quadrature, per node.

    kind 'kinetic' uses phi(w) = w, kind 'casimir' integrates Q(amp*q)
    instead.  The substitution s - c^2 w = s t^2 removes the endpoint
    singularity of q.
    """
    s = np.asarray(s, dtype=float)
    pos = s > 0.0
    out = np.zeros_like(s)
    if not np.any(pos):
        return out
    sp = s[pos]
    t = 0.5 * (_GL64_X + 1.0)
    wt = 0.5 * _GL64_W
    tt = t[None, :]
    q_t = inv.q(sp[:, None] * tt ** 2)
    jac = 2.0 * sp[:, None] * tt / c ** 2
    if kind == "kinetic":
        phi = (sp[:, None] / c ** 2) * (1.0 - tt ** 2)
        vals = phi * amp * q_t
    elif kind == "casimir":
        vals = inv.model.Q(amp * q_t)
    else:
        raise InputError(f"unknown velocity moment kind {kind!r}")
    out[pos] = 2.0 * np.pi * np.sum(wt[None, :] * vals * jac, axis=1)
    return out


def rescale_steady(model: CasimirModel, ss: SteadyState, p: ScalingParams) -> dict:
    """Predicted and directly evaluated functionals of a*f0(b*x, c*v).

    The prediction applies the scaling identities term by term; the direct
    path materializes the rescaled planar density on the scaled grid and
    re-evaluates every functional by quadrature.
    """
    base = evaluate_steady(model, ss)
    a, b, c = p.a, p.b, p.c
    inv = ss.inv
    ringw = ss.grid.ring_weights
    s = np.maximum(ss.s_values, 0.0)

    # C(a f) by quadrature on the original state, then the b, c prefactor
    c_of_af = float(np.sum(ringw * 2.0 * np.pi * inv.GQ_scaled(s, a)))
    predicted = {
        "mass": a * b ** -2 * c ** -2 * base.mass,
        "e_kin": a * b ** -2 * c ** -4 * base.e_kin,
        "e_pot": a ** 2 * b ** -3 * c ** -4 * base.e_pot,
        "casimir": b ** -2 * c ** -2 * c_of_af,
    }

    # materialized rescaled state: nodes r/b, planar density a c^-2 rho0(b r)
    scaled_grid = RadialGrid(ss.grid.nodes / b, scheme=ss.grid.scheme)
    ringw_s = scaled_grid.ring_weights
    rho_bar = a * c ** -2 * ss.rho0.values
    mass_direct = float(np.sum(ringw_s * rho_bar))
    # an independent assembly: operator_for would derive this operator from
    # the unscaled one by the same homogeneity the prediction uses
    op = FlatPotentialOperator(scaled_grid)
    e_pot_direct = op.potential_energy(rho_bar)
    # velocity moments of a*q(s(br) - c^2 w) by direct 1D quadrature
    kin_density = _velocity_moment_direct(inv, s, c, "kinetic", a)
    cas_density = _velocity_moment_direct(inv, s, c, "casimir", a)
    e_kin_direct = float(np.sum(ringw_s * kin_density))
    cas_direct = float(np.sum(ringw_s * cas_density))
    direct = {
        "mass": mass_direct,
        "e_kin": e_kin_direct,
        "e_pot": e_pot_direct,
        "casimir": cas_direct,
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
    res = rescale_steady(model, ss2, p)
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

def split_diagnostic(ss: SteadyState, R: float, C: float = None) -> dict:
    """Interior/exterior mass split at radius R and the mixed energy term.

    Splits rho0 into rho1 (r < R) and rho2 (r >= R) and reports the mixed
    interaction int U_rho1 * rho2 together with the bound
    C * R^(-1/2) * ||rho0||_{4/3} * lambda when a constant C is supplied.
    """
    if R <= 0:
        raise InputError("split_diagnostic: R must be positive")
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

def stability_distance(model: CasimirModel, ss: SteadyState, ens) -> tuple:
    """(d(f, f0), E_pot(rho_f - rho0)) for an ensemble against a steady state.

    d = [C(f) - C(f0)] + iint (E - E0)(f - f0) with E = |v|^2/2 + U0(x)
    evaluated particle-wise; the identity D(f) - D(f0) = d + e_pot_diff then
    holds exactly in the discretization.
    """
    if ens.positions.shape[0] == 0:
        raise InputError("stability_distance: empty ensemble")
    inv = ss.inv
    grid = ss.grid
    ringw = grid.ring_weights
    s = np.maximum(ss.s_values, 0.0)

    c_f0 = float(np.sum(ringw * 2.0 * np.pi * inv.GQ(s)))
    c_f = _histogram_casimir(model, ens)

    radii = np.hypot(ens.positions[:, 0], ens.positions[:, 1])
    v2 = np.sum(ens.velocities ** 2, axis=1)
    U0_at = ss.U0(radii)
    e_moment_f = float(np.sum(ens.weights * (0.5 * v2 + U0_at - ss.E0)))
    # iint (E - E0) f0 = sum ringw * [2 pi G2(s) - s * 2 pi G(s)]
    e_moment_f0 = float(np.sum(ringw * 2.0 * np.pi * (inv.G2(s) - s * inv.G(s))))

    d = (c_f - c_f0) + (e_moment_f - e_moment_f0)

    op = operator_for(grid)
    rho_f = deposit_density(grid, radii, ens.weights)
    delta = rho_f - ss.rho0.values
    e_pot_diff = (op.potential_energy(delta)
                  - _deposit_self_energy(op, grid, radii, ens.weights))
    return d, e_pot_diff


# -- structural checks -----------------------------------------------------

def bilinearity_check(grid: RadialGrid, rho1: np.ndarray,
                      rho2: np.ndarray) -> dict:
    """E_pot(rho1 + rho2) = E_pot(rho1) + E_pot(rho2) + int rho1 U_rho2."""
    op = operator_for(grid)
    lhs = op.potential_energy(rho1 + rho2)
    rhs = (op.potential_energy(rho1) + op.potential_energy(rho2)
           + op.interaction_energy(rho1, rho2))
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return {"name": "bilinearity", "lhs": lhs, "rhs": rhs,
            "rel_defect": rel, "pass": bool(rel <= 1e-8)}


def lower_bound_check(report: FunctionalReport, c_m: float, mu1: float) -> dict:
    """D >= P - C_M * (1 + P^(n1/2)) with n1 = 1 + mu1."""
    n1 = 1.0 + mu1
    rhs = report.p - c_m * (1.0 + report.p ** (0.5 * n1))
    return {"name": "lower_bound", "lhs": report.d, "rhs": rhs,
            "pass": bool(report.d >= rhs - 1e-12 * max(abs(rhs), 1.0))}


def calibrate_lower_bound(report: FunctionalReport, mu1: float) -> float:
    """Empirical C_M making the coercivity bound tight for this (model, M)."""
    n1 = 1.0 + mu1
    return (report.p - report.d) / (1.0 + report.p ** (0.5 * n1))


def interpolation_check(grid: RadialGrid, rho: np.ndarray, mu1: float) -> dict:
    """||rho||_{4/3} <= ||rho||_1^(1-theta) * ||rho||_{1+1/n1}^theta.

    theta solves the exponent interpolation 3/4 = (1-theta) + theta/q with
    q = 1 + 1/n1, n1 = 1 + mu1; holds by log-convexity of the Lp norms.
    """
    n1 = 1.0 + mu1
    q = 1.0 + 1.0 / n1
    theta = (1.0 - 0.75) / (1.0 - 1.0 / q)
    prof = RadialProfile(grid, rho)
    lhs = lp_norm(prof, 4.0 / 3.0)
    rhs = lp_norm(prof, 1.0) ** (1.0 - theta) * lp_norm(prof, q) ** theta
    return {"name": "interpolation", "lhs": lhs, "rhs": rhs, "theta": theta,
            "pass": bool(lhs <= rhs * (1.0 + 1e-10))}
