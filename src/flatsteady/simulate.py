"""Particle-ensemble sampling and evolution for stability probes.

The steady state is isotropic in v, so sampling splits into an inverse-CDF
draw of the radius from 2*pi*r*rho0(r), a rejection draw of the kinetic
energy w = |v|^2/2 from q(E0 - U0(r) - w) with the constant envelope
q(E0 - U0(r)), and uniform angles.  Evolution is kick-drift-kick leapfrog
under either the axisymmetrized grid force (deposit, kernel potential,
spline derivative) or direct pairwise summation with Plummer softening.
All randomness flows through one counter-based generator (Philox) seeded
explicitly, so runs are bit-reproducible across thread counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import InputError
from .functionals import (deposit_density, evaluate_ensemble,
                          stability_distance)
from .grids import RadialGrid
from .potential import operator_for
from .steady import SteadyState

__all__ = ["ParticleEnsemble", "SimConfig", "sample", "accelerations",
           "step", "run"]


@dataclass
class ParticleEnsemble:
    """Equal- or variable-weight particles in the plane."""

    positions: np.ndarray   # (N, 2)
    velocities: np.ndarray  # (N, 2)
    weights: np.ndarray     # (N,)
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        n = self.weights.size
        if self.positions.shape != (n, 2) or self.velocities.shape != (n, 2):
            raise InputError("ParticleEnsemble: shape mismatch")
        if n and np.any(self.weights <= 0.0):
            raise InputError("ParticleEnsemble: weights must be positive")
        if not (np.all(np.isfinite(self.positions))
                and np.all(np.isfinite(self.velocities))
                and np.all(np.isfinite(self.weights))):
            raise InputError("ParticleEnsemble: non-finite entries")

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    def radii(self) -> np.ndarray:
        return np.hypot(self.positions[:, 0], self.positions[:, 1])

    def angular_momentum(self) -> float:
        """Total L3 = sum w * (x1 v2 - x2 v1)."""
        x, v, w = self.positions, self.velocities, self.weights
        return float(np.sum(w * (x[:, 0] * v[:, 1] - x[:, 1] * v[:, 0])))

    def abs_angular_momentum(self) -> float:
        x, v, w = self.positions, self.velocities, self.weights
        return float(np.sum(w * np.abs(x[:, 0] * v[:, 1] - x[:, 1] * v[:, 0])))


@dataclass
class SimConfig:
    n_particles: int = 100_000
    dt: float = 1e-3
    t_end: float = 1.0
    method: str = "grid"          # "grid" | "direct"
    eps_soft: float = 0.0         # 0 means auto: 0.01 * support radius
    seed: int = 0
    output_every: int = 50        # steps between diagnostic rows
    escape_factor: float = 100.0  # log particles beyond this * support radius

    def __post_init__(self):
        if self.dt <= 0 or self.t_end < 0:
            raise InputError("SimConfig: dt must be > 0 and t_end >= 0")
        if self.method not in ("grid", "direct"):
            raise InputError("SimConfig: method must be 'grid' or 'direct'")
        if self.method == "direct" and self.n_particles > 100_000:
            raise InputError("SimConfig: direct summation capped at N = 1e5")
        if self.output_every < 1:
            raise InputError("SimConfig: output_every must be >= 1")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def sample(ss: SteadyState, n: int, seed: int) -> ParticleEnsemble:
    """Draw n equal-weight particles from the steady state f0 = q(E0 - E)."""
    if n < 1:
        raise InputError("sample: need at least one particle")
    if n < 1000:
        warnings.warn("sample: fewer than 1000 particles, diagnostics will "
                      "be noisy", stacklevel=2)
    rng = _rng(seed)
    r_nodes = ss.grid.nodes
    # running trapezoid CDF of 2*pi*r*rho, anchored at zero on the first node
    g = 2.0 * np.pi * r_nodes * ss.rho0.values
    inc = 0.5 * np.diff(r_nodes) * (g[:-1] + g[1:])
    cdf = np.concatenate([[0.0], np.cumsum(inc)])
    cdf /= cdf[-1]

    u = rng.random(n)
    radii = np.interp(u, cdf, r_nodes)
    s_at = np.maximum(ss.E0 - ss.U0(radii), 0.0)
    # particles can only live where s > 0; clamp stragglers inward
    s_floor = 1e-12 * np.max(s_at)
    radii = np.where(s_at > s_floor, radii, 0.0)
    s_at = np.maximum(s_at, s_floor)

    # rejection in w with the constant envelope q(s): accept u*q(s) <= q(s-w)
    w_kin = np.empty(n)
    pending = np.arange(n)
    q_env = ss.inv.q(s_at)
    while pending.size:
        w_try = rng.random(pending.size) * s_at[pending]
        u_try = rng.random(pending.size) * q_env[pending]
        ok = u_try <= ss.inv.q(s_at[pending] - w_try)
        w_kin[pending[ok]] = w_try[ok]
        pending = pending[~ok]

    phi = rng.random(n) * 2.0 * np.pi
    psi = rng.random(n) * 2.0 * np.pi
    speed = np.sqrt(2.0 * w_kin)
    positions = np.column_stack([radii * np.cos(phi), radii * np.sin(phi)])
    velocities = np.column_stack([speed * np.cos(psi), speed * np.sin(psi)])
    weights = np.full(n, ss.mass / n)
    return ParticleEnsemble(positions, velocities, weights)


def _grid_accel_arrays(x: np.ndarray, weights: np.ndarray,
                       grid: RadialGrid) -> np.ndarray:
    """Axisymmetrized force: deposit, kernel potential, spline derivative."""
    op = operator_for(grid)
    radii = np.hypot(x[:, 0], x[:, 1])
    rho = deposit_density(grid, radii, weights)
    U = op.potential(rho)
    dU = CubicSpline(grid.nodes, U).derivative()(np.clip(radii, 0.0,
                                                         grid.r_max))
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(radii > 0.0, -dU / np.where(radii > 0.0, radii, 1.0),
                         0.0)
    return scale[:, None] * x


def _direct_accel_arrays(x: np.ndarray, w: np.ndarray,
                         eps_soft: float) -> np.ndarray:
    """Pairwise softened sum a_i = -sum_j w_j (x_i-x_j)/(|..|^2+eps^2)^1.5."""
    if eps_soft <= 0.0:
        raise InputError("direct summation requires eps_soft > 0")
    acc = np.zeros_like(x)
    block = 2048
    eps2 = eps_soft * eps_soft
    for lo in range(0, x.shape[0], block):
        hi = min(lo + block, x.shape[0])
        dx = x[lo:hi, None, :] - x[None, :, :]
        d2 = dx[:, :, 0] ** 2 + dx[:, :, 1] ** 2 + eps2
        inv3 = d2 ** -1.5
        # the i == j term contributes zero displacement, so no masking needed
        acc[lo:hi, 0] = -np.sum(w[None, :] * dx[:, :, 0] * inv3, axis=1)
        acc[lo:hi, 1] = -np.sum(w[None, :] * dx[:, :, 1] * inv3, axis=1)
    return acc


def _accel_arrays(x, weights, method, grid, eps_soft):
    if method == "grid":
        if grid is None:
            raise InputError("accelerations: grid method needs a RadialGrid")
        return _grid_accel_arrays(x, weights, grid)
    if method == "direct":
        return _direct_accel_arrays(x, weights, eps_soft)
    raise InputError(f"accelerations: unknown method {method!r}")


def accelerations(ens: ParticleEnsemble, method: str = "grid",
                  grid: RadialGrid = None,
                  eps_soft: float = 0.0) -> np.ndarray:
    """Per-particle accelerations under the chosen force method."""
    if ens.n == 0:
        raise InputError("accelerations: empty ensemble")
    return _accel_arrays(ens.positions, ens.weights, method, grid, eps_soft)


def step(ens: ParticleEnsemble, dt: float, method: str = "grid",
         grid: RadialGrid = None, eps_soft: float = 0.0,
         acc: np.ndarray = None) -> tuple:
    """One kick-drift-kick leapfrog step; returns (ensemble, end acc).

    Passing the acceleration at the current positions (from the previous
    step's return) avoids recomputing it.
    """
    if acc is None:
        acc = accelerations(ens, method, grid, eps_soft)
    v_half = ens.velocities + 0.5 * dt * acc
    x_new = ens.positions + dt * v_half
    acc_new = _accel_arrays(x_new, ens.weights, method, grid, eps_soft)
    v_new = v_half + 0.5 * dt * acc_new
    if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(v_new))):
        bad = np.nonzero(~(np.isfinite(x_new).all(axis=1)
                           & np.isfinite(v_new).all(axis=1)))[0]
        raise InputError(f"step: non-finite coordinates for particle index "
                         f"{int(bad[0])} after dt={dt:g}")
    out = ParticleEnsemble(x_new, v_new, ens.weights, time=ens.time + dt)
    return out, acc_new


def _apply_perturbation(ens: ParticleEnsemble, kind: str,
                        delta: float) -> ParticleEnsemble:
    if kind == "none" or delta == 0.0:
        return ens
    if kind == "velocity-scale":
        return replace(ens, velocities=(1.0 + delta) * ens.velocities)
    if kind == "radius-scale":
        return replace(ens, positions=(1.0 + delta) * ens.positions)
    raise InputError(f"unknown perturbation kind {kind!r}")


def _diagnostics_row(model, ss, ens) -> dict:
    rep = evaluate_ensemble(model, ens, grid=ss.grid)
    d_dist, epot_diff = stability_distance(model, ss, ens)
    return {
        "t": ens.time,
        "e_kin": rep.e_kin,
        "e_pot": rep.e_pot,
        "casimir": rep.casimir,
        "D": rep.d,
        "d_dist": d_dist,
        "epot_diff": epot_diff,
        "L3": ens.angular_momentum(),
        "max_r": float(np.max(ens.radii())) if ens.n else 0.0,
    }


def run(ss: SteadyState, cfg: SimConfig, perturbation: str = "none",
        delta: float = 0.0, model=None) -> dict:
    """Sample, perturb, evolve, and emit the stability time series.

    Returns {"rows": [...], "ensemble": final, "eps_mc": noise floor,
    "escaped": count}; rows carry the CSV columns
    t, e_kin, e_pot, casimir, D, d_dist, epot_diff, L3, max_r.
    """
    model = model or ss.model
    ens = sample(ss, cfg.n_particles, cfg.seed)
    ens = _apply_perturbation(ens, perturbation, delta)

    eps_soft = cfg.eps_soft if cfg.eps_soft > 0.0 else 0.01 * ss.support_radius
    grid = ss.grid

    # Monte-Carlo noise floor of the distance metric: the t=0 value of d on
    # the full ensemble plus the half-ensemble spread
    d0, _ = stability_distance(model, ss, ens)
    half = ens.n // 2
    if half >= 1000:
        e1 = ParticleEnsemble(ens.positions[:half], ens.velocities[:half],
                              ens.weights[:half], ens.time)
        e2 = ParticleEnsemble(ens.positions[half:], ens.velocities[half:],
                              ens.weights[half:], ens.time)
        da, _ = stability_distance(model, ss, e1)
        db, _ = stability_distance(model, ss, e2)
        eps_mc = abs(d0) + abs(da - db)
    else:
        eps_mc = abs(d0)

    rows = [_diagnostics_row(model, ss, ens)]
    escape_r = cfg.escape_factor * ss.support_radius
    escaped = 0
    n_steps = int(round(cfg.t_end / cfg.dt))
    # tight kick-drift-kick loop on raw arrays; ensembles are materialized
    # only at diagnostic times
    x = ens.positions.copy()
    v = ens.velocities.copy()
    w = ens.weights
    t0 = ens.time
    dt = cfg.dt
    acc = _accel_arrays(x, w, cfg.method, grid, eps_soft)
    for k in range(1, n_steps + 1):
        v += 0.5 * dt * acc
        x += dt * v
        acc = _accel_arrays(x, w, cfg.method, grid, eps_soft)
        v += 0.5 * dt * acc
        if k % cfg.output_every == 0 or k == n_steps:
            ens = ParticleEnsemble(x.copy(), v.copy(), w, time=t0 + k * dt)
            far = int(np.count_nonzero(ens.radii() > escape_r))
            if far > escaped:
                escaped = far
            rows.append(_diagnostics_row(model, ss, ens))
    return {"rows": rows, "ensemble": ens, "eps_mc": eps_mc,
            "escaped": escaped}
