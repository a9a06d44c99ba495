"""Particle-ensemble sampling and evolution for stability probes.

The steady state is isotropic in v, so sampling splits into an inverse-CDF
draw of the radius from 2*pi*r*rho0(r), a rejection draw of the kinetic
energy w = |v|^2/2 from q(E0 - U0(r) - w) with the constant envelope
q(E0 - U0(r)), and uniform angles.  Evolution is kick-drift-kick leapfrog
under the axisymmetrized grid force; ``_kdk`` is the one leapfrog, which
``step`` and ``run`` both call.  ``run`` steps the sampled arrays in
place and records every row, t = 0 included, through one path.  It bins
the particles once per position update; that binning serves the grid force
(its deposit and the gather of the potential's spline derivative), the
diagnostics row (``functionals._ensemble_row``), and the escape and
clamped counts.
The per-particle maps of sampling, the force step, the leapfrog updates and
the diagnostics rows run in chunks on a pool of threads
(``grids._map_chunks``), one per CPU in the process's affinity set; random
draws, sums, deposits and the spline stay whole-array on one thread, so
results are bit-reproducible for any worker count.  All randomness flows
through one counter-based generator (Philox) seeded explicitly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .functionals import _bin, _bin_part, _ensemble_row, _radius
from .grids import RadialGrid, _map_chunks, _workers
from .potential import operator_for
from .steady import SteadyState

__all__ = ["ParticleEnsemble", "SimConfig", "sample", "accelerations",
           "step", "run"]

# ``run`` counts as escaped the particles beyond this many support radii
_ESCAPE_FACTOR = 100.0


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
            raise InputError("ParticleEnsemble: shapes do not match")
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
        return _radius(self.positions)

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
    method: str = "grid"          # only "grid", the one force
    seed: int = 0
    output_every: int = 50        # steps between diagnostic rows

    def __post_init__(self):
        if self.n_particles < 1:
            raise InputError("SimConfig: n_particles must be >= 1")
        if not (0.0 < self.dt < np.inf and 0.0 <= self.t_end < np.inf):
            raise InputError("SimConfig: need finite dt > 0 and t_end >= 0")
        if self.method != "grid":
            raise InputError("SimConfig: method must be 'grid'")
        if self.output_every < 1:
            raise InputError("SimConfig: output_every must be >= 1")


def _rng(seed: int) -> np.random.Generator:
    """The package's one generator; InputError on a seed Philox rejects."""
    try:
        return np.random.Generator(np.random.Philox(seed))
    except ValueError as exc:
        raise InputError(f"seed {seed!r} is not a non-negative integer") from exc


def sample(ss: SteadyState, n: int, seed: int) -> ParticleEnsemble:
    """Draw n equal-weight particles from the steady state f0 = q(E0 - E).

    Every random draw is one whole array, taken on the calling thread in a
    fixed order (radii, then each rejection round's w and u, then the two
    angles), so the Philox stream and the ensemble do not depend on the
    worker count; the per-particle maps between the draws run in chunks.
    The ensemble's arrays are fresh; ``run`` steps them in place.
    """
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
    # particles can only live where s = E0 - U0 is above this floor; the
    # cell where s (linear between nodes, as U0 is) falls to it spreads its
    # mass only up to that point, so no draw lands past the support
    s_nodes = ss.s_values
    s_floor = 1e-12 * max(float(np.max(s_nodes)), 0.0)
    k = int(np.argmax(s_nodes <= s_floor))
    if k > 0:
        t = (s_nodes[k - 1] - s_floor) / (s_nodes[k - 1] - s_nodes[k])
        r_nodes = r_nodes.copy()
        r_nodes[k] = r_nodes[k - 1] + t * (r_nodes[k] - r_nodes[k - 1])
    # private names only in the chunks (see grids._map_chunks)
    u0, inv = ss.U0._interp, ss.inv

    def q(s):
        return inv._positive("q", s, inv._q)

    radii, s_at, q_env = rng.random(n), np.empty(n), np.empty(n)

    def envelope(a, b):
        r = radii[a:b]
        r[:] = np.interp(r, cdf, r_nodes)
        s = np.subtract(ss.E0, u0(r), out=s_at[a:b])
        np.maximum(s, 0.0, out=s)
        # a state with density where s is at the floor keeps stragglers
        # there; they move to r = 0, and run counts them as clamped
        r[s <= s_floor] = 0.0
        np.maximum(s, s_floor, out=s)
        q_env[a:b] = q(s)

    _map_chunks(envelope, n)

    # rejection in w with the constant envelope q(s): accept u*q(s) <= q(s-w)
    w_kin = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        w_try, u_try = rng.random(pending.size), rng.random(pending.size)
        ok = np.empty(pending.size, dtype=bool)

        def trial(a, b):
            i = pending[a:b]
            s = s_at[i]
            w = w_try[a:b]
            w *= s
            u = u_try[a:b]
            u *= q_env[i]
            s -= w
            np.less_equal(u, q(s), out=ok[a:b])

        _map_chunks(trial, pending.size)
        w_kin[pending[ok]] = w_try[ok]
        pending = pending[~ok]

    phi, psi = rng.random(n), rng.random(n)
    positions, velocities = np.empty((n, 2)), np.empty((n, 2))

    def place(a, b):
        speed = w_kin[a:b]
        speed *= 2.0
        np.sqrt(speed, out=speed)
        for angle, xy, length in ((phi[a:b], positions, radii[a:b]),
                                  (psi[a:b], velocities, speed)):
            angle *= 2.0
            angle *= np.pi
            np.multiply(length, np.cos(angle), out=xy[a:b, 0])
            np.multiply(length, np.sin(angle), out=xy[a:b, 1])

    _map_chunks(place, n)
    weights = np.full(n, ss.mass / n)
    return ParticleEnsemble(positions, velocities, weights)


def _grid_accel_arrays(x: np.ndarray, binned,
                       out: np.ndarray = None) -> np.ndarray:
    """Axisymmetrized force at positions x from their binning.

    Kernel potential of the binning's deposit, and the derivative of its
    not-a-knot cubic spline gathered at each particle's cell.  Past the grid
    (``binned.outside``) the force is the monopole -M x / r^3 of the mass M
    the potential is built from, ``ring_weights @ rho``.  The derivative is
    summed in scipy's PPoly order, so it equals
    ``CubicSpline(nodes, U).derivative()(r)`` bit for bit.  Writes into
    ``out`` when given.
    """
    # imported here: scipy.interpolate takes most of the package's import time
    from scipy.interpolate import CubicSpline
    grid = binned.grid
    U = operator_for(grid).potential(binned.rho)
    dc = CubicSpline(grid.nodes, U).derivative().c
    # one row per cell: its lower node and the derivative's coefficients,
    # so that a particle's cell is one gather
    table = np.column_stack([grid.nodes[:-1], dc[2], dc[1], dc[0]])
    radii, idx, outside = binned.radii, binned.idx, binned.outside
    r_max = grid.r_max
    m_grid = float(grid.ring_weights @ binned.rho)
    acc = np.empty_like(x) if out is None else out

    def gather(a, b):
        r = radii[a:b]
        cell = table.take(idx[a:b], axis=0)
        t = np.minimum(r, r_max)  # kept finite where the monopole replaces it
        t -= cell[:, 0]
        dU = cell[:, 1] + cell[:, 2] * t + cell[:, 3] * (t * t)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.divide(-dU, r, out=dU)
        scale[r == 0.0] = 0.0  # no direction at the origin
        far = outside[a:b]
        if far.any():
            # divided one r at a time: r^3 overflows past about 1e102
            r_far = r[far]
            scale[far] = -m_grid / r_far / r_far / r_far
        np.multiply(scale, x[a:b, 0], out=acc[a:b, 0])
        np.multiply(scale, x[a:b, 1], out=acc[a:b, 1])

    _map_chunks(gather, x.shape[0])
    return acc


def accelerations(ens: ParticleEnsemble, grid: RadialGrid) -> np.ndarray:
    """Per-particle accelerations under the grid force on ``grid``."""
    if ens.n == 0:
        raise InputError("accelerations: empty ensemble")
    x = ens.positions
    return _grid_accel_arrays(x, _bin(grid, x, ens.weights))


def _kdk(x: np.ndarray, v: np.ndarray, kick: np.ndarray, dt: float, force):
    """One kick-drift-kick step of x and v in place: the one leapfrog.

    ``kick`` holds the opening half kick 0.5*dt*a at x.  The drift takes it
    as scratch once v has it; ``force(x, kick)`` then writes the
    acceleration at the new x into it, and the closing kick scales it in
    place, so on return ``kick`` holds the next step's half kick.  Returns
    what ``force`` returned.  The updates run in chunks and allocate nothing.
    """
    def kick_drift(a, b):
        h = kick[a:b]
        v[a:b] += h
        x[a:b] += np.multiply(v[a:b], dt, out=h)

    def close(a, b):
        h = kick[a:b]
        h *= 0.5 * dt
        v[a:b] += h

    _map_chunks(kick_drift, v.shape[0])
    result = force(x, kick)
    _map_chunks(close, v.shape[0])
    return result


def step(ens: ParticleEnsemble, dt: float, grid: RadialGrid,
         acc: np.ndarray = None) -> tuple:
    """One kick-drift-kick leapfrog step; returns (ensemble, end acc).

    Passing the acceleration at the current positions (from the previous
    step's return) avoids recomputing it.
    """
    if acc is None:
        acc = accelerations(ens, grid)
    x, v, w = ens.positions.copy(), ens.velocities.copy(), ens.weights

    def check_finite():
        finite = np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1)
        if not finite.all():
            raise InputError(f"step: non-finite coordinates for particle index "
                             f"{int(np.argmin(finite))} after dt={dt:g}")

    def force(x, out):
        # before the force: the gather gives a runaway at infinity the force
        # scale -dU/r = 0, and 0 * inf is a numpy "invalid value" warning
        check_finite()
        # a copy, since the closing kick scales the buffer in place
        return _grid_accel_arrays(x, _bin(grid, x, w), out).copy()

    acc_new = _kdk(x, v, 0.5 * dt * acc, dt, force)
    check_finite()
    return ParticleEnsemble(x, v, w, time=ens.time + dt), acc_new


def _check_perturbation(kind: str, delta: float) -> None:
    """InputError unless kind is a known perturbation and delta one it
    takes: 0 for none, 1 + delta > 0 for a radius scale."""
    if kind not in ("none", "velocity-scale", "radius-scale"):
        raise InputError(f"unknown perturbation kind {kind!r}")
    if kind == "none" and delta != 0.0:
        raise InputError(f"perturbation none takes no delta (got {delta!r})")
    if kind == "radius-scale" and 1.0 + delta <= 0.0:
        raise InputError("radius-scale perturbation: 1 + delta must be > 0")


def _apply_perturbation(ens: ParticleEnsemble, kind: str,
                        delta: float) -> ParticleEnsemble:
    """ens with its velocities or positions scaled by 1 + delta into a fresh
    array, sharing the other; ens itself for no perturbation or delta = 0."""
    _check_perturbation(kind, delta)
    if kind == "none" or delta == 0.0:
        return ens
    if kind == "velocity-scale":
        return replace(ens, velocities=(1.0 + delta) * ens.velocities)
    return replace(ens, positions=(1.0 + delta) * ens.positions)


def _noise_floor(ss, ens, binned, d0: float = None) -> float:
    """Monte-Carlo noise floor of the distance metric: |d| at t=0 on the
    full ensemble (d0, evaluated here when not given) plus the spread of d
    between its two halves.  ``binned`` is the ensemble's binning; each
    half takes its slice of it (``_bin_part``)."""
    if d0 is None:
        d0 = _ensemble_row(ss.model, ens, binned, ss)[0]["d_dist"]
    half = ens.n // 2
    if half < 1000:
        return abs(d0)
    def d_of(part):
        sub = ParticleEnsemble(ens.positions[part], ens.velocities[part],
                               ens.weights[part])
        return _ensemble_row(ss.model, sub, _bin_part(binned, ens.weights, part),
                             ss)[0]["d_dist"]

    return abs(d0) + abs(d_of(slice(None, half)) - d_of(slice(half, None)))


def run(ss: SteadyState, cfg: SimConfig, perturbation: str = "none",
        delta: float = 0.0, model=None) -> dict:
    """Sample, perturb, evolve, and emit the stability time series.

    The leapfrog steps the drawn (or perturbed) ensemble's arrays in place,
    and each row's ensemble wraps them without a copy.  Returns {"rows":
    [...], "ensemble": the last row's, "eps_mc": the noise floor of the
    unperturbed draw, "escaped": count, "mass_past_grid": largest fraction
    of mass past the grid's r_max over the rows, "clamped": sampled
    stragglers moved to r = 0, "workers": threads of the particle maps,
    "d_drift": max |D - D_0| / |D_0|, "l3_drift": max |L3 - L3_0| over the
    last ensemble's sum of w*|L3|, "d_min": the smallest d_dist, "checks":
    the gates d_drift <= 1%, l3_drift <= 1e-6 and d_min >= -eps_mc}; rows
    carry the CSV columns t, e_kin, e_pot, casimir, D, d_dist, epot_diff,
    L3, max_r.  A model, if given, must be ss.model itself.
    """
    if model is not None and model is not ss.model:
        raise InputError("run: model is not the state's model")
    drawn = sample(ss, cfg.n_particles, cfg.seed)
    ens = _apply_perturbation(drawn, perturbation, delta)
    x, v, w = ens.positions, ens.velocities, ens.weights
    dt = cfg.dt
    escape_r = _ESCAPE_FACTOR * ss.support_radius
    rows, last, escaped, mass_past_grid = [], None, 0, 0.0

    def force(x, out):
        binned = _bin(ss.grid, x, w)
        _grid_accel_arrays(x, binned, out)
        return binned

    def record(binned, t):
        nonlocal last, escaped, mass_past_grid
        last = ParticleEnsemble(x, v, w, time=t)
        row, past = _ensemble_row(ss.model, last, binned, ss)
        rows.append(row)
        mass_past_grid = max(mass_past_grid, past)
        escaped = max(escaped, int(np.count_nonzero(binned.radii > escape_r)))

    kick = np.empty_like(x)
    binned = force(x, kick)
    # sample's stragglers sit at r = 0, where a radius scale keeps them; any
    # other draw lands there only for a uniform variate of exactly 0 (2**-53)
    clamped = int(np.count_nonzero(binned.radii == 0.0))
    record(binned, 0.0)
    # before the first drift: a perturbed ensemble shares an array with the
    # draw, and row 0's binning is the draw's unless a radius scale moved it
    if ens.positions is not drawn.positions:
        binned = _bin(ss.grid, drawn.positions, drawn.weights)
    eps_mc = _noise_floor(ss, drawn, binned,
                          rows[0]["d_dist"] if ens is drawn else None)
    del binned, drawn, ens  # the steps keep x, v, w and the kick alone
    kick *= 0.5 * dt
    n_steps = int(round(cfg.t_end / dt))
    for k in range(1, n_steps + 1):
        binned = _kdk(x, v, kick, dt, force)
        if k % cfg.output_every == 0 or k == n_steps:
            record(binned, k * dt)
        del binned
    d0, l0 = rows[0]["D"], rows[0]["L3"]
    d_drift = max(abs(r["D"] - d0) for r in rows) / max(abs(d0), 1e-300)
    l3_drift = (max(abs(r["L3"] - l0) for r in rows)
                / max(last.abs_angular_momentum(), 1e-300))
    d_min = min(r["d_dist"] for r in rows)
    checks = [{"name": name, "lhs": lhs, "rhs": rhs, "pass": bool(ok)}
              for name, lhs, rhs, ok in (
                  ("D_drift_below_1pc", d_drift, 0.01, d_drift <= 0.01),
                  ("L3_drift_below_1e6", l3_drift, 1e-6, l3_drift <= 1e-6),
                  ("d_above_minus_eps_mc", d_min, -eps_mc, d_min >= -eps_mc))]
    return {"rows": rows, "ensemble": last, "eps_mc": eps_mc,
            "escaped": escaped, "mass_past_grid": mass_past_grid,
            "clamped": clamped, "workers": _workers(), "d_drift": d_drift,
            "l3_drift": l3_drift, "d_min": d_min, "checks": checks}
