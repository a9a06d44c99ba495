"""In-plane potential of an axisymmetric razor-thin surface density.

The potential of a flat density rho(s) at planar radius r is

    U(r) = -4 * int_0^inf s/(r+s) * rho(s) * K(2*sqrt(r*s)/(r+s)) ds,

with K the complete elliptic integral of the first kind.  The kernel is
logarithmically singular at s = r.  Every panel is integrated by
Gauss-Legendre: 8 points on a panel away from the node, and on the two
panels touching it a 16-point rule graded towards the node, |s - r| =
h*u^4 for u in [0, 1], which turns the endpoint logarithm into a smooth
integrand in u.  The AGM takes the complementary modulus |r-s|/(r+s),
which stays exact as s -> r.

The discrete operator is a dense matrix U = scale * (K @ rho) (density
interpolated by local quadratics between nodes).  The kernel is homogeneous
of degree one, so K is assembled once per grid shape (nodes / r_max), and
every grid of that shape holds the shape's K by reference with scale =
r_max / shape.r_max.  Potential energies come from the same matvec: with
ring weights w, the bilinear form is the symmetrized scale * W K, so that
int rho1 * U_rho2 == int rho2 * U_rho1 holds exactly in the discretization.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .elliptic import _k_complementary
from .errors import InputError
from .grids import RadialGrid, RadialProfile

__all__ = [
    "FlatPotentialOperator",
    "operator_for",
    "potential_from_density",
    "outer_potential_energy",
    "lp_norm",
]

_ROW_BLOCK = 128  # rows assembled per vectorized block (memory cap)
_GL8 = np.polynomial.legendre.leggauss(8)  # Gauss-Legendre rule per regular panel
# 16-point rule for the panels touching a node: u in [0, 1], |s - r_i| =
# h*u^4, so ds = 4*h*u^3 du and the weights below take h as a factor
_NODES16, _WEIGHTS16 = np.polynomial.legendre.leggauss(16)
_GRADED_U = 0.5 * (_NODES16 + 1.0)
_GRADED_W = 2.0 * _WEIGHTS16 * _GRADED_U ** 3
_CACHE_SIZE = 8   # shapes kept by operator_for, least recently used dropped


def _kern(r, s):
    """Kernel -4*s/(r+s) * K(xi), vectorized; r and s broadcastable, r != s."""
    denom = r + s
    return -4.0 * s / denom * _k_complementary(np.abs(r - s) / denom)


def _lagrange3(s, x0, x1, x2):
    """Quadratic Lagrange basis on nodes x0, x1, x2 at s; basis on a new last axis."""
    return np.stack([(s - x1) * (s - x2) / ((x0 - x1) * (x0 - x2)),
                     (s - x0) * (s - x2) / ((x1 - x0) * (x1 - x2)),
                     (s - x0) * (s - x1) / ((x2 - x0) * (x2 - x1))], axis=-1)


class FlatPotentialOperator:
    """Dense discretization of the flat-disc potential on one radial grid.

    The operator is ``scale * kmat``: a direct assembly has scale 1, and a
    grid's operator from ``operator_for`` shares its shape's kmat.
    """

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        self.scale = 1.0
        self.kmat = self._assemble()
        self.kmat.flags.writeable = False  # shared by every grid of the shape

    # -- assembly ----------------------------------------------------------

    def _panel_setup(self):
        r = self.grid.nodes
        n = r.size
        xg, wg = _GL8
        a, b = r[:-1], r[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        s = mid[:, None] + half[:, None] * xg[None, :]      # (n-1, m)
        w = half[:, None] * wg[None, :]
        # quadratic interpolation triple per panel
        j0 = np.clip(np.arange(n - 1) - 1, 0, n - 3)
        B = _lagrange3(s, *(r[j0 + k][:, None] for k in range(3)))
        return s, w, B, j0

    def _assemble(self):
        r = self.grid.nodes
        n = r.size
        s, w, B, j0 = self._panel_setup()
        # w * B collapsed once: contribution tensor awaits kernel values
        wB = w[:, :, None] * B                               # (n-1, m, 3)
        kmat = np.zeros((n, n))
        cols = j0[:, None] + np.arange(3)                    # (n-1, 3)
        panels = np.arange(n - 1)
        for lo in range(0, n, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, n)
            rows = np.arange(lo, hi)[:, None]
            kern = _kern(r[lo:hi][:, None, None], s[None, :, :])  # (blk, n-1, m)
            # the panels touching row i's node go to the graded rule below
            kern[(panels == rows) | (panels == rows - 1)] = 0.0
            contrib = np.einsum("ipg,pgl->ipl", kern, wB)    # (blk, n-1, 3)
            flat = (rows[:, :, None] * n + cols[None, :, :]).ravel()
            kmat += np.bincount(flat, weights=contrib.ravel(),
                                minlength=n * n).reshape(n, n)
        # (node, touching panel) pairs: panel i right of node i, i-1 left of it
        node = np.concatenate([panels, panels + 1])
        pan = np.concatenate([panels, panels])
        h = np.diff(r)[pan][:, None]
        side = np.where(node == pan, 1.0, -1.0)[:, None]
        rn = r[node][:, None]
        sg = rn + side * h * _GRADED_U ** 4                  # (2(n-1), 16)
        Bg = _lagrange3(sg, *(r[j0[pan] + k][:, None] for k in range(3)))
        contrib = np.einsum("pg,pgl->pl", _kern(rn, sg) * h * _GRADED_W, Bg)
        flat = (node[:, None] * n + cols[pan]).ravel()
        kmat += np.bincount(flat, weights=contrib.ravel(),
                            minlength=n * n).reshape(n, n)
        return kmat

    # -- evaluation --------------------------------------------------------

    def potential(self, rho: np.ndarray) -> np.ndarray:
        """U at the grid nodes for density node values rho."""
        return self.scale * (self.kmat @ rho)

    def form_bands(self) -> tuple:
        """Diagonal and super-diagonal of the energies' bilinear form
        sym(scale * W K), W = diag(ring weights), in O(n)."""
        sw, k = self.scale * self.grid.ring_weights, self.kmat
        return sw * np.diag(k), 0.5 * (sw[:-1] * np.diag(k, 1)
                                       + sw[1:] * np.diag(k, -1))

    def interaction_energy(self, rho1: np.ndarray, rho2: np.ndarray) -> float:
        """int rho1 * U_rho2 dx as the mean of (w rho1).U_rho2 and (w rho2).U_rho1:
        bitwise symmetric in its arguments, since a float sum commutes."""
        w = self.grid.ring_weights
        return 0.5 * (float((w * rho1) @ self.potential(rho2))
                      + float((w * rho2) @ self.potential(rho1)))

    def potential_energy(self, rho: np.ndarray) -> float:
        """E_pot(rho) = 0.5 * int rho U_rho dx (negative for nonzero mass);
        bit for bit 0.5 * interaction_energy(rho, rho), from one matvec."""
        return 0.5 * float((self.grid.ring_weights * rho) @ self.potential(rho))


_OP_CACHE: OrderedDict = OrderedDict()


def operator_for(grid: RadialGrid) -> FlatPotentialOperator:
    """The operator on grid, from one cached assembly per grid shape.

    The kernel is homogeneous of degree one, so the operator on lam*g is
    lam times the one on g.  The assembly runs on ``grid.shape()`` itself
    (nodes / r_max, mantissas rounded to 40 bits) and is kept in an LRU
    cache of ``_CACHE_SIZE`` shapes.  The returned operator holds the
    shape's kmat by reference, with scale = r_max / shape.r_max; it is not
    cached and allocates no matrix.
    """
    shape = grid.shape()
    key = shape.key()
    base = _OP_CACHE[key] = _OP_CACHE.pop(key, None) or FlatPotentialOperator(shape)
    if len(_OP_CACHE) > _CACHE_SIZE:
        _OP_CACHE.popitem(last=False)
    op = object.__new__(FlatPotentialOperator)  # no __init__: no assembly
    op.grid, op.kmat = grid, base.kmat
    op.scale = grid.r_max / shape.r_max
    return op


def potential_from_density(rho: RadialProfile) -> RadialProfile:
    """In-plane potential profile U(r) of a nonnegative surface density."""
    if np.any(rho.values < 0.0):
        raise InputError("potential_from_density: negative density node")
    op = operator_for(rho.grid)
    return RadialProfile(rho.grid, op.potential(rho.values))


def lp_norm(rho: RadialProfile, p: float) -> float:
    """(2*pi int r rho(r)^p dr)^(1/p), the planar L^p norm."""
    if p < 1.0:
        raise InputError("lp_norm: p must be >= 1")
    return float(np.sum(rho.grid.ring_weights * rho.values ** p) ** (1.0 / p))


def _outer_integral(r: np.ndarray, g: np.ndarray, R: float) -> float:
    """int_R^rmax g dr by the trapezoid rule with g interpolated at R."""
    if R <= r[0]:
        return float(np.trapezoid(g, r))
    if R >= r[-1]:
        return 0.0
    mask = r > R
    rr = np.concatenate([[R], r[mask]])
    gg = np.concatenate([[float(np.interp(R, r, g))], g[mask]])
    return float(np.trapezoid(gg, rr))


def outer_potential_energy(rho: RadialProfile, R: float, C: float | None = None,
                           R_sequence=None) -> dict:
    """Exterior potential-energy content -int_{|x|>R} rho U dx and its bound.

    Reports the quadrature value, the bound right-hand side
    C * R^(-1/2) * ||rho||_{4/3} * outer_mass for a supplied C, and the
    empirical decay exponent fitted over R_sequence when given.
    """
    r = rho.grid.nodes
    if not (r[0] <= R <= r[-1]):
        raise InputError("outer_potential_energy: R outside grid span")
    U = operator_for(rho.grid).potential(rho.values)
    g_energy = -2.0 * np.pi * r * rho.values * U
    value = _outer_integral(r, g_energy, R)
    outer_mass = _outer_integral(r, 2.0 * np.pi * r * rho.values, R)
    norm43 = lp_norm(rho, 4.0 / 3.0)
    report = {
        "R": float(R),
        "value": value,
        "outer_mass": outer_mass,
        "norm_4_3": norm43,
    }
    if C is not None:
        rhs = C * R ** (-0.5) * norm43 * outer_mass
        report["bound_rhs"] = rhs
        report["bound_holds"] = bool(value <= rhs * (1.0 + 1e-12))
    if R_sequence is not None:
        Rs = np.asarray(R_sequence, dtype=float)
        vals = np.array([_outer_integral(r, g_energy, Rk) for Rk in Rs])
        if np.any(vals <= 0.0):
            report["decay_exponent"] = -np.inf
        else:
            slope = np.polyfit(np.log(Rs), np.log(vals), 1)[0]
            report["decay_exponent"] = float(slope)
        report["R_sequence"] = [float(x) for x in Rs]
        report["sequence_values"] = [float(v) for v in vals]
    return report
