"""Complete elliptic integral of the first kind K.

K enters the in-plane potential of a razor-thin axisymmetric density via the
kernel argument xi = 2*sqrt(r*s)/(r+s), which tends to 1 (and K diverges
logarithmically) as the two radii coincide.  K is evaluated with the
arithmetic-geometric mean iteration, K = pi / (2*AGM(1, kp)), which
converges quadratically; kp = sqrt(1-xi^2) is the complementary modulus.
``elliptic_k`` takes xi; the potential kernel passes kp = |r-s|/(r+s)
directly, which stays exact as s -> r where xi rounds towards 1.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

__all__ = ["elliptic_k"]


def _k_complementary(kp):
    """K from the complementary modulus kp = sqrt(1 - xi^2) in (0, 1], by the AGM."""
    a, b = np.ones_like(kp), kp
    # quadratic convergence; 12 sweeps reach machine precision down to
    # kp = 1e-200 and the iteration is stationary once a == b
    for _ in range(12):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return np.pi / (2.0 * a)


def elliptic_k(xi):
    """K(xi) = int_0^{pi/2} dphi / sqrt(1 - xi^2 sin^2 phi) for 0 <= xi < 1.

    Accepts scalars or arrays.  Raises on xi outside [0, 1); the coincident
    radius limit xi -> 1 must be handled by the caller (K diverges there).
    """
    x = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InputError("elliptic_k: non-finite modulus")
    if np.any(x < 0.0) or np.any(x >= 1.0):
        raise InputError("elliptic_k: modulus must lie in [0, 1)")
    # 1 - xi^2 factored to preserve precision for xi near 1
    out = _k_complementary(np.sqrt((1.0 - x) * (1.0 + x)))
    if np.isscalar(xi) or np.ndim(xi) == 0:
        return float(out)
    return out
