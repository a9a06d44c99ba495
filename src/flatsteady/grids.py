"""Radial grids and profiles for axisymmetric planar fields.

Profiles live on strictly increasing node sets; area integrals use the
trapezoidal weights 2*pi*r_i*dr_i, which keeps every integral in the
package tied to one quadrature convention.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = ["RadialGrid", "RadialProfile"]


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii r_0 < r_1 < ... < r_{n-1}, r_0 >= 0."""

    nodes: np.ndarray
    scheme: str = "custom"

    def __post_init__(self):
        r = np.asarray(self.nodes, dtype=float)
        if r.ndim != 1 or r.size < 16:
            raise InputError("RadialGrid: need at least 16 nodes")
        if r[0] < 0.0 or np.any(np.diff(r) <= 0.0):
            raise InputError("RadialGrid: nodes must be strictly increasing and >= 0")
        object.__setattr__(self, "nodes", r)

    @staticmethod
    def uniform(r_max: float, n: int = 512) -> "RadialGrid":
        return RadialGrid(np.linspace(0.0, r_max, n), scheme="uniform")

    @staticmethod
    def log(r_min: float, r_max: float, n: int = 512) -> "RadialGrid":
        if r_min <= 0:
            raise InputError("RadialGrid.log: r_min must be positive")
        return RadialGrid(np.geomspace(r_min, r_max, n), scheme="log")

    @staticmethod
    def hybrid(r_core: float, r_max: float, n: int = 512,
               core_fraction: float = 0.75) -> "RadialGrid":
        """Uniform on [0, r_core], log-spaced from r_core to r_max.

        Resolves the core at fixed spacing while reaching a far field large
        enough for the 1/r tail of the potential.
        """
        if not (0.0 < r_core < r_max):
            raise InputError("RadialGrid.hybrid: need 0 < r_core < r_max")
        n_core = max(8, int(round(core_fraction * n)))
        n_tail = n - n_core
        if n_tail < 8:
            raise InputError("RadialGrid.hybrid: too few tail nodes")
        core = np.linspace(0.0, r_core, n_core)
        h = core[1] - core[0]
        tail = np.geomspace(r_core + h, r_max, n_tail)
        return RadialGrid(np.concatenate([core, tail]), scheme="hybrid")

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def trapz_weights(self) -> np.ndarray:
        """Weights w_i with sum_i w_i g(r_i) ~ int g(r) dr."""
        r = self.nodes
        w = np.empty_like(r)
        w[0] = 0.5 * (r[1] - r[0])
        w[-1] = 0.5 * (r[-1] - r[-2])
        w[1:-1] = 0.5 * (r[2:] - r[:-2])
        return w

    @property
    def ring_weights(self) -> np.ndarray:
        """Weights for planar area integrals: 2*pi*r_i*dr_i."""
        return 2.0 * np.pi * self.nodes * self.trapz_weights

    def key(self) -> bytes:
        return self.nodes.tobytes()

    def shape(self) -> "RadialGrid":
        """Nodes / r_max rounded to 12 significant digits: one per scale family.

        The rounding absorbs the last-digit jitter of scaling a grid.
        """
        unit = [float(f"{x:.12g}") for x in self.nodes / self.r_max]
        return RadialGrid(np.array(unit), scheme=self.scheme)

    def content_hash(self) -> str:
        return hashlib.sha256(self.nodes.tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class RadialProfile:
    """Scalar samples (density, potential, ...) on a radial grid."""

    grid: RadialGrid
    values: np.ndarray
    require_nonnegative: bool = field(default=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.nodes.shape:
            raise InputError("RadialProfile: values shape must match grid")
        if not np.all(np.isfinite(v)):
            raise InputError("RadialProfile: non-finite values")
        if self.require_nonnegative and np.any(v < 0.0):
            raise InputError("RadialProfile: negative node value in a density profile")
        object.__setattr__(self, "values", v)

    @staticmethod
    def density(grid: RadialGrid, values) -> "RadialProfile":
        return RadialProfile(grid, values, require_nonnegative=True)

    @staticmethod
    def from_callable(grid: RadialGrid, fn, nonnegative: bool = False) -> "RadialProfile":
        return RadialProfile(grid, fn(grid.nodes), require_nonnegative=nonnegative)

    def __call__(self, r):
        """Linear interpolation; zero outside the grid span."""
        return np.interp(r, self.grid.nodes, self.values, left=self.values[0], right=0.0)

    def area_integral(self) -> float:
        """2*pi * int r * value dr (total mass for a density profile)."""
        return float(np.sum(self.grid.ring_weights * self.values))

    # -- CSV round trip at full double precision ---------------------------

    def to_csv(self, path, header_extra: dict | None = None):
        with open(path, "w") as fh:
            for k, v in (header_extra or {}).items():
                fh.write(f"# {k}: {v}\n")
            fh.write("r,value\n")
            for r, v in zip(self.grid.nodes, self.values):
                fh.write(f"{r:.17g},{v:.17g}\n")

    @staticmethod
    def from_csv(path, nonnegative: bool = False) -> "RadialProfile":
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("r,"):
                    continue
                parts = line.split(",")
                rows.append((float(parts[0]), float(parts[1])))
        if not rows:
            raise InputError(f"profile CSV {path!r} has no data rows")
        arr = np.array(rows)
        return RadialProfile(RadialGrid(arr[:, 0]), arr[:, 1],
                             require_nonnegative=nonnegative)
