"""Radial grids and profiles for axisymmetric planar fields.

Profiles live on strictly increasing node sets; area integrals use the
trapezoidal weights 2*pi*r_i*dr_i, which keeps every integral in the
package tied to one quadrature convention.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = ["RadialGrid", "RadialProfile", "write_csv", "read_csv"]

# Largest bucket table ``_CellTable`` builds: a grid or histogram axis whose
# finest cell would need more buckets gets ``np.searchsorted`` instead.
_LOCATE_MAX_BUCKETS = 1 << 16

# Rows ``write_csv`` formats per write: formatting a whole 10^6-row table at
# once would hold a Python float object for every value.
_CSV_CHUNK_ROWS = 1024


class _CellTable:
    """The one cell lookup over increasing edges (repeats allowed).

    ``tab(x)`` gives the cell of each x in [edges[0], edges[-1]]: cell i
    holds edges[i] <= x < edges[i + 1], and the last cell also holds
    x == edges[-1], which is ``np.histogramdd``'s rule and
    ``clip(searchsorted(edges, x, "right") - 1, 0, len(edges) - 2)``.
    Uniform buckets narrower than the finest cell give a first guess, and
    one comparison on each side corrects it.  Edges that would need more
    than ``_LOCATE_MAX_BUCKETS`` buckets, or whose buckets would not sit
    far above rounding, get ``np.searchsorted`` (``cells`` is None).
    """

    def __init__(self, edges: np.ndarray):
        self.edges = edges
        self.widths = np.diff(edges)
        self.upper = np.append(edges[1:-1], np.inf)
        lo, hi = edges[0], edges[-1]
        span, finest = hi - lo, self.widths.min()
        # past the cap when the finest cell is narrower than span / cap or empty
        n_buckets = int(span / max(finest, span / _LOCATE_MAX_BUCKETS)) + 2
        # narrower than the finest cell by far more than rounding, a bucket
        # and the slack at its ends hold at most one edge: an x is in the
        # cell of its bucket's left end or a neighbour
        self.cells = None
        if (n_buckets <= _LOCATE_MAX_BUCKETS
                and finest - span / n_buckets > 1e-12 * max(-lo, hi)):
            self.scale = n_buckets / span
            left = lo + np.arange(n_buckets + 1) * (span / n_buckets)
            self.cells = np.clip(np.searchsorted(edges, left, "right") - 1,
                                 0, edges.size - 2)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.cells is None:
            return np.searchsorted(self.upper, x, "right")
        i = self.cells[((x - self.edges[0]) * self.scale).astype(np.intp)]
        i -= x < self.edges[i]
        i += x >= self.upper[i]
        return i


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii r_0 < r_1 < ... < r_{n-1}, r_0 >= 0."""

    nodes: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.nodes, dtype=float)
        if r.ndim != 1 or r.size < 16:
            raise InputError("RadialGrid: need at least 16 nodes")
        if r[0] < 0.0 or np.any(np.diff(r) <= 0.0):
            raise InputError("RadialGrid: nodes must be strictly increasing and >= 0")
        object.__setattr__(self, "nodes", r)

    @staticmethod
    def hybrid(r_core: float, r_max: float, n: int = 512) -> "RadialGrid":
        """Uniform on [0, r_core] (3/4 of the nodes), log-spaced to r_max.

        Resolves the core at fixed spacing while reaching a far field large
        enough for the 1/r tail of the potential.
        """
        if not (0.0 < r_core < r_max):
            raise InputError("RadialGrid.hybrid: need 0 < r_core < r_max")
        n_core = max(8, int(round(0.75 * n)))
        n_tail = n - n_core
        if n_tail < 8:
            raise InputError("RadialGrid.hybrid: too few tail nodes")
        core = np.linspace(0.0, r_core, n_core)
        h = core[1] - core[0]
        tail = np.geomspace(r_core + h, r_max, n_tail)
        return RadialGrid(np.concatenate([core, tail]))

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

    @functools.cached_property
    def _cell_table(self) -> _CellTable:
        return _CellTable(self.nodes)

    def locate(self, r):
        """Cell index and in-cell fraction of each radius, clipped to the grid.

        ``idx`` equals ``clip(searchsorted(nodes, r, "right") - 1, 0, n - 2)``
        and ``frac = (r - nodes[idx]) / (nodes[idx + 1] - nodes[idx])`` with r
        clipped into [nodes[0], r_max]; the cells come from ``_CellTable``,
        built once per grid (766 buckets on the n=256 solver grid).
        """
        return self._locate(r)

    def _locate(self, r):
        # the body of ``locate``: the particle maps call it from pool threads,
        # and bench/tracer.py keeps its span stack for public calls on one thread
        r = np.clip(r, self.nodes[0], self.r_max)
        if np.isnan(r).any():
            raise InputError("RadialGrid.locate: NaN radius")
        tab = self._cell_table
        idx = tab(r)
        return idx, (r - self.nodes[idx]) / tab.widths[idx]

    def shape(self) -> "RadialGrid":
        """Nodes / r_max rounded to 12 significant digits: one per scale family.

        The rounding absorbs the last-digit jitter of scaling a grid.  It is
        computed once per grid: ``operator_for`` asks for it on every lookup.
        """
        return self._shape

    @functools.cached_property
    def _shape(self) -> "RadialGrid":
        unit = [float(f"{x:.12g}") for x in self.nodes / self.r_max]
        return RadialGrid(np.array(unit))

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

    def __call__(self, r):
        """Linear interpolation; zero outside the grid span."""
        return np.interp(r, self.grid.nodes, self.values, left=self.values[0], right=0.0)

    @staticmethod
    def from_csv(path, nonnegative: bool = False) -> "RadialProfile":
        data = read_csv(path, ("r", "value"))
        return RadialProfile(RadialGrid(data[0]), data[1],
                             require_nonnegative=nonnegative)


def write_csv(path, header: dict, names, columns):
    """Write ``# key: value`` lines, the column-name row, then rows at %.17g.

    Header values are written with ``str``; every column value as a double
    at 17 significant digits, which ``read_csv`` reads back bit for bit.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.writelines(f"# {k}: {v}\n" for k, v in header.items())
        fh.write(",".join(names) + "\n")
        for i in range(0, cols[0].size, _CSV_CHUNK_ROWS):
            block = np.column_stack([c[i:i + _CSV_CHUNK_ROWS] for c in cols])
            fh.write("".join(row % tuple(r) for r in block.tolist()))


def read_csv(path, columns=()) -> np.ndarray:
    """Columns of a CSV file as rows of a 2-d array.

    ``#`` lines and blank lines are skipped anywhere; the first other line
    is the column-name row.  An unreadable file, a missing name row,
    malformed rows, a file without data rows or one with fewer columns than
    the names in ``columns`` (the columns the caller reads) raise
    ``InputError``.
    """
    try:
        with open(path) as fh:
            lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    except (OSError, ValueError) as exc:
        raise InputError(f"CSV {str(path)!r} is unreadable ({exc})") from exc
    if len(lines) < 2:
        raise InputError(f"CSV {str(path)!r} has no data rows")
    try:
        float(lines[0].split(",")[0])
    except ValueError:
        pass
    else:
        raise InputError(f"CSV {str(path)!r} has no column-name row")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InputError(f"CSV {str(path)!r} has a malformed row ({exc})") from exc
    if data.shape[1] < len(columns):
        raise InputError(f"CSV {str(path)!r} has {data.shape[1]} column(s); "
                         f"expected {', '.join(columns)}")
    return data.T.copy()
