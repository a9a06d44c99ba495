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

# Rows ``write_csv`` formats and writes at a time: ``_format_rows`` works on a
# 48-byte canvas per value (240 kB a chunk at 5 columns), and each chunk's
# text goes straight to the file, so a 10^6-row table is never held as text.
# Chunks of 512-1024 rows formatted 2*10^5 x 5 doubles fastest on a 2-core
# x86-64 host (their temporaries stay in cache); 8192 rows took about 1.4
# times as long.
_CSV_CHUNK_ROWS = 1024

# ``_format_rows`` lays each value out on six little-endian 64-bit words (48
# bytes): byte 0 the sign, bytes 1-5 the "0.000" prefix, digit j of 17 at byte
# 6 + 2j with its decimal point slot at 7 + 2j, "e-dd" at bytes 40-43 and the
# separator at byte 44.  Bytes that are not printed stay 0 and are dropped.
_WORD = np.dtype("<u8")
# Exponents X of the fast path (1e-11 < |x| < 1e16, and rounding up to 1e16):
# %.17g writes "d.ddde-XX" below -4 and fixed point from -4 to 16.
_X_MIN, _X_MAX = -11, 16
_POW5 = np.array([5 ** k for k in range(28)], dtype=np.uint64)


def _digit_tables() -> tuple:
    """Words and last-digit positions of the 4-digit groups 0..9999.

    Word g holds the four digits of g at bytes 0, 2, 4 and 6.  Entry (i, g)
    of the positions is for g as digits 4i + 1..4i + 4 of 17: the index of
    its last nonzero digit among the 17, 0 if g is 0.
    """
    g = np.arange(10_000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1)
    table = np.zeros((10_000, 8), dtype=np.uint8)
    table[:, 0::2] = 48 + digits
    last = np.max(np.where(digits != 0, np.arange(1, 5), 0), axis=1)
    return (table.view(_WORD)[:, 0],
            np.where(last > 0, last + 4 * np.arange(4)[:, None], 0))


def _templates() -> tuple:
    """(keep, fill) words of each exponent X and last nonzero digit L.

    ``keep`` masks the printed digits of words 1-4: up to L, or up to X in
    fixed point with an integer part; ``fill`` holds the "0.000" prefix, the
    decimal point and the "e-dd" exponent.  Row (X - _X_MIN) * 17 + L.
    """
    xs, last = np.divmod(np.arange((_X_MAX - _X_MIN + 1) * 17), 17)
    xs += _X_MIN
    expo = xs < -4
    keep = np.zeros((xs.size, 48), dtype=np.uint8)
    kept = np.where(xs >= 0, np.maximum(last, xs), last)
    keep[:, 6 + 2 * np.arange(17)] = np.where(np.arange(17) <= kept[:, None], 0xFF, 0)
    fill = np.zeros((xs.size, 48), dtype=np.uint8)
    # fixed point below 1: "0." and -X - 1 zeros before the digits
    prefix = np.frombuffer(b"0.000", dtype=np.uint8)
    fill[:, 1:6] = np.where((xs[:, None] < 0) & ~expo[:, None]
                            & (np.arange(5) < 1 - xs[:, None]), prefix, 0)
    # the point after digit X (after digit 0 in exponent form) if a digit follows
    point = np.where(expo, 0, xs)
    dotted = np.flatnonzero(((xs >= 0) | expo) & (last > point))
    fill[dotted, 7 + 2 * point[dotted]] = ord(".")
    fill[expo, 40:42] = np.frombuffer(b"e-", dtype=np.uint8)
    fill[expo, 42] = 48 + -xs[expo] // 10
    fill[expo, 43] = 48 + -xs[expo] % 10
    return keep.view(_WORD)[:, 1:5].copy(), fill.view(_WORD)


_DIGITS, _LAST = _digit_tables()
_KEEP, _FILL = _templates()


def _scaled(m: np.ndarray, q: np.ndarray, e10: np.ndarray) -> tuple:
    """floor(m * 2^q * 10^(16 - e10)) and whether to round it up, half to even.

    The exact value is m * 5^k * 2^-s with k = 16 - e10 in [1, 27] and
    s = -q - k; m < 2^56 after taking a negative s into it, and 5^k < 2^63,
    so the product fits 128 bits, formed from 32-bit limbs, and s in [0, 63]
    splits it.
    """
    k = 16 - e10
    s = -q - k
    m = m << np.maximum(-s, 0).astype(np.uint64)
    s = np.maximum(s, 0).astype(np.uint64)
    p = _POW5.take(k)
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    p_lo, p_hi = p & 0xFFFFFFFF, p >> 32
    mid = m_lo * p_hi + m_hi * p_lo
    lo = m_lo * p_lo
    low = lo + (mid << 32)
    high = m_hi * p_hi + (mid >> 32) + (low < lo)
    n = ((high << (63 - s)) << 1) | (low >> s)
    # twice the remainder against 2^s: above half, or a tie with n odd
    rest2 = (low & ((1 << s) - 1)) << 1
    one = np.uint64(1) << s
    return n, (rest2 > one) | ((rest2 == one) & ((n & 1) == 1))


def _format_rows(block: np.ndarray) -> bytes:
    """The rows of a 2-d float64 block as %.17g values, ',' and '\\n'.

    Byte for byte ``"".join(",".join("%.17g" % v for v in row) + "\\n")``:
    for 1e-11 < |x| < 1e16 the 17 digits are x * 10^(16 - X) rounded half
    to even from its exact 128-bit value (X = floor(log10|x|), estimated by
    ``np.log10`` and corrected until the digits lie in [10^16, 10^17)), and
    the bytes come from word tables; zeros, subnormals, non-finite values
    and the rest of the range are formatted by Python's own ``%``.
    """
    rows, ncols = block.shape
    x = block.reshape(-1)
    ax = np.abs(x)
    fast = (ax > 1e-11) & (ax < 1e16)
    ax[~fast] = 1.0
    bits = ax.view(np.uint64)
    m = (bits & ((1 << 52) - 1)) | (1 << 52)
    q = (bits >> 52).astype(np.int64) - 1075
    e10 = np.clip(np.floor(np.log10(ax)), _X_MIN, _X_MAX - 1).astype(np.int64)
    n, up = _scaled(m, q, e10)
    # a wrong estimate of floor(log10|x|) puts the digits outside [10^16, 10^17)
    off = (n >= 10 ** 17).astype(np.int64) - (n < 10 ** 16)
    while off.any():
        i = np.flatnonzero(off)
        e10[i] += off[i]
        n[i], up[i] = _scaled(m[i], q[i], e10[i])
        off[i] = (n[i] >= 10 ** 17).astype(np.int64) - (n[i] < 10 ** 16)
    n += up
    # rounding up to 10^17 (no double in the fast range does; 1e-14 would)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e10 += carry
    lead = n // 10 ** 16
    n -= lead * 10 ** 16
    groups = np.empty((x.size, 4), dtype=np.uint64)
    groups[:, 0] = n // 10 ** 12
    groups[:, 2] = n % 10 ** 8
    groups[:, 1] = n // 10 ** 8 - groups[:, 0] * 10 ** 4
    groups[:, 3] = groups[:, 2] % 10 ** 4
    groups[:, 2] //= 10 ** 4
    # the last nonzero digit is digit 16 unless the digits end in 0
    last = np.full(x.size, 16)
    zero = np.flatnonzero(groups[:, 3] % 10 == 0)
    last[zero] = _LAST[np.arange(4), groups[zero]].max(axis=1)
    t = (e10 - _X_MIN) * 17 + last
    digits = _DIGITS.take(groups)
    digits[zero] &= _KEEP.take(t[zero], axis=0)
    words = _FILL.take(t, axis=0)
    words[:, 0] |= ((lead + 48) << 48) | (x.view(np.uint64) >> 63) * ord("-")
    words[:, 1:5] |= digits
    slow = np.flatnonzero(~fast)
    if slow.size:
        # at most 24 bytes each, padded to words 0-4
        text = b"".join(b"%-40.17g" % v for v in x[slow].tolist())
        words[slow] = 0
        words[slow, :5] = np.frombuffer(text.replace(b" ", b"\0"), dtype=_WORD).reshape(-1, 5)
    sep = np.full(ncols, ord(","), dtype=np.uint64)
    sep[-1] = ord("\n")
    words.reshape(rows, ncols, 6)[:, :, 5] |= sep << 32
    return words.tobytes().translate(None, b"\0")


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

    def _locate(self, r):
        """Cell index and in-cell fraction of each radius, clipped to the grid.

        ``idx`` equals ``clip(searchsorted(nodes, r, "right") - 1, 0, n - 2)``
        and ``frac = (r - nodes[idx]) / (nodes[idx + 1] - nodes[idx])`` with r
        clipped into [nodes[0], r_max]; the cells come from ``_CellTable``,
        built once per grid (766 buckets on the n=256 solver grid).
        """
        # private: the particle maps call it from pool threads, and
        # bench/tracer.py keeps its span stack for public calls on one thread
        r = np.clip(r, self.nodes[0], self.r_max)
        if np.isnan(r).any():
            raise InputError("RadialGrid._locate: NaN radius")
        tab = self._cell_table
        idx = tab(r)
        return idx, (r - self.nodes[idx]) / tab.widths[idx]

    def shape(self) -> "RadialGrid":
        """Nodes / r_max, each mantissa rounded to 40 bits (about 12 digits):
        one grid per scale family.

        A shape's r_max is 1.0, and any positive multiple of it, divided by
        its own r_max, lies within a few ulps of the shape's 40-bit nodes,
        which the rounding maps straight back.  It is computed once per
        grid: ``operator_for`` asks for it on every lookup.
        """
        return self._shape

    @functools.cached_property
    def _shape(self) -> "RadialGrid":
        m, e = np.frexp(self.nodes / self.r_max)
        return RadialGrid(np.ldexp(np.rint(np.ldexp(m, 40)), e - 40))

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
    The rows are byte for byte those of ``"%.17g" % v`` joined by ',' and
    ended by '\\n': ``_format_rows`` computes the correctly rounded digits of
    each ``_CSV_CHUNK_ROWS`` rows at once in integer numpy arithmetic (and
    hands zeros, subnormals, non-finite values and magnitudes outside
    (1e-11, 1e16) to Python's ``%``), and each chunk goes straight to the
    file.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "wb") as fh:
        fh.write("".join(f"# {k}: {v}\n" for k, v in header.items()).encode())
        fh.write((",".join(names) + "\n").encode())
        for i in range(0, cols[0].size, _CSV_CHUNK_ROWS):
            fh.write(_format_rows(np.column_stack([c[i:i + _CSV_CHUNK_ROWS]
                                                   for c in cols])))


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
