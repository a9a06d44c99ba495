"""Radial grids and profiles for axisymmetric planar fields.

Profiles live on strictly increasing node sets; area integrals use the
trapezoidal weights 2*pi*r_i*dr_i, which keeps every integral in the
package tied to one quadrature convention.  The package's one thread pool
(``_map_chunks``) lives here too: the particle maps, ``sample`` and the CSV
writer run their chunks on it.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = ["RadialGrid", "RadialProfile", "write_csv", "read_csv"]

# Particles per task of ``_map_chunks``: large enough that a task's numpy
# calls outweigh its dispatch, small enough that its temporaries stay in
# cache and add little to the peak memory.
_CHUNK = 65536

# Largest bucket table ``_CellTable`` builds: a grid or histogram axis whose
# finest cell would need more buckets gets ``np.searchsorted`` instead.
_LOCATE_MAX_BUCKETS = 1 << 16

# Rows of one ``_format_rows`` call in ``write_csv``: it works on a 48-byte
# canvas per value (983 kB a chunk at 5 columns), one chunk per worker is
# formatted at a time, and the chunks' text goes straight to the file, so a
# 10^6-row table is never held as text.  On a 2-core x86-64 host with both
# workers, 2*10^5 x 5 doubles took a median of 243, 192, 158, 144 and 163 ms
# in chunks of 1024, 2048, 4096, 8192 and 16384 rows (15 calls each): small
# chunks spend their time handing the GIL back and forth between many short
# numpy calls.  4096 rows is within the noise of the fastest at half the
# memory of 8192.
_CSV_CHUNK_ROWS = 4096

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


@functools.cache
def _pool() -> tuple:
    """(executor, workers) for the chunk maps, built on first use.

    One worker per CPU the process may run on, the calling thread included;
    no executor with one CPU.
    """
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        workers = os.cpu_count() or 1
    return (ThreadPoolExecutor(workers - 1) if workers > 1 else None), workers


def _workers() -> int:
    """Threads the chunk maps run on, the calling thread included."""
    return _pool()[1]


def _map_chunks(fn, n: int, chunk: int = None) -> None:
    """Call ``fn(lo, hi)`` on consecutive slices of [0, n), ``chunk`` long
    (``_CHUNK`` by default).

    The calling thread and the pool's threads take slices from one shared
    iterator until none are left.  ``fn`` must read and write only its
    slice of the arrays it maps; numpy releases the GIL in its ufuncs and
    fancy indexing, so slices run in parallel.  ``fn`` calls only private
    names: ``bench/tracer.py`` wraps the public ones on a span stack that
    is not thread-safe.  An exception in a slice is raised once every
    thread that took a slice has stopped.
    """
    pool, workers = _pool()
    chunk = chunk or _CHUNK
    starts = iter(range(0, n, chunk))  # next() on it is atomic under the GIL

    def drain():
        for lo in starts:
            fn(lo, min(lo + chunk, n))

    if pool is None or n <= chunk:
        drain()
        return
    helpers = [pool.submit(drain) for _ in range(workers - 1)]
    try:
        drain()
    finally:
        # a helper that has not started would find nothing left: cancel it
        # rather than wait for a free thread (a forked child has none)
        started = [h for h in helpers if not h.cancel()]
        wait(started)
    for h in started:
        h.result()


_DIGITS, _LAST = _digit_tables()
_KEEP, _FILL = _templates()


def _scaled(m: np.ndarray, q: np.ndarray, e10: np.ndarray) -> tuple:
    """floor(m * 2^q * 10^(16 - e10)) and whether to round it up, half to even.

    The exact value is m * 5^k * 2^-s with k = 16 - e10 in [1, 27] and
    s = -q - k; m < 2^56 after taking a negative s into it, and 5^k < 2^63,
    so the product fits 128 bits, formed from 32-bit limbs, and s in [0, 63]
    splits it.  The arguments are not changed; each temporary is updated in
    place and dropped after its last use.
    """
    k = 16 - e10
    p = _POW5.take(k)
    s = np.negative(q)
    s -= k
    del k
    # shifts are >= 0 once clipped: their int64 bits read as uint64
    shift = np.negative(s)
    np.maximum(shift, 0, out=shift)
    m = m << shift.view(np.uint64)
    np.maximum(s, 0, out=s)
    s = s.view(np.uint64)
    del shift
    m_lo = m & 0xFFFFFFFF
    m >>= 32
    p_lo = p & 0xFFFFFFFF
    p >>= 32
    # m and p now hold the high limbs
    mid = m_lo * p
    mid += m * p_lo
    lo = m_lo * p_lo
    del m_lo, p_lo
    high = m
    high *= p
    del m, p
    low = mid << 32
    low += lo
    high += mid >> 32
    del mid
    high += low < lo
    del lo
    # n = (high:low) >> s, in high's buffer
    high <<= 63 - s
    high <<= 1
    high |= low >> s
    n = high
    # twice the remainder against 2^s: above half, or a tie with n odd
    one = np.uint64(1) << s
    low &= one - 1
    low <<= 1
    return n, (low > one) | ((low == one) & ((n & 1) == 1))


def _format_rows(block: np.ndarray) -> bytes:
    """The rows of a 2-d float64 block as %.17g values, ',' and '\\n'.

    Byte for byte ``"".join(",".join("%.17g" % v for v in row) + "\\n")``:
    for 1e-11 < |x| < 1e16 the 17 digits are x * 10^(16 - X) rounded half
    to even from its exact 128-bit value (X = floor(log10|x|), estimated by
    ``np.log10`` and corrected until the digits lie in [10^16, 10^17)), and
    the bytes come from word tables; zeros, subnormals, non-finite values
    and the rest of the range are formatted by Python's own ``%``.  Each
    array is dropped after its last use, and the canvas is translated in
    pieces, so the peak stays near two and a half canvases.
    """
    rows, ncols = block.shape
    x = block.reshape(-1)
    ax = np.abs(x)
    fast = (ax > 1e-11) & (ax < 1e16)
    ax[~fast] = 1.0
    e10 = np.log10(ax)
    np.floor(e10, out=e10)
    np.clip(e10, _X_MIN, _X_MAX - 1, out=e10)
    e10 = e10.astype(np.int64)
    bits = ax.view(np.uint64)
    m = bits & ((1 << 52) - 1)
    m |= 1 << 52
    # the biased exponent is below 2^11: its uint64 bits read as int64
    q = (bits >> 52).view(np.int64)
    q -= 1075
    del ax, bits
    n, up = _scaled(m, q, e10)
    # a wrong estimate of floor(log10|x|) puts the digits outside [10^16, 10^17)
    off = (n >= 10 ** 17).astype(np.int64) - (n < 10 ** 16)
    while off.any():
        i = np.flatnonzero(off)
        e10[i] += off[i]
        n[i], up[i] = _scaled(m[i], q[i], e10[i])
        off[i] = (n[i] >= 10 ** 17).astype(np.int64) - (n[i] < 10 ** 16)
    del m, q, off
    n += up
    del up
    # rounding up to 10^17 (no double in the fast range does; 1e-14 would)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e10 += carry
    del carry
    lead = n // 10 ** 16
    n -= lead * 10 ** 16
    groups = np.empty((x.size, 4), dtype=np.uint64)
    groups[:, 0] = n // 10 ** 12
    groups[:, 2] = n % 10 ** 8
    groups[:, 1] = n // 10 ** 8 - groups[:, 0] * 10 ** 4
    groups[:, 3] = groups[:, 2] % 10 ** 4
    groups[:, 2] //= 10 ** 4
    del n
    # the last nonzero digit is digit 16 unless the digits end in 0
    t = np.full(x.size, 16)
    zero = np.flatnonzero(groups[:, 3] % 10 == 0)
    t[zero] = _LAST[np.arange(4), groups[zero]].max(axis=1)
    t += (e10 - _X_MIN) * 17
    del e10
    words = _FILL.take(t, axis=0)
    keep = _KEEP.take(t[zero], axis=0)
    del t
    lead += 48
    lead <<= 48
    lead |= (x.view(np.uint64) >> 63) * ord("-")
    words[:, 0] |= lead
    del lead
    for j in range(4):
        digits = _DIGITS.take(groups[:, j])
        digits[zero] &= keep[:, j]
        words[:, 1 + j] |= digits
    del groups, digits, keep, zero
    slow = np.flatnonzero(~fast)
    if slow.size:
        # at most 24 bytes each, padded to words 0-4
        text = b"".join(b"%-40.17g" % v for v in x[slow].tolist())
        words[slow] = 0
        words[slow, :5] = np.frombuffer(text.replace(b" ", b"\0"), dtype=_WORD).reshape(-1, 5)
    sep = np.full(ncols, ord(","), dtype=np.uint64)
    sep[-1] = ord("\n")
    words.reshape(rows, ncols, 6)[:, :, 5] |= sep << 32
    # 1024 values a piece: the canvas is never copied whole to bytes
    return b"".join(words[i:i + 1024].tobytes().translate(None, b"\0")
                    for i in range(0, x.size, 1024))


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


class _PiecewisePoly:
    """A piecewise polynomial on breakpoints ``x`` in scipy's PPoly layout:
    ``c[k, i]`` multiplies (v - x[i])^(m - k) on cell i, m + 1 rows.

    Its two cubics, ``not_a_knot`` and ``pchip``, take scipy's arithmetic
    step for step, and so do ``derivative`` and ``__call__``: they equal
    ``scipy.interpolate.CubicSpline(x, y)`` and ``PchipInterpolator(x, y)``
    bit for bit, which tests/test_grids.py checks.
    """

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x, self.c = x, c

    @staticmethod
    def _hermite(x, y, dydx) -> "_PiecewisePoly":
        """The cubic through (x, y) with slope dydx at each breakpoint."""
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        return _PiecewisePoly(x, np.stack(
            (t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1])))

    @staticmethod
    def not_a_knot(x, y) -> "_PiecewisePoly":
        """The not-a-knot cubic spline through (x, y), len(x) >= 4.

        Its knot slopes solve a tridiagonal system: rows 1..n-2 join the
        cells with a continuous second derivative, rows 0 and n-1 make the
        third derivative continuous at x[1] and x[-2].
        """
        dx = np.diff(x)
        slope = np.diff(y) / dx
        d = np.empty(x.size)
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        d[0], d[-1] = dx[1], dx[-2]
        du = np.append(x[2] - x[0], dx[:-1])
        dl = np.append(dx[1:], x[-1] - x[-3])
        b = np.empty(x.size)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        h = x[2] - x[0]
        b[0] = ((dx[0] + 2*h) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / h
        h = x[-1] - x[-3]
        b[-1] = (dx[-1]**2*slope[-2] + (2*h + dx[-1])*dx[-2]*slope[-1]) / h
        s = _gtsv(dl.tolist(), d.tolist(), du.tolist(), b.tolist())
        return _PiecewisePoly._hermite(x, y, np.array(s))

    @staticmethod
    def pchip(x, y) -> "_PiecewisePoly":
        """The monotone cubic through (x, y) of Fritsch & Carlson (1980),
        len(x) >= 3: a knot's slope is the weighted harmonic mean of its
        cells' slopes, 0 where they differ in sign or one is 0, and an end's
        is the one-sided three-point estimate, limited to keep the shape."""
        h = np.diff(x)
        m = np.diff(y) / h
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2*h[1:] + h[:-1]
        w2 = h[1:] + 2*h[:-1]
        # a 0 slope divides by 0 here, and ``flat`` drops it
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1/m[:-1] + w2/m[1:]) / (w1 + w2)
        dk = np.zeros_like(y)
        dk[1:-1][~flat] = 1.0 / whmean[~flat]
        dk[0] = _pchip_end(h[0], h[1], m[0], m[1])
        dk[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
        return _PiecewisePoly._hermite(x, y, dk)

    def derivative(self, nu: int = 1) -> "_PiecewisePoly":
        c = self.c[:self.c.shape[0] - nu].copy()
        # row k of m + 1 - nu rows gains (m - k)(m - k - 1)...(m - k - nu + 1)
        c *= np.array([float(math.prod(range(a, a + nu)))
                       for a in range(c.shape[0], 0, -1)])[:, None]
        return _PiecewisePoly(self.x, c)

    def __call__(self, v):
        """Values at v; the end cells extend past the breakpoints."""
        v = np.asarray(v, dtype=float)
        c = self.c
        i = np.clip(np.searchsorted(self.x, v, "right") - 1, 0, self.x.size - 2)
        s = v - self.x[i]
        # highest power last, powers as running products, from a sum that
        # starts at 0.0 (which makes a -0.0 term +0.0)
        out = c[-1, i] + 0.0
        z = s
        for k in range(c.shape[0] - 2, -1, -1):
            out += c[k, i] * z
            if k:
                z = z * s
        return out


def _pchip_end(h0, h1, m0, m1):
    """An end slope of ``_PiecewisePoly.pchip`` from its two cells' widths
    h and slopes m: 0 against the end cell's slope, at most 3*m0 where the
    two slopes differ in sign."""
    d = ((2*h0 + h1)*m0 - h0*m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _gtsv(dl: list, d: list, du: list, b: list) -> list:
    """The tridiagonal system (sub-diagonal dl, diagonal d, super-diagonal
    du) solved for b as LAPACK's dgtsv solves one right-hand side: Gaussian
    elimination that swaps rows i and i + 1 where |d[i]| < |dl[i]|, then back
    substitution.  Overwrites its lists; returns b."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:
            # the swap fills dl[i] in as a second super-diagonal
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[-1] /= d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


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
    def ring_weights(self) -> np.ndarray:
        """Weights for planar area integrals: 2*pi*r_i*dr_i, trapezoidal dr_i."""
        r = self.nodes
        dr = np.empty_like(r)
        dr[0] = 0.5 * (r[1] - r[0])
        dr[-1] = 0.5 * (r[-1] - r[-2])
        dr[1:-1] = 0.5 * (r[2:] - r[:-2])
        return 2.0 * np.pi * r * dr

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
        """Linear interpolation between the nodes; values[0] below the first
        node and 0 past the last."""
        return self._interp(r)

    def _interp(self, r):
        # private: ``sample`` calls it from pool threads (see _map_chunks)
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
    (1e-11, 1e16) to Python's ``%``).  One chunk per worker is formatted at
    a time on the pool of ``_map_chunks``, and the chunks go to the file in
    order.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    rows = cols[0].size
    batch = _CSV_CHUNK_ROWS * _workers()
    with open(path, "wb") as fh:
        fh.write("".join(f"# {k}: {v}\n" for k, v in header.items()).encode())
        fh.write((",".join(names) + "\n").encode())
        for start in range(0, rows, batch):
            size = min(batch, rows - start)
            texts = [b""] * -(-size // _CSV_CHUNK_ROWS)

            def chunk(a, b):
                texts[a // _CSV_CHUNK_ROWS] = _format_rows(np.column_stack(
                    [c[start + a:start + b] for c in cols]))

            _map_chunks(chunk, size, _CSV_CHUNK_ROWS)
            fh.writelines(texts)


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
