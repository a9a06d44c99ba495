import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline, PPoly, PchipInterpolator

from flatsteady import RadialGrid, RadialProfile, grids
from flatsteady.cli import main
from flatsteady.errors import InputError
from flatsteady.grids import (_CSV_CHUNK_ROWS, _PiecewisePoly, _format_rows,
                              _gtsv, read_csv, write_csv)


def test_uniform_grid_weights_integrate_area():
    g = RadialGrid(np.linspace(0.0, 2.0, 101))
    # 2 pi int_0^2 r dr = 4 pi, exact for trapezoid on a linear integrand
    assert np.sum(g.ring_weights) == pytest.approx(4.0 * np.pi, rel=1e-12)


def test_hybrid_grid_structure():
    g = RadialGrid.hybrid(1.0, 10.0, 128)
    assert g.nodes[0] == 0.0
    assert g.r_max == 10.0
    assert np.all(np.diff(g.nodes) > 0.0)


def test_grid_rejects_bad_nodes():
    with pytest.raises(InputError):
        RadialGrid(np.linspace(1.0, 0.0, 32))
    with pytest.raises(InputError):
        RadialGrid(np.linspace(-1.0, 1.0, 32))
    with pytest.raises(InputError):
        RadialGrid(np.linspace(0.0, 1.0, 8))


def test_content_hash_distinguishes_grids():
    a = RadialGrid(np.linspace(0.0, 1.0, 64))
    b = RadialGrid(np.linspace(0.0, 1.0, 65))
    assert a.content_hash() != b.content_hash()
    again = RadialGrid(np.linspace(0.0, 1.0, 64))
    assert a.content_hash() == again.content_hash()


def test_profile_mass_integral():
    g = RadialGrid(np.linspace(0.0, 30.0, 2000))
    r = g.nodes
    prof = RadialProfile(g, 1.0 / (2.0 * np.pi * (r ** 2 + 1.0) ** 1.5),
                         require_nonnegative=True)
    # Kuzmin disc encloses M(r_max) = 1 - 1/sqrt(1+r_max^2)
    expected = 1.0 - 1.0 / np.sqrt(1.0 + 30.0 ** 2)
    assert np.sum(g.ring_weights * prof.values) == pytest.approx(expected, rel=1e-4)


def test_profile_rejects_negative_density():
    g = RadialGrid(np.linspace(0.0, 1.0, 32))
    with pytest.raises(InputError):
        RadialProfile(g, -np.ones(32), require_nonnegative=True)


def test_profile_interpolation_outside_span():
    g = RadialGrid(np.linspace(0.0, 1.0, 32))
    prof = RadialProfile(g, np.ones(32))
    assert prof(2.0) == 0.0
    assert prof(0.5) == pytest.approx(1.0)


def test_profile_csv_roundtrip(tmp_path):
    g = RadialGrid(np.linspace(0.0, 3.0, 64))
    prof = RadialProfile(g, np.exp(-g.nodes))
    path = tmp_path / "prof.csv"
    write_csv(path, {"note": "roundtrip"}, ("r", "value"), (g.nodes, prof.values))
    back = RadialProfile.from_csv(path)
    assert np.array_equal(back.grid.nodes, prof.grid.nodes)
    assert np.array_equal(back.values, prof.values)


_PIN_VALUES = np.array([0.0, -0.0, 1.0 / 3.0, 5e-324, 1e300])


def test_write_csv_format_pin(tmp_path):
    path = tmp_path / "pin.csv"
    write_csv(path, {"version": "0.1.0", "seed": 7}, ("a", "b"),
              (_PIN_VALUES, _PIN_VALUES[::-1]))
    assert path.read_text() == (
        "# version: 0.1.0\n"
        "# seed: 7\n"
        "a,b\n"
        "0,1.0000000000000001e+300\n"
        "-0,4.9406564584124654e-324\n"
        "0.33333333333333331,0.33333333333333331\n"
        "4.9406564584124654e-324,-0\n"
        "1.0000000000000001e+300,0\n")


def test_read_csv_returns_columns_bitwise(tmp_path):
    path = tmp_path / "pin.csv"
    write_csv(path, {"note": "x"}, ("a", "b"), (_PIN_VALUES, _PIN_VALUES[::-1]))
    lines = path.read_text().splitlines(keepends=True)
    # extra comment lines before the name row and between data rows
    path.write_text("# first\n" + "".join(lines[:3]) + "# mid\n"
                    + "".join(lines[3:]))
    a, b = read_csv(path)
    assert a.tobytes() == _PIN_VALUES.tobytes()
    assert b.tobytes() == _PIN_VALUES[::-1].tobytes()


def _assert_pooled_writes_match_row_by_row(tmp_path, monkeypatch, use_pool,
                                           cols):
    # the pool formats one chunk per worker at a time: rows one short of,
    # at and one past a chunk boundary, on 1, 2 and 3 workers
    for workers in (1, 2, 3):
        for size in (3 * _CSV_CHUNK_ROWS - 1, 3 * _CSV_CHUNK_ROWS,
                     3 * _CSV_CHUNK_ROWS + 1, 2 * _CSV_CHUNK_ROWS + 5):
            part = cols[:, :size]
            path = tmp_path / f"big-{workers}-{size}.csv"
            with monkeypatch.context() as m:
                pool = use_pool(m, workers)
                write_csv(path, {}, ("x", "y", "z"), part)
                if pool is not None:
                    pool.shutdown()
            rows = "".join("%.17g,%.17g,%.17g\n" % tuple(r) for r in part.T)
            assert path.read_text() == "x,y,z\n" + rows, (workers, size)
            assert read_csv(path).tobytes() == part.tobytes(), (workers, size)


def test_write_csv_chunks_match_row_by_row(tmp_path, monkeypatch, use_pool):
    rng = np.random.default_rng(3)
    shape = (3, 3 * _CSV_CHUNK_ROWS + 1)
    cols = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    _assert_pooled_writes_match_row_by_row(tmp_path, monkeypatch, use_pool, cols)


def test_write_csv_chunks_match_row_by_row_in_fast_range(tmp_path, monkeypatch,
                                                         use_pool):
    # N(0, 1) values take the vectorized path across the chunk boundaries
    cols = np.random.default_rng(4).standard_normal((3, 3 * _CSV_CHUNK_ROWS + 1))
    _assert_pooled_writes_match_row_by_row(tmp_path, monkeypatch, use_pool, cols)


def _expect_rows(values):
    return "".join("%.17g\n" % v for v in values).encode()


def _assert_formats(values):
    values = np.asarray(values, dtype=float)
    got = _format_rows(values.reshape(-1, 1)).split(b"\n")
    want = _expect_rows(values.tolist()).split(b"\n")
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]
    assert len(got) == len(want)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)),
    min_size=1, max_size=40))
def test_format_rows_equals_percent_17g(values):
    # one block mixes the vectorized path and the fallback to Python's %
    assert _format_rows(np.array(values).reshape(-1, 1)) == _expect_rows(values)


def test_format_rows_powers_of_ten_and_neighbours():
    values = []
    for k in range(-12, 19):
        p = float(f"1e{k}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    _assert_formats(values + [-v for v in values])


def test_format_rows_half_way_ties():
    # M * 2^-j with M odd has j decimals and ends in 5; 18 significant digits
    # make its 17-digit rounding an exact tie, broken to the even digit
    rng = np.random.default_rng(5)
    values = [1234567890123456.25, 1234567890123456.75]
    for j in range(2, 26):
        lo = -(-10 ** 17 // 5 ** j)
        hi = min(10 ** 18 // 5 ** j, 2 ** 53)
        for m in rng.integers(lo, hi, size=50):
            m = int(m) | 1
            if m < hi and len(str(m * 5 ** j)) == 18:
                values.append(math.ldexp(m, -j))
    assert len(values) > 1000
    _assert_formats(values + [-v for v in values])


def test_format_rows_rounding_carries_to_a_power_of_ten():
    # doubles below 10^k whose 17 digits round up to 10^k (printed "1e-14")
    carries = [k for k in range(-300, 301)
               if Fraction(float(f"1e{k}")) < Fraction(10) ** k
               and round(Fraction(float(f"1e{k}")) * Fraction(10) ** (17 - k)) == 10 ** 17]
    assert carries == [-243, -176, -175, -174, -79, -78, -73, -70, -14, 98,
                       129, 153, 220]
    values = [float(f"1e{k}") for k in carries]
    assert _format_rows(np.array(values).reshape(-1, 1)) == b"".join(
        b"1e%+03d\n" % k for k in carries)


def test_format_rows_at_the_fast_range_edges():
    edges = [1e-11, 1e16, 1e-5, 1e-4]
    values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan]
    for e in edges:
        values += [np.nextafter(e, 0.0), e, np.nextafter(e, np.inf)]
    _assert_formats(values + [-v for v in values])


def test_format_rows_short_decimals_and_integers():
    _assert_formats([i / 1000 for i in range(-3000, 3001)]
                    + [float(i) for i in range(-3000, 3001)]
                    + [i * 1e-9 for i in range(1, 2000)])


def test_write_csv_streams_its_chunks(tmp_path):
    # a writer that joined the whole 10^5 x 5 table (about 11 MB of text)
    # before writing would peak far above a few chunk canvases
    cols = np.random.default_rng(6).standard_normal((5, 100_000))
    canvas = _CSV_CHUNK_ROWS * cols.shape[0] * 48
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", {}, ("a", "b", "c", "d", "e"), cols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * canvas


@pytest.mark.parametrize("text", [None, "", "# only\n", "a,b\n", "a,b\n1,x\n",
                                  "a,b\n1,2\n3\n", "1,2\n3,4\n"])
def test_read_csv_rejects_unreadable_or_empty(tmp_path, text):
    path = tmp_path / "bad.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(InputError):
        read_csv(path)


@pytest.fixture(scope="module")
def steady_csv(tmp_path_factory):
    """r and U of a solved polytrope's steady.csv, read back."""
    base = tmp_path_factory.mktemp("steady_csv")
    (base / "poly.ini").write_text(
        "[model]\nkind = polytrope\nmu = 0.5\nc = 57.0\n\n[solver]\nn = 192\n")
    assert main(["solve", "--config", str(base / "poly.ini"),
                 "--out", str(base)]) == 0
    r, _, U = read_csv(base / "steady.csv", ("r", "rho", "U"))
    return r, U


def _not_a_knot_swaps(x, y):
    """``_PiecewisePoly.not_a_knot(x, y)`` and how many rows its solve swapped.

    A row i < n - 2 that ``_gtsv`` eliminates without a swap leaves dl[i] at
    0; a swap leaves there the fill-in, a cell width > 0.
    """
    swaps = []

    def spy(dl, d, du, b):
        out = _gtsv(dl, d, du, b)
        swaps.append(sum(v != 0.0 for v in dl[:-1]))
        return out

    with mock.patch.object(grids, "_gtsv", spy):
        pp = _PiecewisePoly.not_a_knot(x, y)
    return pp, swaps[0]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["hybrid", "steady", "jump"]), st.booleans(),
       st.sampled_from([32, 96, 192, 256, 384]), st.integers(0, 2**32 - 1))
def test_not_a_knot_matches_scipy_bit_for_bit(steady_csv, kind, smooth, n, seed):
    # hybrid grids of several n, steady.csv's grid (y its U when smooth), and
    # grids with one cell 10^2 to 10^6 times wider than the others, where
    # the solve swaps rows; y smooth or random
    rng = np.random.default_rng(seed)
    if kind == "hybrid":
        x = RadialGrid.hybrid(rng.uniform(0.1, 10.0), 20.0, n).nodes
    elif kind == "jump":
        dx = rng.uniform(0.01, 1.0, n // 2)
        dx[rng.integers(2, dx.size - 1)] *= 10.0 ** rng.uniform(2.0, 6.0)
        x = np.concatenate([[0.0], np.cumsum(dx)])
    else:
        x, U = steady_csv
    if not smooth:
        y = rng.standard_normal(x.size)
    else:
        y = U if kind == "steady" else np.cos(3.0 * x / x[-1]) / (1.0 + x)
    pp, swaps = _not_a_knot_swaps(x, y)
    assert np.array_equal(pp.derivative().c, CubicSpline(x, y).derivative().c)
    if kind == "jump":
        assert swaps > 0


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 80), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_pchip_matches_scipy_bit_for_bit(n, dip, seed):
    # a strictly convex table from 0: increasing slopes over random widths,
    # the first of them negative for dip > 0, where the slopes change sign
    rng = np.random.default_rng(seed)
    f = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n))])
    slopes = np.cumsum(rng.uniform(0.01, 1.0, n))
    slopes -= dip * slopes[-1]
    Q = np.concatenate([[0.0], np.cumsum(slopes * np.diff(f))])
    ours, ref = _PiecewisePoly.pchip(f, Q), PchipInterpolator(f, Q)
    # knots, the last one alone, inside the cells and past both ends
    v = np.concatenate([f, [f[-1]], rng.uniform(-0.5, f[-1] + 0.5, 500)])
    for k in range(3):
        a, b = ours.derivative(k), ref.derivative(k)
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(a(v), b(v))
        assert a(f[-1]) == b(f[-1])


def test_piecewise_poly_sums_from_zero_like_scipy():
    # scipy's sum starts at 0.0, so a value whose every term is -0.0 is +0.0
    x, c = np.array([0.0, 1.0]), np.full((4, 1), -0.0)
    v = np.array([0.0, 0.5, 1.0])
    assert not np.signbit(PPoly(c, x)(v)).any()
    assert not np.signbit(_PiecewisePoly(x, c)(v)).any()
