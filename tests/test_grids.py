import numpy as np
import pytest

from flatsteady import RadialGrid, RadialProfile
from flatsteady.errors import InputError
from flatsteady.grids import _CSV_CHUNK_ROWS, read_csv, write_csv


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


def test_write_csv_chunks_match_row_by_row(tmp_path):
    rng = np.random.default_rng(3)
    cols = rng.standard_normal((3, 2 * _CSV_CHUNK_ROWS + 5)) * 10.0 ** rng.integers(
        -300, 300, size=(3, 2 * _CSV_CHUNK_ROWS + 5))
    path = tmp_path / "big.csv"
    write_csv(path, {}, ("x", "y", "z"), cols)
    rows = "".join("%.17g,%.17g,%.17g\n" % tuple(r) for r in cols.T)
    assert path.read_text() == "x,y,z\n" + rows
    assert read_csv(path).tobytes() == cols.tobytes()


@pytest.mark.parametrize("text", [None, "", "# only\n", "a,b\n", "a,b\n1,x\n",
                                  "a,b\n1,2\n3\n", "1,2\n3,4\n"])
def test_read_csv_rejects_unreadable_or_empty(tmp_path, text):
    path = tmp_path / "bad.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(InputError):
        read_csv(path)
