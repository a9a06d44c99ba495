import numpy as np
import pytest
from scipy.integrate import quad

from flatsteady import elliptic_k
from flatsteady.errors import InputError


def k_quadrature(xi):
    val, _ = quad(lambda t: 1.0 / np.sqrt(1.0 - (xi * np.sin(t)) ** 2),
                  0.0, 0.5 * np.pi, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def test_k_zero_is_half_pi():
    assert elliptic_k(0.0) == pytest.approx(np.pi / 2.0, abs=0.0)


def test_k_matches_quadrature_moderate():
    for xi in (0.1, 0.5, 0.9, 0.99):
        assert elliptic_k(xi) == pytest.approx(k_quadrature(xi), rel=1e-12)


def test_k_vectorized_matches_scalar():
    xi = np.array([0.0, 0.3, 0.7, 0.999])
    vec = elliptic_k(xi)
    for i, x in enumerate(xi):
        assert vec[i] == elliptic_k(float(x))


def test_k_scalar_returns_float():
    assert isinstance(elliptic_k(0.5), float)


def test_k_monotone_increasing():
    xi = np.linspace(0.0, 1.0 - 1e-10, 400)
    k = elliptic_k(xi)
    assert np.all(np.diff(k) > 0.0)


def test_k_rejects_bad_modulus():
    with pytest.raises(InputError):
        elliptic_k(-0.1)
    with pytest.raises(InputError):
        elliptic_k(1.0)
    with pytest.raises(InputError):
        elliptic_k(np.nan)


def test_log_singularity_bound():
    # K(xi) <= C (1 - ln(1 - xi)); the ratio peaks at xi = 0 with value pi/2
    xi = np.linspace(0.0, 1.0 - 1e-12, 2000)
    ratio = elliptic_k(xi) / (1.0 - np.log1p(-xi))
    assert np.max(ratio) <= 2.0
    assert np.max(ratio) == pytest.approx(np.pi / 2.0, rel=1e-6)
    assert xi[np.argmax(ratio)] == 0.0


def test_kbound_fails_for_small_constant():
    xi = np.linspace(0.0, 0.999, 500)
    assert np.max(elliptic_k(xi) / (1.0 - np.log1p(-xi))) > 1.0
