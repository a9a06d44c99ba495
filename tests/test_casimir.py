import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from flatsteady import (CasimirModel, InverseQ, SolverOptions, solve,
                        validate_assumptions)
from flatsteady.casimir import _substituted_quadrature
from flatsteady.errors import ConvergenceError, InputError, ModelDefinitionError

F_GRID = np.linspace(0.0, 4.0, 256)


def test_polytrope_inverse_closed_form():
    # Q = f^3 for mu = 1/2, c = 1: Q'(f) = 3 f^2, q(eps) = sqrt(eps/3)
    m = CasimirModel.polytrope(0.5, c=1.0)
    inv = m.inverse()
    assert inv.q(3.0) == pytest.approx(1.0, rel=1e-14)
    assert inv.q(0.75) == pytest.approx(0.5, rel=1e-14)
    assert inv.q(0.0) == 0.0
    assert inv.q(-1.0) == 0.0


def test_polytrope_antiderivatives():
    # G(s) = int_0^s q = (2/3) sqrt(s/3) s; G(3) = 2, so 2 pi G(3) = 4 pi
    m = CasimirModel.polytrope(0.5, c=1.0)
    inv = m.inverse()
    assert inv.G(3.0) == pytest.approx(2.0, rel=1e-13)
    assert 2.0 * np.pi * inv.G(3.0) == pytest.approx(4.0 * np.pi, rel=1e-13)
    assert inv.G2(3.0) == pytest.approx(2.4, rel=1e-13)


def test_gq_identity():
    # int_0^s Q(q(t)) dt = s G(s) - 2 G2(s), integration by parts twice: the
    # Casimir density SteadyState.moments sums
    m = CasimirModel.polytrope(0.7, c=1.3)
    inv = m.inverse()
    for s in (0.5, 1.0, 4.0):
        direct = quad(lambda t: m.Q(inv.q(t)), 0.0, s, epsabs=0.0,
                      epsrel=1e-13)[0]
        assert s * inv.G(s) - 2.0 * inv.G2(s) == pytest.approx(direct, rel=1e-12)


def test_inverse_roundtrip_polytrope():
    m = CasimirModel.polytrope(0.5, c=1.0)
    inv = m.inverse()
    s = np.linspace(0.01, 5.0, 40)
    assert np.max(np.abs(m.Qp(inv.q(s)) - s)) < 1e-12


def test_inverse_roundtrip_double_power():
    m = CasimirModel.double_power(0.4, 0.9, 1.0, 0.5, F0=2.0)
    inv = m.inverse()
    s = np.linspace(1e-3, 6.0, 50)
    assert np.max(np.abs(m.Qp(inv.q(s)) - s) / s) < 1e-10


def test_inverse_roundtrip_custom():
    base = CasimirModel.polytrope(0.5, c=1.0)
    f = np.linspace(0.0, 6.0, 400)
    m = CasimirModel.custom(f, base.Q(f), F0=1.0, mu1=0.5, mu2=0.5, mu3=0.5)
    inv = m.inverse()
    s = np.linspace(0.05, 3.0, 20)
    # inversion of the tabulated Q' is near-exact ...
    q_vals = inv.q(s)
    assert np.max(np.abs(m.Qp(q_vals) - s) / s) < 1e-9
    # ... while agreement with the closed form is limited by interpolation
    q_ref = base.inverse().q(s)
    assert np.max(np.abs(q_vals - q_ref) / q_ref) < 5e-3


def test_assumptions_polytrope_passes():
    rep = validate_assumptions(CasimirModel.polytrope(0.5), F_GRID)
    assert rep.all_passed
    assert rep.failed() == []


def test_assumptions_double_power_passes():
    rep = validate_assumptions(
        CasimirModel.double_power(0.4, 0.9, 1.0, 0.5, F0=2.0), F_GRID)
    assert rep.all_passed


def test_assumptions_declared_mu3_passes():
    rep = validate_assumptions(CasimirModel.polytrope(0.75, mu3=0.5), F_GRID)
    assert rep.all_passed


def test_assumptions_reject_concave_table():
    # a concave kink violates (Q4)
    f = np.linspace(0.0, 4.0, 200)
    Q = np.where(f < 2.0, f ** 3, 8.0 + 12.0 * (f - 2.0) - 0.1 * (f - 2.0) ** 2)
    with pytest.raises(ModelDefinitionError):
        CasimirModel.custom(f, Q, F0=1.0, mu1=0.5, mu2=0.5, mu3=0.5)


def test_assumptions_need_enough_samples():
    m = CasimirModel.polytrope(0.5)
    with pytest.raises(InputError):
        validate_assumptions(m, np.linspace(0.0, 4.0, 50))
    with pytest.raises(InputError):
        validate_assumptions(m, np.linspace(0.0, 0.5, 200))


def test_polytrope_rejects_bad_exponent():
    with pytest.raises(ModelDefinitionError):
        CasimirModel.polytrope(0.0)
    with pytest.raises(ModelDefinitionError):
        CasimirModel.polytrope(1.0)


def test_mu3_above_mu_violates_q3():
    # declared mu3 must not exceed the polytropic exponent
    rep = validate_assumptions(CasimirModel.polytrope(0.5, mu3=0.8), F_GRID)
    assert not rep.checks["Q3"]["passed"]


# -- properties of the power-sum form -----------------------------------------

# mu = 1/2 and 1/4 give odd integer powers, which keep the sign of f = -0.0
_mus = st.floats(0.2, 0.95) | st.sampled_from([0.25, 0.5])
_coefs = st.floats(0.1, 100.0)
_f = st.lists(st.floats(0.0, 10.0) | st.just(-0.0), min_size=1,
              max_size=20).map(np.array)


@st.composite
def _power_sums(draw):
    """A random polytrope or double power and its terms ((coef, mu), ...)."""
    if draw(st.booleans()):
        c, mu = draw(_coefs), draw(_mus)
        return CasimirModel.polytrope(mu, c=c), ((c, mu),)
    c1, c2, mu1, mu2 = draw(_coefs), draw(_coefs), draw(_mus), draw(_mus)
    model = CasimirModel.double_power(mu1, mu2, c1, c2,
                                      F0=draw(st.floats(0.5, 2.0)))
    return model, ((c1, mu1), (c2, mu2))


@settings(deadline=None)
@given(_power_sums(), _f)
def test_power_sum_matches_closed_form_bitwise(model_terms, f):
    model, terms = model_terms
    ref = {"Q": [], "Qp": [], "Qpp": []}
    for c, mu in terms:
        p = 1.0 + 1.0 / mu
        ref["Q"].append(c * np.power(f, 1.0 + 1.0 / mu))
        ref["Qp"].append(c * p * np.power(f, p - 1.0))
        ref["Qpp"].append(c * p * (p - 1.0) * np.power(f, p - 2.0))
    for name, parts in ref.items():
        expected = parts[0] if len(parts) == 1 else parts[0] + parts[1]
        assert getattr(model, name)(f).tobytes() == expected.tobytes(), name


@settings(deadline=None)
@given(_power_sums(), st.floats(1e-3, 10.0))
def test_inverse_roundtrip_power_sums(model_terms, f):
    model, terms = model_terms
    tol = 1e-12 if len(terms) == 1 else 1e-10
    assert model.inverse().q(model.Qp(f)) == pytest.approx(f, rel=tol)


# the largest |Q'(q(eps)) - eps| / eps over 9000 examples of the strategy
# below was 9.1e-16
_TABLE_ROUNDTRIP_REL = 2e-15


@settings(deadline=None, max_examples=40)
@given(_power_sums(), st.integers(100, 400), st.floats(0.5, 8.0),
       st.floats(0.05, 0.95),
       st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=20),
       st.lists(st.floats(-300.0, -20.0), min_size=1, max_size=20))
def test_inverse_roundtrip_custom_tables(model_terms, n, f_max, share,
                                         shares, exponents):
    base, _ = model_terms
    table = np.linspace(0.0, f_max, n)
    m = CasimirModel.custom(table, base.Q(table), F0=1.0,
                            mu1=0.5, mu2=0.5, mu3=0.5)
    inv = m.inverse()
    f = share * f_max
    assert abs(inv.q(m.Qp(f)) - f) <= 1e-9 * f_max
    # q is the exact root of the table's Q': inside the table, at its knots
    # and far below its first node, where q is still positive
    inside = np.concatenate([np.array(shares) * m.Qp(f_max), m.Qp(table[1:])])
    for eps in (inside, 10.0 ** np.array(exponents)):
        q = inv.q(eps)
        assert np.all(q > 0.0)
        assert np.max(np.abs(m.Qp(q) - eps) / eps) <= _TABLE_ROUNDTRIP_REL


# G, G2, the Casimir density s*G - 2*G2 (as SteadyState.moments forms it)
# and GQ_scaled(amp = 0.7) at s = 0.05, 0.3, 1.0, 2.5 for a sum and a table,
# as float.hex: pinned so that a change to the Legendre identity behind G or
# to the quadrature behind G2 and GQ_scaled shows
_QUADRATURE_PINS = {
    "double_power": {
        "G": ["0x1.ab6c33418de59p-10", "0x1.4d773d4c36577p-5",
              "0x1.306b5d700b23fp-2", "0x1.3cbfcfda9cbbdp+0"],
        "G2": ["0x1.dca111d2034b0p-16", "0x1.2319df2330c6fp-8",
               "0x1.cf3568153f623p-4", "0x1.364c6f54944fep+0"],
        "sG-2G2": ["0x1.9e7e8060f2af0p-16", "0x1.b43b434774ee4p-9",
                   "0x1.2342a595adcb6p-4", "0x1.568d51f2be6b8p-1"],
        "GQ_scaled": ["0x1.822924020e677p-17", "0x1.81106559e4969p-10",
                      "0x1.dab98f25d8e00p-6", "0x1.0313643da106cp-2"],
    },
    "custom": {
        "G": ["0x1.8f7fef7bfdd5ep-9", "0x1.6e65b5a8934c8p-5",
              "0x1.16b2123349908p-2", "0x1.1369d6443ed24p+0"],
        "G2": ["0x1.fe19432c8d300p-15", "0x1.5fb888d4151f0p-8",
               "0x1.bdeb12fd825ecp-4", "0x1.1369925269503p+0"],
        "sG-2G2": ["0x1.0233ab33ab7fcp-15", "0x1.5fd2de3f3b598p-9",
                   "0x1.bde445a443090p-5", "0x1.136ae60b94da8p-1"],
        "GQ_scaled": ["0x1.6872b26555f83p-17", "0x1.e2da8acd74cf5p-11",
                      "0x1.31e2aa28e2e35p-6", "0x1.79f44ca6e540cp-3"],
    },
}


@pytest.mark.parametrize("name", sorted(_QUADRATURE_PINS))
def test_quadrature_moments_are_pinned(name):
    if name == "double_power":
        model = CasimirModel.double_power(0.4, 0.9, 1.0, 0.5, F0=2.0)
    else:
        f = np.linspace(0.0, 6.0, 200)[1:]
        model = CasimirModel.custom(f, CasimirModel.polytrope(0.5, c=2.0).Q(f),
                                    F0=1.0, mu1=0.5, mu2=0.5, mu3=0.5)
    inv = model.inverse()
    s = np.array([0.0, 0.05, 0.3, 1.0, 2.5])
    got = {"G": inv.G(s), "G2": inv.G2(s), "GQ_scaled": inv.GQ_scaled(s, 0.7)}
    got["sG-2G2"] = s * got["G"] - 2.0 * got["G2"]
    for fn, pins in _QUADRATURE_PINS[name].items():
        assert got[fn][0] == 0.0, fn
        assert [float(v).hex() for v in got[fn][1:]] == pins, fn
    # scalars take the same path
    assert inv.G(0.3) == got["G"][2] and inv.GQ_scaled(0.3, 0.7) == got["GQ_scaled"][2]


@pytest.mark.parametrize("kind", ["polytrope", "double_power", "custom"])
@pytest.mark.parametrize("method", ["q", "G", "G2", "GQ_scaled"])
def test_inverse_rejects_non_finite_arguments(kind, method):
    f = np.linspace(0.0, 3.0, 40)
    model = {"polytrope": CasimirModel.polytrope(0.5, c=1.0),
             "double_power": CasimirModel.double_power(0.4, 0.9, 1.0, 0.5),
             "custom": CasimirModel.custom(f, f ** 3, F0=1.0, mu1=0.5,
                                           mu2=0.5, mu3=0.5)}[kind]
    fn = getattr(model.inverse(), method)
    extra = (0.7,) if method == "GQ_scaled" else ()
    for bad in (np.array([0.1, np.nan]), np.nan, np.array([np.inf, 0.1])):
        with pytest.raises(InputError, match=f"^{method}: non-finite"):
            fn(bad, *extra)
    # negative and zero arguments give exactly 0, and a scalar a float
    assert fn(-0.5, *extra) == 0.0 and fn(0.0, *extra) == 0.0
    assert isinstance(fn(0.1, *extra), float)


# -- G against independent references ----------------------------------------

def _quad_G(inv, s, knots=()):
    """int_0^s q by adaptive quadrature in t = s*u^2, split at the knots t
    where q has a kink."""
    edges = np.sqrt([k / s for k in knots if 0.0 < k < s])
    edges = np.concatenate([[0.0], edges, [1.0]])
    return sum(quad(lambda u: 2.0 * s * u * inv.q(s * u * u), a, b,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("args", [(0.5, 0.75), (0.1, 0.9), (0.9, 0.2, 3.0, 0.1)])
def test_G_matches_reference(args):
    inv = CasimirModel.double_power(*args).inverse()
    s = np.geomspace(1e-8, 1e3, 40)
    ref = np.array([_quad_G(inv, x) for x in s])
    assert np.max(np.abs(inv.G(s) - ref) / ref) <= 1e-13


_log_coefs = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)


@settings(deadline=None, max_examples=20)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), _log_coefs, _log_coefs,
       st.floats(-8.0, 3.0).map(lambda e: 10.0 ** e))
def test_G_matches_reference_for_random_power_sums(mu1, mu2, c1, c2, s):
    model = CasimirModel.double_power(mu1, mu2, c1, c2)
    inv = model.inverse()
    terms = [(mpmath.mpf(c), mpmath.mpf(mu)) for c, mu in model.terms]

    def q(t):
        # Newton on Q'(f) = t at 30 digits from the double-precision root
        f = mpmath.mpf(inv.q(float(t)))
        for _ in range(3):
            g = sum(c * (1 + 1 / mu) * f ** (1 / mu) for c, mu in terms) - t
            dg = sum(c * (1 + 1 / mu) / mu * f ** (1 / mu - 1) for c, mu in terms)
            f -= g / dg
        return f

    with mpmath.workdps(30):
        sm = mpmath.mpf(s)
        ref = mpmath.quad(lambda u: 2 * sm * u * q(sm * u * u), [0, 1])
        assert abs((inv.G(s) - ref) / ref) <= 1e-13


def _textbook_q(model, eps):
    """q by Newton from above on Q'(f) = eps, with the model's Q' and Q''."""
    f = np.minimum.reduce([(eps / (coef * (1.0 + 1.0 / mu))) ** mu
                           for coef, mu in model.terms])
    for _ in range(80):
        f_new = np.maximum(f - (model.Qp(f) - eps) / model.Qpp(f), 0.5 * f)
        done = np.abs(f_new - f) <= InverseQ.REL_TOL * np.maximum(f_new, 1e-300)
        f = f_new
        if np.all(done):
            return f
    raise AssertionError("reference Newton did not converge")


@settings(deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), _log_coefs, _log_coefs,
       st.lists(st.floats(-8.0, 3.0), min_size=1, max_size=50).map(
           lambda e: 10.0 ** np.array(e)))
def test_q_newton_matches_textbook_newton_bitwise(mu1, mu2, c1, c2, eps):
    model = CasimirModel.double_power(mu1, mu2, c1, c2)
    assert model.inverse().q(eps).tobytes() == _textbook_q(model, eps).tobytes()


_TINY = np.finfo(float).tiny
# subnormal points, log-uniform down to 2**-1074, and normal points near tiny
_near_tiny = (st.floats(-1074.0, -1018.0).map(lambda e: 2.0 ** e)
              | st.floats(0.0, 16.0 * _TINY) | st.just(_TINY))


@settings(deadline=None)
@given(_power_sums(), st.lists(_near_tiny, min_size=2, max_size=20))
def test_power_sum_inverse_at_subnormal_arguments(model_terms, s):
    # Newton cannot meet its tolerance once Q'(f) - eps is subnormal; there
    # q is the lowest power's closed form, met at tiny by Newton's value
    model, _ = model_terms
    inv = model.inverse()
    s = np.sort(s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = {"q": inv.q(s), "G": inv.G(s), "G2": inv.G2(s),
                  "GQ_scaled": inv.GQ_scaled(s, 0.7)}
        scalars = [inv.q(float(x)) for x in s]
    assert np.array_equal(values["q"], scalars)
    for name, v in values.items():
        assert np.all(np.isfinite(v)) and np.all(v >= 0.0), name
        assert np.all(np.diff(v) >= 0.0), name
    assert np.all(values["q"][s > 0.0] > 0.0)


@pytest.mark.parametrize("mu", [0.05, 0.5, 0.75, 0.95])
@pytest.mark.parametrize("c", [0.01, 1.0, 57.0])
def test_polytrope_G_is_the_conjugate_of_Q(mu, c):
    # the closed form agrees with G(s) = s q(s) - Q(q(s)), used for sums
    model = CasimirModel.polytrope(mu, c=c)
    inv = model.inverse()
    s = np.geomspace(1e-8, 1e3, 40)
    f = inv.q(s)
    G = inv.G(s)
    assert np.max(np.abs(G - (s * f - model.Q(f))) / G) <= 1e-14


def test_custom_G_is_no_worse_than_the_quadrature_rule():
    f = np.linspace(0.0, 6.0, 200)[1:]
    model = CasimirModel.custom(f, f ** 3, F0=1.0, mu1=0.5, mu2=0.5, mu3=0.5)
    inv = model.inverse()
    s = np.array([1e-6, 1e-3, 0.3, 3.0])
    ref = np.array([_quad_G(inv, x, model.Qp(model.f_table)) for x in s])
    err_new = np.max(np.abs(inv.G(s) - ref) / ref)
    err_rule = np.max(np.abs(_substituted_quadrature(s, inv.q) - ref) / ref)
    assert err_new <= err_rule and err_new <= 1e-13


@pytest.mark.parametrize("kind", ["double_power", "custom"])
def test_G_evaluates_q_once_per_point(kind, monkeypatch):
    f = np.linspace(0.0, 3.0, 40)
    model = {"double_power": CasimirModel.double_power(0.4, 0.9, 1.0, 0.5),
             "custom": CasimirModel.custom(f, f ** 3, F0=1.0, mu1=0.5,
                                           mu2=0.5, mu3=0.5)}[kind]
    inv = model.inverse()
    points = []
    q_inner = inv._q

    def counted(eps):
        points.append(np.size(eps))
        return q_inner(eps)

    def public_q(self, eps):
        raise AssertionError("G entered the public q")

    monkeypatch.setattr(inv, "_q", counted)
    monkeypatch.setattr(InverseQ, "q", public_q)
    s = np.array([-1.0, 0.0, 0.05, 0.3, 1.0, 2.5, 4.0])
    inv.G(s)
    assert sum(points) == 5
    points.clear()
    inv.G(0.7)
    assert sum(points) == 1


def test_custom_table_bracket_is_exhausted_past_its_last_node():
    # Q = f^3 on (0, 6]: the table's Q' ends near 3*6^2 = 108
    f = np.linspace(0.0, 6.0, 200)[1:]
    model = CasimirModel.custom(f, f ** 3, F0=1.0, mu1=0.5, mu2=0.5, mu3=0.5)
    inv = model.inverse()
    for method in ("q", "G", "G2"):
        with pytest.raises(ConvergenceError,
                           match=r"^q: bracket exhausted for eps=.* "
                                 r"\(table covers Q' up to 107.998\)$"):
            getattr(inv, method)(200.0)
    with pytest.raises(ConvergenceError, match="^q: bracket exhausted"):
        solve(model, 1.0, SolverOptions(n=128))


def test_q_newton_raises_without_convergence(monkeypatch):
    inv = CasimirModel.double_power(0.4, 0.9, 1.0, 0.5).inverse()
    monkeypatch.setattr(InverseQ, "REL_TOL", -1.0)
    with pytest.raises(ConvergenceError,
                       match="^q: Newton did not converge for eps=2.5$"):
        inv.q(np.array([0.5, 2.5]))
