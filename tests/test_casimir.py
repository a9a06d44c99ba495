import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from flatsteady import (CasimirModel, InverseQ, SolverOptions, solve,
                        validate_assumptions)
from flatsteady.casimir import _substituted_quadrature, _velocity_moments
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


@pytest.mark.parametrize("mus", [(1.5, 0.5), (0.5, 1.0), (0.0, 0.5)])
def test_custom_table_exponents_lie_in_the_unit_interval(mus):
    # solve steps log R by -log A / ((mu1 + mu2)/2 - 1): that slope is < 0
    f = np.linspace(0.0, 6.0, 200)[1:]
    with pytest.raises(ModelDefinitionError, match="exponents"):
        CasimirModel.custom(f, f ** 3, F0=1.0, mu1=mus[0], mu2=mus[1], mu3=0.5)


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


_TABLE_F = np.linspace(0.0, 4.0, 50)


@pytest.mark.parametrize("build", [
    lambda c: CasimirModel.polytrope(0.5, c=c),
    lambda c: CasimirModel.double_power(0.5, 0.75, c, 1.0),
    lambda c: CasimirModel.double_power(0.5, 0.75, 1.0, c),
], ids=["polytrope", "double_power-c1", "double_power-c2"])
def test_power_sum_coefficients_must_be_finite_and_positive(build):
    # a NaN coefficient was accepted and an infinite one ended in "q: Newton
    # did not converge"
    for c in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ModelDefinitionError, match="finite and positive"):
            build(c)
    assert build(2.0).terms[-1][0] > 0.0


@pytest.mark.parametrize("column", ["f", "Q"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_custom_table_entries_must_be_finite(column, bad):
    # scipy's interpolator raised a bare ValueError on them
    f, Q = _TABLE_F.copy(), _TABLE_F ** 3
    ({"f": f, "Q": Q}[column])[-1] = bad
    with pytest.raises(ModelDefinitionError, match="must be finite"):
        CasimirModel.custom(f, Q, F0=1.0, mu1=0.5, mu2=0.5, mu3=0.5)


@pytest.mark.parametrize("build", [
    lambda F0: CasimirModel.polytrope(0.5, F0=F0),
    lambda F0: CasimirModel.double_power(0.5, 0.75, F0=F0),
    lambda F0: CasimirModel.custom(_TABLE_F, _TABLE_F ** 3, F0=F0,
                                   mu1=0.5, mu2=0.5, mu3=0.5),
], ids=["polytrope", "double_power", "custom"])
def test_f0_must_be_finite_and_positive(build):
    # a negative F0 gave a double power a complex C2 and a polytrope's
    # validation an empty reduction; F0 = 0 leaves (Q1) nothing to check
    for F0 in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ModelDefinitionError, match="F0"):
            build(F0)
    assert build(2.0).F0 == 2.0


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


def _casimir_of_scaled_f0(model, s, amp):
    """The evaluator's per-node Casimir density of amp*f0, f0 = q(s - w)."""
    q = model.inverse().q
    return _velocity_moments(model, np.asarray(s, dtype=float),
                             lambda t: amp * q(t))[2]


# G, G2, the Casimir density s*G - 2*G2 (as SteadyState.moments forms it)
# and the evaluator's Casimir density of 0.7*f0, 2*pi*int Q(0.7*q(s - w)) dw,
# at s = 0.05, 0.3, 1.0, 2.5 for a sum and a table, as float.hex: pinned so
# that a change to the Legendre identity behind G, to a sum's closed-form G2
# or to the quadrature behind a table's G2 and the evaluator shows
_QUADRATURE_PINS = {
    "double_power": {
        "G": ["0x1.ab6c33418de59p-10", "0x1.4d773d4c36577p-5",
              "0x1.306b5d700b23fp-2", "0x1.3cbfcfda9cbbdp+0"],
        "G2": ["0x1.dca111d2034c5p-16", "0x1.2319df2330c7dp-8",
               "0x1.cf3568153f636p-4", "0x1.364c6f549450ap+0"],
        "sG-2G2": ["0x1.9e7e8060f2ac6p-16", "0x1.b43b434774eacp-9",
                   "0x1.2342a595adc90p-4", "0x1.568d51f2be688p-1"],
        "C(0.7f0)": ["0x1.2f4a377a5285fp-14", "0x1.2e6db86559adfp-7",
                     "0x1.74d917b2c5c69p-3", "0x1.96f48a33b4f85p+0"],
    },
    "custom": {
        "G": ["0x1.8f7fef7bfdd5ep-9", "0x1.6e65b5a8934c8p-5",
              "0x1.16b2123349908p-2", "0x1.1369d6443ed24p+0"],
        "G2": ["0x1.fe19432c8d300p-15", "0x1.5fb888d4151f0p-8",
               "0x1.bdeb12fd825ecp-4", "0x1.1369925269503p+0"],
        "sG-2G2": ["0x1.0233ab33ab7fcp-15", "0x1.5fd2de3f3b598p-9",
                   "0x1.bde445a443090p-5", "0x1.136ae60b94da8p-1"],
        "C(0.7f0)": ["0x1.1b18609ff7f96p-14", "0x1.7b3b7e295a433p-8",
                     "0x1.e07bd23da1975p-4", "0x1.28d83848eef91p+0"],
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
    got = {"G": inv.G(s), "G2": inv.G2(s),
           "C(0.7f0)": _casimir_of_scaled_f0(model, s, 0.7)}
    got["sG-2G2"] = s * got["G"] - 2.0 * got["G2"]
    for fn, pins in _QUADRATURE_PINS[name].items():
        assert got[fn][0] == 0.0, fn
        assert [float(v).hex() for v in got[fn][1:]] == pins, fn
    # scalars take the same path, and a node's value is its own
    assert inv.G(0.3) == got["G"][2]
    assert _casimir_of_scaled_f0(model, [0.3], 0.7)[0] == got["C(0.7f0)"][2]


@pytest.mark.parametrize("model", [
    CasimirModel.polytrope(0.5, c=57.0), CasimirModel.polytrope(0.75),
    CasimirModel.double_power(0.4, 0.9, 1.0, 0.5)], ids=repr)
def test_velocity_moments_of_f0_match_the_closed_forms(model):
    # rho = 2*pi*G(s), e_kin = 2*pi*G2(s) and C = 2*pi*(s*G - 2*G2), the
    # forms SteadyState.moments uses, from one evaluation of f per point
    inv = model.inverse()
    s = np.array([-0.5, 0.0, 1e-6, 0.05, 0.3, 1.0, 2.5])
    calls = []

    def f(t):
        calls.append(t.shape)
        return inv.q(t)

    rho, e_kin, cas = _velocity_moments(model, s, f)
    assert calls == [(5, 64)]
    g, g2 = 2.0 * np.pi * inv.G(s), 2.0 * np.pi * inv.G2(s)
    for got, ref in ((rho, g), (e_kin, g2), (cas, s * g - 2.0 * g2)):
        assert np.all(got[:2] == 0.0)
        assert np.max(np.abs(got[2:] - ref[2:]) / ref[2:]) <= 1e-12


def test_steady_moments_of_a_power_sum_solve_q_once_per_node(monkeypatch):
    # the residual and the moments share one G at the nodes, and G2 takes
    # one more q solve over the support, each 1-d: no (k, 64) array of
    # quadrature points reaches Newton's method
    ss = solve(CasimirModel.double_power(0.5, 0.75), 1.0, SolverOptions(n=96))
    calls = []
    q_inner = ss.inv._q

    def logged(eps):
        calls.append(eps.shape)
        return q_inner(eps)

    monkeypatch.setattr(ss.inv, "_q", logged)
    ss.residual
    ss.moments
    k = int(np.count_nonzero(ss.s_values > 0.0))
    assert 0 < k < ss.grid.n and calls == [(k,), (k,)]


@pytest.mark.parametrize("kind", ["polytrope", "double_power", "custom"])
@pytest.mark.parametrize("method", ["q", "G", "G2"])
def test_inverse_rejects_non_finite_arguments(kind, method):
    f = np.linspace(0.0, 3.0, 40)
    model = {"polytrope": CasimirModel.polytrope(0.5, c=1.0),
             "double_power": CasimirModel.double_power(0.4, 0.9, 1.0, 0.5),
             "custom": CasimirModel.custom(f, f ** 3, F0=1.0, mu1=0.5,
                                           mu2=0.5, mu3=0.5)}[kind]
    fn = getattr(model.inverse(), method)
    for bad in (np.array([0.1, np.nan]), np.nan, np.array([np.inf, 0.1])):
        with pytest.raises(InputError, match=f"^{method}: non-finite"):
            fn(bad)
    # negative and zero arguments give exactly 0, and a scalar a float
    assert fn(-0.5) == 0.0 and fn(0.0) == 0.0
    assert isinstance(fn(0.1), float)


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

# each example of the mpmath-reference properties below runs a 30-digit
# quadrature (0.1 to 0.5 s), so shrinking a failure would take many minutes:
# they report the first falsifying example as found
_NO_SHRINK = tuple(p for p in settings.default.phases if p is not Phase.shrink)


def _root_30_digits(model, eps):
    """The root of Q'(f) = eps at 30 digits, by Newton from q(eps); 0 where
    q(eps) rounds to 0, a point that adds nothing to an integral at 30
    digits."""
    terms = [(mpmath.mpf(a), mpmath.mpf(e))
             for a, e in model._derivative_terms(1)]
    with mpmath.workdps(30):
        f = mpmath.mpf(model.inverse().q(float(eps)))
        if f == 0:
            return f
        for _ in range(4):
            parts = [(a * f ** e, e) for a, e in terms]
            f -= ((sum(p for p, _ in parts) - eps)
                  / sum(p * e for p, e in parts) * f)
        return f


def _reference_moment(model, s, power):
    """int_0^s (s - t)^power q(t) dt of a double power at 30 digits, G for
    power 0 and G2 for 1, by tanh-sinh quadrature in t = s*u^2 of the
    30-digit root."""
    (a1, e1), (a2, e2) = [(mpmath.mpf(a), mpmath.mpf(e))
                          for a, e in model._derivative_terms(1)]
    with mpmath.workdps(30):
        sm = mpmath.mpf(s)
        # q's local power switches from one mu to the other where the two
        # terms of Q' are equal; one tanh-sinh panel across that bend missed
        # G by 1e-13 (mu = 0.94, 0.05 at s = 1e3), so it is a panel edge
        edges = [0, 1]
        if e1 != e2:
            f_x = (a1 / a2) ** (1 / (e2 - e1))
            u_x = mpmath.sqrt((a1 * f_x ** e1 + a2 * f_x ** e2) / sm)
            if u_x < 1:
                edges = [0, u_x, 1]
        return mpmath.quad(lambda u: 2 * sm * u * (sm - sm * u * u) ** power
                           * _root_30_digits(model, sm * u * u), edges)


@settings(deadline=None, max_examples=20, phases=_NO_SHRINK)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), _log_coefs, _log_coefs,
       st.floats(-8.0, 3.0).map(lambda e: 10.0 ** e))
def test_G_matches_reference_for_random_power_sums(mu1, mu2, c1, c2, s):
    model = CasimirModel.double_power(mu1, mu2, c1, c2)
    ref = _reference_moment(model, s, 0)
    assert abs((model.inverse().G(s) - ref) / ref) <= 1e-13


# the largest |G2 - ref| / ref over 1500 examples of the strategy below
# (hypothesis seeds 1-5) was 6.3e-16, and 4.3e-16 at the top s of 450
# examples of the next test; the 64-point rule over G, used before the
# closed form, was off by more than this on 99% of those 1500 and by up to
# 1.2e-9
_G2_REL = 1.5e-15


@settings(deadline=None, max_examples=20, phases=_NO_SHRINK)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), _log_coefs, _log_coefs,
       st.floats(-8.0, 5.0).map(lambda e: 10.0 ** e))
def test_G2_matches_reference_for_random_power_sums(mu1, mu2, c1, c2, s):
    model = CasimirModel.double_power(mu1, mu2, c1, c2)
    ref = _reference_moment(model, s, 1)
    assert abs((model.inverse().G2(s) - ref) / ref) <= _G2_REL


@settings(deadline=None, max_examples=10, phases=_NO_SHRINK)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), _log_coefs, _log_coefs,
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_G2_is_finite_from_subnormal_s_to_1e300(mu1, mu2, c1, c2, shares):
    # s^2*q(s) bounds G2(s) = int_0^s (s - t) q(t) dt above; at the top s,
    # where it is 1e300, G2 is within a factor 6 of it
    model = CasimirModel.double_power(mu1, mu2, c1, c2)
    inv = model.inverse()
    top = brentq(lambda x: 2.0 * x + np.log10(inv.q(10.0 ** x)) - 300.0,
                 0.0, 160.0)
    s = np.sort(np.concatenate([
        [-1e300, -1.0, -5e-324, 0.0, 5e-324, 1e-310, 10.0 ** top],
        10.0 ** (-310.0 + np.array(shares) * (top + 310.0))]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g2 = inv.G2(s)
    assert np.all(g2[s <= 0.0] == 0.0)
    assert np.all(np.isfinite(g2)) and np.all(g2 >= 0.0)
    assert np.all(np.diff(g2) >= 0.0)
    ref = _reference_moment(model, s[-1], 1)
    assert 1e299 < ref < 1e300
    assert abs((g2[-1] - ref) / ref) <= _G2_REL


@settings(deadline=None, max_examples=40, phases=_NO_SHRINK)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), _log_coefs, _log_coefs,
       st.lists(st.floats(-8.0, 3.0), min_size=1, max_size=20).map(
           lambda e: 10.0 ** np.array(e)))
def test_q_newton_matches_a_30_digit_root(mu1, mu2, c1, c2, eps):
    # over 60 random double powers x 20 eps in 10^[-8, 3] the worst
    # relative error was 3.8e-15; log-space Newton loses |log f| ulps
    model = CasimirModel.double_power(mu1, mu2, c1, c2)
    q = model.inverse().q(eps)
    for x, f in zip(eps, q):
        ref = _root_30_digits(model, x)
        assert abs(f - ref) <= 1e-14 * ref


_SUBNORMAL = st.floats(-1074.0, -1022.0).map(lambda e: 2.0 ** e)


@settings(deadline=None)
@given(_power_sums(),
       st.lists(st.just(0.0) | _SUBNORMAL
                | st.floats(-308.0, 300.0).map(lambda e: 10.0 ** e),
                min_size=1, max_size=20))
def test_q_is_monotone_finite_and_elementwise(model_terms, eps):
    # from 0 through the subnormals to 1e300: no warning, q(0) = 0, q > 0
    # elsewhere and nondecreasing, and an entry's bits are its own
    model, _ = model_terms
    inv = model.inverse()
    eps = np.sort(eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = inv.q(eps)
        scalars = [inv.q(float(x)) for x in eps]
    assert q.tobytes() == np.array(scalars).tobytes()
    assert np.all(np.isfinite(q)) and np.all(np.diff(q) >= 0.0)
    assert np.all((q > 0.0) == (eps > 0.0))


_TINY = np.finfo(float).tiny
# subnormal points, log-uniform down to 2**-1074, and normal points near tiny
_near_tiny = (st.floats(-1074.0, -1018.0).map(lambda e: 2.0 ** e)
              | st.floats(0.0, 16.0 * _TINY) | st.just(_TINY))


@settings(deadline=None)
@given(_power_sums(), st.lists(_near_tiny, min_size=2, max_size=20))
def test_power_sum_inverse_at_subnormal_arguments(model_terms, s):
    # log eps is finite down to the smallest subnormal, and Newton's terms
    # are relative to the bracket, so no term under- or overflows
    model, _ = model_terms
    inv = model.inverse()
    s = np.sort(s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = {"q": inv.q(s), "G": inv.G(s), "G2": inv.G2(s),
                  "C(0.7f0)": _casimir_of_scaled_f0(model, s, 0.7)}
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
