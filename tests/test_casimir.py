import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatsteady import CasimirModel, validate_assumptions
from flatsteady.errors import InputError, ModelDefinitionError

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
    # int_0^s Q(q(t)) dt = s G(s) - 2 G2(s), integration by parts twice
    m = CasimirModel.polytrope(0.7, c=1.3)
    inv = m.inverse()
    for s in (0.5, 1.0, 4.0):
        assert inv.GQ(s) == pytest.approx(s * inv.G(s) - 2.0 * inv.G2(s),
                                          rel=1e-12)


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


@settings(deadline=None, max_examples=40)
@given(_power_sums(), st.integers(100, 400), st.floats(0.5, 8.0),
       st.floats(0.05, 0.95))
def test_inverse_roundtrip_custom_tables(model_terms, n, f_max, share):
    base, _ = model_terms
    table = np.linspace(0.0, f_max, n)
    m = CasimirModel.custom(table, base.Q(table), F0=1.0,
                            mu1=0.5, mu2=0.5, mu3=0.5)
    f = share * f_max
    assert abs(m.inverse().q(m.Qp(f)) - f) <= 1e-9 * f_max


# G, G2, GQ and GQ_scaled(amp = 0.7) at s = 0.05, 0.3, 1.0, 2.5 on the two
# quadrature paths, as float.hex: pinned so that a change to the quadrature's
# operation order shows
_QUADRATURE_PINS = {
    "double_power": {
        "G": ["0x1.ab6c33418de95p-10", "0x1.4d773d4c365b4p-5",
              "0x1.306b5d700b28bp-2", "0x1.3cbfcfda9cc2ap+0"],
        "G2": ["0x1.dca111d2034f4p-16", "0x1.2319df2330ca0p-8",
               "0x1.cf3568153f68ap-4", "0x1.364c6f549455ep+0"],
        "GQ": ["0x1.9e7e8060f2b28p-16", "0x1.b43b434774f44p-9",
               "0x1.2342a595add18p-4", "0x1.568d51f2be758p-1"],
        "GQ_scaled": ["0x1.822924020e677p-17", "0x1.81106559e4969p-10",
                      "0x1.dab98f25d8e00p-6", "0x1.0313643da106cp-2"],
    },
    "custom": {
        "G": ["0x1.8f9caf9782210p-9", "0x1.6e65559f57510p-5",
              "0x1.16b89f950c09ap-2", "0x1.13729e8cb761ep+0"],
        "G2": ["0x1.fe17638c39825p-15", "0x1.5fb910635f26fp-8",
               "0x1.bdeb2645f3cbcp-4", "0x1.1368a4e4262c6p+0"],
        "GQ": ["0x1.02936acc60986p-15", "0x1.5fcef308f34f8p-9",
               "0x1.be186390911e0p-5", "0x1.139a852efc380p-1"],
        "GQ_scaled": ["0x1.6872b26555f83p-17", "0x1.e2da8acd74cf6p-11",
                      "0x1.31e2aa28e2e35p-6", "0x1.79f44ca6e540dp-3"],
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
    got = {"G": inv.G(s), "G2": inv.G2(s), "GQ": inv.GQ(s),
           "GQ_scaled": inv.GQ_scaled(s, 0.7)}
    for fn, pins in _QUADRATURE_PINS[name].items():
        assert got[fn][0] == 0.0, fn
        assert [float(v).hex() for v in got[fn][1:]] == pins, fn
    # scalars take the same path
    assert inv.G(0.3) == got["G"][2] and inv.GQ_scaled(0.3, 0.7) == got["GQ_scaled"][2]
