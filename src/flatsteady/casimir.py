"""Casimir functions Q, their inverse derivative q, and assumption checks.

A Casimir model supplies the convex function Q(f) defining the Casimir
functional, together with the declared structural constants (mu1, mu2, mu3,
C1..C4, F0) that the growth/scaling assumptions (Q1)-(Q5) refer to.  The
inverse q of Q' is what shapes the steady state, f0 = q(E0 - E), and its
antiderivative G(s) = int_0^s q gives the planar density through
rho0(r) = 2*pi*G(E0 - U0(r)).  G is the convex conjugate of Q,
G(s) = s*q(s) - (Q(q(s)) - Q(0)): closed form for a polytrope, one q
evaluation per argument for a sum of powers or a table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InputError, ModelDefinitionError, ConvergenceError

__all__ = [
    "CasimirModel",
    "InverseQ",
    "ValidationReport",
    "validate_assumptions",
]

_REL_SLACK = 1e-9  # validation slack for floating-point equality cases
_TINY = np.finfo(float).tiny  # the smallest normal float64

# Gauss-Legendre rule reused for the generic antiderivative quadratures
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_U = 0.5 * (_GL_NODES + 1.0)   # nodes on [0, 1]
_GL_W = 0.5 * _GL_WEIGHTS


def _substituted_quadrature(s, g):
    """int_0^s g(t) dt for each s > 0 by the 64-point rule in t = s*u^2,
    which flattens the t^mu endpoint behaviour of q; g maps a flat array."""
    t = s[:, None] * (_GL_U ** 2)[None, :]
    gt = g(t.ravel()).reshape(t.shape)
    return 2.0 * s * np.sum(_GL_W * _GL_U * gt, axis=1)


def _power_sum(f, terms):
    """sum of a*f^e over (a, e) in terms, added in their order."""
    a, e = terms[0]
    out = a * np.power(f, e)
    for a, e in terms[1:]:
        out += a * np.power(f, e)
    return out


@dataclass(frozen=True)
class CasimirModel:
    """Convex Casimir function Q with declared assumption constants.

    Built-in kinds are power sums, Q = sum of coef*f^(1+1/mu) over
    ``terms`` = ((coef, mu), ...): 'polytrope' has one term and
    'double_power' two.  'custom' (no terms) interpolates a tabulated Q
    with a monotone cubic, which keeps Q' monotone and q well defined.
    """

    kind: str
    F0: float = 1.0
    mu1: float = 0.5
    mu2: float = 0.5
    mu3: float = 0.5
    C1: float = 1.0
    C2: float = 1.0
    C3: float = 0.5
    C4: float = 2.0
    terms: tuple = ()
    f_table: Optional[np.ndarray] = None
    Q_table: Optional[np.ndarray] = None
    # a table's Q, Q' and Q'' as piecewise polynomials, built once
    _derivs: tuple = field(default=(), repr=False, compare=False)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def polytrope(mu: float, c: float = 1.0, F0: float = 1.0,
                  mu3: Optional[float] = None) -> "CasimirModel":
        """Q(f) = c * f^(1+1/mu), 0 < mu < 1.

        The canonical form has c = 1; the coefficient is exposed for
        generality.
        mu3 defaults to mu ((Q3) then holds with equality); a smaller mu3
        is also admissible and gives a strict scaling inequality.
        """
        if not (0.0 < mu < 1.0):
            raise ModelDefinitionError("polytrope: mu must lie in (0,1)")
        if c <= 0:
            raise ModelDefinitionError("polytrope: coefficient must be positive")
        m3 = mu if mu3 is None else mu3
        e = 1.0 / mu - 1.0  # homogeneity degree of Q''
        return CasimirModel(
            kind="polytrope", F0=F0, terms=((c, mu),),
            mu1=mu, mu2=mu, mu3=m3, C1=c, C2=c,
            C3=0.5 ** e, C4=2.0 ** e,
        )

    @staticmethod
    def double_power(mu1: float, mu2: float, C1: float = 1.0, C2: float = 1.0,
                     F0: float = 1.0) -> "CasimirModel":
        """Q(f) = C1*f^(1+1/mu1) + C2*f^(1+1/mu2), 0 < mu1, mu2 < 1."""
        for m in (mu1, mu2):
            if not (0.0 < m < 1.0):
                raise ModelDefinitionError("double_power: exponents must lie in (0,1)")
        if C1 <= 0 or C2 <= 0:
            raise ModelDefinitionError("double_power: coefficients must be positive")
        mu_big = max(mu1, mu2)
        # single-power upper bound for f <= F0 (used by (Q2))
        C2_decl = (C1 * F0 ** (1.0 / mu1 - 1.0 / mu_big)
                   + C2 * F0 ** (1.0 / mu2 - 1.0 / mu_big))
        e = 1.0 / min(mu1, mu2) - 1.0
        return CasimirModel(
            kind="double_power", F0=F0,
            mu1=mu1, mu2=mu2, mu3=min(mu1, mu2),
            C1=C1, C2=C2_decl, C3=0.5 ** e, C4=2.0 ** e,
            terms=((C1, mu1), (C2, mu2)),
        )

    @staticmethod
    def custom(f_table, Q_table, F0: float, mu1: float, mu2: float,
               mu3: float) -> "CasimirModel":
        """Tabulated Q on an increasing f grid.

        C1 and C2 are the tightest values the table itself supports
        (calibrated so (Q1) and (Q2) hold with equality at the worst
        tabulated point); C3 and C4 are 1/2 and 2.
        """
        f = np.asarray(f_table, dtype=float)
        Q = np.asarray(Q_table, dtype=float)
        if f.ndim != 1 or f.shape != Q.shape or f.size < 4:
            raise ModelDefinitionError("custom: need matching 1-d tables with >= 4 points")
        if np.any(np.diff(f) <= 0):
            raise ModelDefinitionError("custom: f table must be strictly increasing")
        if f[0] != 0.0:
            f = np.concatenate([[0.0], f])
            Q = np.concatenate([[0.0], Q])
        # imported here: scipy.interpolate takes most of the package's import time
        from scipy.interpolate import PchipInterpolator
        interp = PchipInterpolator(f, Q)
        derivs = (interp, interp.derivative(1), interp.derivative(2))
        # (Q4) needs a monotone Q'; a concave-then-convex table breaks it
        fs = np.linspace(f[0], f[-1], 4 * f.size)
        qp = derivs[1](fs)
        if np.any(np.diff(qp) < -1e-12 * max(1.0, np.max(np.abs(qp)))):
            raise ModelDefinitionError(
                "custom: tabulated Q has non-monotone Q', violating the "
                "convexity assumption (Q4)")
        hi = f[f >= F0]
        C1 = (float(np.min(interp(hi) / hi ** (1.0 + 1.0 / mu1)))
              if hi.size else 1.0)
        lo = f[(f > 0.0) & (f <= F0)]
        C2 = (float(np.max(interp(lo) / lo ** (1.0 + 1.0 / mu2)))
              if lo.size else 1.0)
        return CasimirModel(
            kind="custom", F0=F0, mu1=mu1, mu2=mu2, mu3=mu3, C1=C1, C2=C2,
            f_table=f, Q_table=Q, _derivs=derivs,
        )

    # -- evaluation --------------------------------------------------------

    def Q(self, f):
        return self._derivative(f, 0)

    def Qp(self, f):
        return self._derivative(f, 1)

    def Qpp(self, f):
        return self._derivative(f, 2)

    def _derivative(self, f, k):
        """k-th derivative of Q: sum of coef*p*(p-1)*f^(p-k), p = 1 + 1/mu."""
        f = np.asarray(f, dtype=float)
        if not self.terms:
            return self._derivs[k](np.clip(f, 0.0, self.f_table[-1]))
        return _power_sum(f, self._derivative_terms(k))

    def _derivative_terms(self, k):
        """The k-th derivative of Q as ((coef*p*(p-1)*..., p - k), ...)."""
        out = []
        for coef, mu in self.terms:
            p = 1.0 + 1.0 / mu
            for j in range(k):
                coef = coef * (p - j)
            out.append((coef, p - k))
        return out

    def inverse(self) -> "InverseQ":
        return InverseQ(self)


class InverseQ:
    """The inverse q of Q', extended by q = 0 on negative arguments.

    The constructor resolves the model's kind once into ``_q``, ``_G`` and
    ``_G2``, functions of positive arrays: closed forms for one power term
    (a polytrope); for a sum of powers Newton's method from above (below
    the smallest normal float, the lowest power's closed form), for a
    table the exact root of its quadratic Q' piece, and for both G from
    the Legendre identity and G2, GQ_scaled from a 64-point rule.  Each
    public method checks its argument once.
    """

    REL_TOL = 1e-12

    def __init__(self, model: CasimirModel):
        self.model = model
        if len(model.terms) == 1:
            # q(eps) = kappa*eps^mu, kappa = (mu / (c*(mu+1)))^mu
            c, mu = model.terms[0]
            kappa = (mu / (c * (mu + 1.0))) ** mu
            self._q = lambda eps: kappa * np.power(eps, mu)
            self._G = lambda s: kappa * np.power(s, mu + 1.0) / (mu + 1.0)
            self._G2 = lambda s: (kappa * np.power(s, mu + 2.0)
                                  / ((mu + 1.0) * (mu + 2.0)))
            return
        if model.terms:
            # Newton's Q' and Q'' terms, formed once rather than per call
            self._qp_terms = model._derivative_terms(1)
            self._qpp_terms = model._derivative_terms(2)
            # the term of largest mu has the lowest power of f in Q', so it
            # dominates near f = 0
            self._mu_low = max(mu for _, mu in model.terms)
            self._q = self._q_newton
        else:
            # Q' is a*t^2 + b*t + c, t = f - x[i], on each [x[i], x[i+1]]; its
            # knot values, lifted over the 1e-12 dips custom allows, locate eps
            qp = model._derivs[1]
            self._knots, self._coefs = qp.x, qp.c
            self._qp_knots = np.maximum.accumulate(model.Qp(qp.x))
            self._q = self._q_table
        # G(s) = s*q(s) - (Q(q(s)) - Q(0)), the convex conjugate of Q, is
        # stationary in q(s): q's solver tolerance enters only squared
        Q0 = model.Q(0.0)

        def G(s):
            f = self._q(s)
            return s * f - (model.Q(f) - Q0)

        self._G = G
        self._G2 = lambda s: _substituted_quadrature(s, self._G)

    # -- q -----------------------------------------------------------------

    def _positive(self, name, s, fn):
        """fn on the entries s > 0 and 0 elsewhere; a float for a scalar s.

        Raises InputError, naming the method, on a non-finite s.
        """
        sv = np.atleast_1d(np.asarray(s, dtype=float))
        if not np.isfinite(sv).all():
            raise InputError(f"{name}: non-finite argument")
        out = np.zeros_like(sv)
        pos = sv > 0.0
        if pos.any():
            out[pos] = fn(sv[pos])
        return float(out[0]) if np.ndim(s) == 0 else out

    def q(self, eps):
        """Phase-space density q(eps); exactly 0 for eps <= 0."""
        return self._positive("q", eps, self._q)

    def _q_newton(self, eps):
        m = self.model
        sub = eps < _TINY
        if sub.any():
            # below the smallest normal float Q'(f) - eps has lost its digits
            # and Newton cannot meet its tolerance; there the lowest power's
            # closed form, scaled to meet Newton's q at _TINY, is the answer
            f = np.empty_like(eps)
            f[~sub] = self._q_newton(eps[~sub])
            f[sub] = (self._q_newton(np.array([_TINY]))
                      * (eps[sub] / _TINY) ** self._mu_low)
            return f
        # upper bracket: the smallest f solving one term alone
        f = functools.reduce(np.minimum, [(eps / (coef * (1.0 + 1.0 / mu))) ** mu
                                          for coef, mu in m.terms])
        # Q' is convex increasing, Newton from above converges monotonically
        qp, qpp = self._qp_terms, self._qpp_terms
        for _ in range(80):
            df = (_power_sum(f, qp) - eps) / _power_sum(f, qpp)
            f_new = np.maximum(f - df, 0.5 * f)
            done = np.abs(f_new - f) <= self.REL_TOL * np.maximum(f_new, 1e-300)
            f = f_new
            if done.all():
                return f
        bad = float(np.max(eps[~done]))
        raise ConvergenceError(f"q: Newton did not converge for eps={bad:.6g}")

    def _q_table(self, eps):
        top = self._qp_knots[-1]
        if np.any(eps > top * (1.0 + 1e-12)):
            raise ConvergenceError(
                f"q: bracket exhausted for eps={float(np.max(eps)):.6g} "
                f"(table covers Q' up to {top:.6g})")
        x = self._knots
        i = np.clip(np.searchsorted(self._qp_knots, eps, side="right") - 1,
                    0, x.size - 2)
        a, b, c = self._coefs[:, i]
        d = c - eps
        # the root of a*t^2 + b*t + d nearest 0 without cancellation (the
        # discriminant is Q''(root)^2 >= 0 up to rounding); fmax maps 0/0
        # (eps at a knot where b = 0) to 0, and fmin caps t at the width
        with np.errstate(all="ignore"):
            t = -2.0 * d / (b + np.sqrt(np.maximum(b * b - 4.0 * a * d, 0.0)))
        return x[i] + np.fmin(np.fmax(t, 0.0), x[i + 1] - x[i])

    # -- antiderivatives ---------------------------------------------------

    def G(self, s):
        """G(s) = int_0^s q(t) dt; 0 for s <= 0."""
        return self._positive("G", s, self._G)

    def G2(self, s):
        """G2(s) = int_0^s G(u) du = int_0^s (s-t) q(t) dt; 0 for s <= 0."""
        return self._positive("G2", s, self._G2)

    def GQ_scaled(self, s, amp):
        """int_0^s Q(amp * q(t)) dt by quadrature (used for rescaled states)."""
        return self._positive("GQ_scaled", s, lambda sp: _substituted_quadrature(
            sp, lambda t: self.model.Q(amp * self._q(t))))


@dataclass
class ValidationReport:
    """Per-assumption pass/fail with the worst margin found."""

    checks: dict
    all_passed: bool

    def failed(self):
        return [name for name, c in self.checks.items() if not c["passed"]]


def validate_assumptions(model: CasimirModel, f_grid) -> ValidationReport:
    """Numerically check (Q1)-(Q5) on a sample grid of phase-space densities.

    The grid must have at least 100 points and extend beyond F0.  Inequalities
    are checked with a small relative slack so that equality cases (the
    polytrope meets (Q1) with equality) pass.
    """
    f = np.asarray(f_grid, dtype=float)
    if f.size < 100:
        raise InputError("validate_assumptions: need >= 100 sample densities")
    if np.max(f) <= model.F0:
        raise InputError("validate_assumptions: grid must extend beyond F0")
    f = np.sort(f[f >= 0.0])
    checks = {}

    def _ineq(lhs, rhs):
        # lhs >= rhs with relative slack
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        margin = lhs - rhs + _REL_SLACK * (scale + 1e-300)
        return float(np.min(margin)), bool(np.all(margin >= 0.0))

    # (Q1) growth above F0
    f1 = f[f >= model.F0]
    m1, ok1 = _ineq(model.Q(f1), model.C1 * f1 ** (1.0 + 1.0 / model.mu1))
    checks["Q1"] = {"passed": ok1, "worst_margin": m1}

    # (Q2) bound below F0
    f2 = f[(f > 0.0) & (f <= model.F0)]
    m2, ok2 = _ineq(model.C2 * f2 ** (1.0 + 1.0 / model.mu2), model.Q(f2))
    checks["Q2"] = {"passed": ok2, "worst_margin": m2}

    # (Q3) scaling lower bound on a lambda grid in [0, 1]
    lam = np.linspace(0.0, 1.0, 41)
    fs = f[f > 0.0]
    if fs.size > 200:
        fs = fs[:: max(1, fs.size // 200)]
    Qf = model.Q(fs)
    lhs = model.Q(lam[:, None] * fs[None, :])
    rhs = (lam[:, None] ** (1.0 + 1.0 / model.mu3)) * Qf[None, :]
    m3, ok3 = _ineq(lhs, rhs)
    checks["Q3"] = {"passed": ok3, "worst_margin": m3}

    # (Q4) strict convexity and Q'(0) = 0
    qpp = model.Qpp(fs)
    qp0 = float(model.Qp(0.0))
    ok4 = bool(np.all(qpp > 0.0)) and abs(qp0) <= 1e-10 * max(1.0, float(model.Qp(np.max(fs))))
    checks["Q4"] = {"passed": ok4, "worst_margin": float(np.min(qpp)), "Qp0": qp0}

    # (Q5) Q'' comparability for lambda near 1 (declared neighborhood [0.5, 2])
    lam5 = np.geomspace(0.5, 2.0, 17)
    f5 = fs
    if model.kind == "custom":
        # keep lambda*f inside the tabulated range
        f5 = fs[lam5[-1] * fs <= model.f_table[-1]]
    qpp_f = model.Qpp(f5)
    qpp_l = model.Qpp(lam5[:, None] * f5[None, :])
    mlo, oklo = _ineq(qpp_l, model.C3 * qpp_f[None, :])
    mhi, okhi = _ineq(model.C4 * qpp_f[None, :], qpp_l)
    checks["Q5"] = {"passed": bool(oklo and okhi), "worst_margin": min(mlo, mhi)}

    return ValidationReport(checks=checks, all_passed=all(c["passed"] for c in checks.values()))
