"""Casimir functions Q, their inverse derivative q, and assumption checks.

A Casimir model supplies the convex function Q(f) defining the Casimir
functional, together with the declared structural constants (mu1, mu2, mu3,
C1..C4, F0) that the growth/scaling assumptions (Q1)-(Q5) refer to.  The
inverse q of Q' is what shapes the steady state, f0 = q(E0 - E), and its
antiderivative G(s) = int_0^s q gives the planar density through
rho0(r) = 2*pi*G(E0 - U0(r)).  G is the convex conjugate of Q,
G(s) = s*q(s) - (Q(q(s)) - Q(0)): closed form for a polytrope, one q
evaluation per argument for a sum of powers or a table.  Its antiderivative
G2, which gives f0's kinetic energy and Casimir, is closed form for a
polytrope, one q evaluation per argument for a sum of powers, and the
64-point velocity rule applied to G for a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InputError, ModelDefinitionError, ConvergenceError
from .grids import _PiecewisePoly

__all__ = [
    "CasimirModel",
    "InverseQ",
    "ValidationReport",
    "validate_assumptions",
]

_REL_SLACK = 1e-9  # validation slack for floating-point equality cases

# the package's one velocity-space rule: 64-point Gauss-Legendre on [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_U = 0.5 * (_GL_NODES + 1.0)   # nodes on [0, 1]
_GL_W = 0.5 * _GL_WEIGHTS


def _substituted_quadrature(s, g):
    """int_0^s g(t) dt for each s > 0 by the 64-point rule in t = s*u^2,
    which flattens the t^mu endpoint behaviour of q; g maps the
    (len(s), 64) array of points t to values, or to a stack of such arrays
    along leading axes, each integrated."""
    t = s[:, None] * (_GL_U ** 2)[None, :]
    return 2.0 * s * np.sum(_GL_W * _GL_U * g(t), axis=-1)


def _velocity_moments(model, s, f) -> np.ndarray:
    """(rho, e_kin, casimir) per node of the array s: 2*pi*int f dw,
    2*pi*int w*f dw and 2*pi*int Q(f) dw for an isotropic density f(w),
    w = |v|^2/2, supported on w in [0, s_i]; all three are 0 where s_i <= 0.

    f maps the (k, 64) array of t = s_i - w over the k nodes with s_i > 0,
    in order, the points of ``_substituted_quadrature``, to the density
    there; it is evaluated once per node and point.
    """
    out = np.zeros((3, s.size))
    pos = s > 0.0
    sp = s[pos]

    def g(t):
        ft = f(t)
        return np.stack([ft, (sp[:, None] - t) * ft, model.Q(ft)])

    out[:, pos] = 2.0 * np.pi * _substituted_quadrature(sp, g)
    return out


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

    def __post_init__(self):
        # (Q1) and (Q2) split f at F0; a power of a negative F0 is complex
        if not 0.0 < self.F0 < np.inf:
            raise ModelDefinitionError(
                f"F0 must be finite and positive (got {self.F0!r})")

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
        if not 0.0 < c < np.inf:
            raise ModelDefinitionError(
                f"polytrope: coefficient must be finite and positive (got {c!r})")
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
        if not (0.0 < C1 < np.inf and 0.0 < C2 < np.inf):
            raise ModelDefinitionError(
                "double_power: coefficients must be finite and positive "
                f"(got {C1!r}, {C2!r})")
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
        # the solver takes A(R)'s log-log slope from the declared exponents
        for m in (mu1, mu2):
            if not (0.0 < m < 1.0):
                raise ModelDefinitionError("custom: exponents must lie in (0,1)")
        f = np.asarray(f_table, dtype=float)
        Q = np.asarray(Q_table, dtype=float)
        if f.ndim != 1 or f.shape != Q.shape or f.size < 4:
            raise ModelDefinitionError("custom: need matching 1-d tables with >= 4 points")
        if not (np.isfinite(f).all() and np.isfinite(Q).all()):
            raise ModelDefinitionError("custom: table entries must be finite")
        if np.any(np.diff(f) <= 0):
            raise ModelDefinitionError("custom: f table must be strictly increasing")
        if f[0] != 0.0:
            f = np.concatenate([[0.0], f])
            Q = np.concatenate([[0.0], Q])
        interp = _PiecewisePoly.pchip(f, Q)
        derivs = (interp, interp.derivative(1), interp.derivative(2))
        # (Q4) needs a monotone Q'; a concave-then-convex table breaks it
        fs = np.linspace(f[0], f[-1], 4 * f.size)
        qp = derivs[1](fs)
        if np.any(np.diff(qp) < -1e-12 * max(1.0, np.max(np.abs(qp)))):
            raise ModelDefinitionError(
                "custom: tabulated Q has non-monotone Q', violating the "
                "convexity assumption (Q4)")
        # without f = 0, as in lo: an F0 <= 0 would divide 0 by 0 first
        hi = f[(f > 0.0) & (f >= F0)]
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
    (a polytrope); for a sum of powers Newton's method from above in
    log f, on log Q'(f) = log eps, and G2 in closed form from that one q
    (``_G2_power_sum``); for a table the exact root of its quadratic Q'
    piece and G2 from ``_substituted_quadrature``; for both G from the
    Legendre identity.  Each public method checks its argument once.
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
            # Q'(f) = sum a_i*f^e_i; term i alone solves Q'(f) = eps at
            # log f = (log eps - log a_i)/e_i: per-term columns, formed once
            a, e = np.array(model._derivative_terms(1)).T
            self._a, self._e = a[:, None], e[:, None]
            self._log_a = np.log(self._a)
            # G2's closed form: 1/(e_i + 1), and 1/(2*(e_i + e_j + 1)) along
            # axes 0 and 1 of a (terms, terms, 1) array
            self._lin = 1.0 / (self._e + 1.0)
            self._quad = 0.5 / (self._e[:, None] + self._e + 1.0)
            self._q = self._q_newton
            self._G2 = self._G2_power_sum
        else:
            # Q' is a*t^2 + b*t + c, t = f - x[i], on each [x[i], x[i+1]]; its
            # knot values, lifted over the 1e-12 dips custom allows, locate eps
            qp = model._derivs[1]
            self._knots, self._coefs = qp.x, qp.c
            self._qp_knots = np.maximum.accumulate(model.Qp(qp.x))
            self._q = self._q_table
            self._G2 = lambda s: _substituted_quadrature(s, self._G)
        # G(s) = s*q(s) - (Q(q(s)) - Q(0)), the convex conjugate of Q, is
        # stationary in q(s): q's solver tolerance enters only squared
        Q0 = model.Q(0.0)

        def G(s):
            f = self._q(s)
            return s * f - (model.Q(f) - Q0)

        self._G = G

    # -- q -----------------------------------------------------------------

    def _positive(self, name, s, fn):
        """fn on the entries s > 0 and 0 elsewhere; a float for a scalar s.

        Raises InputError, naming the method, on a non-finite s.
        """
        sv = np.atleast_1d(np.asarray(s, dtype=float))
        if not np.isfinite(sv).all():
            raise InputError(f"{name}: non-finite argument")
        out = np.zeros(sv.shape)
        pos = sv > 0.0
        if pos.any():
            out[pos] = fn(sv[pos])
        return float(out[0]) if np.ndim(s) == 0 else out

    def q(self, eps):
        """Phase-space density q(eps); exactly 0 for eps <= 0."""
        return self._positive("q", eps, self._q)

    def _q_newton(self, eps):
        """Newton from above on h(d) = log(Q'(f)/eps), d = log f - top.

        top, the log of the smallest single-term root, bounds log q above;
        term i of Q'(f)/eps is exp(e_i*d + log_r_i), log_r_i <= 0, so h is
        a log-sum-exp, convex and increasing, and no term under- or
        overflows.  An entry stops at its first step below REL_TOL, and
        every exp and log acts on a whole array, so its bits are its own.
        """
        x = eps.ravel()
        # every caller passes eps > 0 (``_positive`` drops the rest), so
        # log eps is finite down to the smallest subnormal
        top_i = (np.log(x) - self._log_a) / self._e
        top = top_i.min(axis=0)
        log_r = self._e * (top - top_i)
        d, done = np.zeros(top.shape), np.zeros(top.shape, dtype=bool)
        for _ in range(80):
            w = np.exp(self._e * d + log_r)  # the terms of Q'(f)/eps
            s = w.sum(axis=0)
            step = np.log(s) * s / (self._e * w).sum(axis=0)
            step[done] = 0.0
            d -= step
            # steps are >= 0 up to rounding: the descent starts above the root
            done |= step <= self.REL_TOL
            if done.all():
                return np.exp(top + d).reshape(eps.shape)
        bad = float(np.max(x[~done]))
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

    def _G2_power_sum(self, s):
        """G2 of a sum of powers from one q solve, F = q(s).

        With Q'(f) = sum a_i*f^e_i, integration by parts in f gives
        G2 = s*G - s^2*F/2 + sum_ij a_i*a_j*F^(e_i+e_j+1)/(2*(e_i+e_j+1)),
        that is s^2*F*B with B = 1/2 - sum_i r_i/(e_i+1)
        + sum_ij r_i*r_j/(2*(e_i+e_j+1)) and r_i = a_i*F^e_i/s, the terms of
        Q'(F)/s, which sum to 1.  Like G it is stationary in F, so q's
        tolerance enters only squared.  Each F^e_i is at most s/a_i up to
        that tolerance, and the product is formed as s*(s*(F*B)), so nothing
        overflows before G2 itself.
        """
        F = self._q(s)
        r = np.power(F, self._e) / s * self._a
        # elementwise sums, not a matrix product: a node's bits are its own
        B = (0.5 - (self._lin * r).sum(axis=0)
             + (r * (self._quad * r).sum(axis=1)).sum(axis=0))
        return s * (s * (F * B))

    def G(self, s):
        """G(s) = int_0^s q(t) dt; 0 for s <= 0."""
        return self._positive("G", s, self._G)

    def G2(self, s):
        """G2(s) = int_0^s G(u) du = int_0^s (s-t) q(t) dt; 0 for s <= 0."""
        return self._positive("G2", s, self._G2)


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
