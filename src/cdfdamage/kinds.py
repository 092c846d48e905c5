"""One table of CDF kinds: each damage law and its distribution, defined once.

Every kind is stored through the damage law it generates, in the
standardized energy u = phi/(G/ell): Phi(u) = psi/(G/ell) and its
derivative g(u), the degradation factor. A scale c(p) maps the argument x
of the distribution with parameter p onto u = x/c. For every kind but
power,

    F(x) = Phi(x/c),    f(x) = g(x/c)/c,

with F and f the half-line CDF and density: c = 1/f(0), except c = 2 for
chi-square. The power kind is built from its survival integral instead,
Phi(u) = S(c u)/c and g(u) = 1 - F(c u) with c = n/(n+1), so it keeps its
own F and f. The two full-line kinds (Cauchy, logistic) keep their
full-line CDF and density besides; their half-line F, the full-line CDF
restricted to x >= 0 and renormalized, is the closed form Phi(x/c).

Closed forms live in the same standardized variable, where they exist:
the survival integral Sigma(v) = integral_0^v (1 - Phi(w)) dw, so that
S(y) = integral_0^y (1 - F(s)) ds = c Sigma(y/c); the raw moments of F;
the state u* at the peak of the 1D effective stress; and the kink of g.
All functions are vectorized over u (or x) with numpy and scipy.special.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize
from scipy import special as sp


def _sech(x):
    # overflow-safe array sech
    ax = np.abs(x)
    e = np.exp(-np.minimum(ax, 710.0))
    return 2.0 * e / (1.0 + e * e)


def hypergeometric_norm(n: float) -> float:
    """Total integral of sech^n over [0, inf): B(n/2, 1/2)/2."""
    return float(0.5 * sp.beta(0.5 * n, 0.5))


def _sech_power_cdf(x, n):
    # integral_0^x sech^n / norm = I(tanh^2 x; 1/2, n/2); from x = 1 on, the
    # complement I(sech^2 x; n/2, 1/2) keeps the tail that tanh^2 -> 1 rounds away
    near = sp.betainc(0.5, 0.5 * n, np.tanh(np.minimum(x, 1.0)) ** 2)
    far = 1.0 - sp.betainc(0.5 * n, 0.5, _sech(np.maximum(x, 1.0)) ** 2)
    return np.minimum(np.where(x < 1.0, near, far), 1.0)


def _one(p):
    return 1.0


@dataclass
class Kind:
    """One CDF kind. Phi, g and survival take (u, n); F, f and the
    full-line pair take (x, p); moment takes (m, p)."""

    Phi: Callable
    g: Callable
    scale: Callable = _one             # c(p)
    shape: bool = False                # the law takes a shape parameter n (= p)
    scaled: bool = False               # the distribution takes a rate/scale p only
    shape_range: tuple | None = None   # admitted closed interval of n
    F: Callable | None = None          # half-line CDF, when it is not Phi(x/c)
    f: Callable | None = None          # half-line density, when it is not g(x/c)/c
    full_cdf: Callable | None = None   # full-line kinds: CDF on the whole line
    full_pdf: Callable | None = None
    survival: Callable | None = None   # Sigma(v), closed form
    moment: Callable | None = None     # closed-form raw moment of F
    moment_condition: tuple | None = None  # (text, finite(m, p)) when some moments diverge
    peak_u: Callable | None = None     # u* at the 1D stress peak, closed form
    kink: Callable | None = None       # u at which g has a kink

    def __post_init__(self):
        Phi, g, scale = self.Phi, self.g, self.scale
        if self.F is None:
            self.F = lambda x, p: Phi(x / scale(p), p)
        if self.f is None:
            self.f = lambda x, p: g(x / scale(p), p) / scale(p)

    @property
    def full_line(self) -> bool:
        return self.full_cdf is not None


# ---------------------------------------------------------------------------
# per-kind formulas that do not fit on one line
# ---------------------------------------------------------------------------

def _cauchy_survival(v, n):
    # 1 - (2/pi) atan(t) = (2/pi) atan(1/t): no cancellation in the tail
    t = 0.5 * np.pi * v
    return (2.0 / np.pi) * v * np.arctan2(1.0, t) + (2.0 / np.pi**2) * np.log1p(t * t)


def _chisquare_g(u, n):
    with np.errstate(divide="ignore"):
        w = np.asarray(u, dtype=float)
        return np.where(
            w > 0.0,
            np.power(np.maximum(w, 1e-300), 0.5 * n - 1.0) * np.exp(-w) / math.gamma(0.5 * n),
            1.0 if n == 2.0 else (np.inf if n < 2.0 else 0.0),
        )


def _piecewise_knee(n):
    return 1.0 / (n + 1.0)


def _piecewise_Phi(u, n):
    knee = _piecewise_knee(n)
    w = np.maximum(u, knee)
    return np.where(u <= knee, u, 1.0 - (n / (n + 1.0)) * ((n + 1.0) * w) ** (-1.0 / n))


def _piecewise_g(u, n):
    knee = _piecewise_knee(n)
    w = np.maximum(u, knee)
    return np.where(u <= knee, 1.0, ((n + 1.0) * w) ** (-(n + 1.0) / n))


def _piecewise_survival(v, n):
    knee = _piecewise_knee(n)
    w = np.maximum(v, knee)
    # (x^a - 1)/a, with its log limit at n = 1, is scipy's boxcox
    tail = knee - 0.5 * knee * knee + n / (n + 1.0) ** 2 * sp.boxcox((n + 1.0) * w, 1.0 - 1.0 / n)
    return np.where(v <= knee, v - 0.5 * v * v, tail)


def _rapiddecay_Phi(u, n):
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(u <= 1e-12, u, u * (-np.expm1(-1.0 / np.maximum(u, 1e-300))))


def _rapiddecay_g(u, n):
    with np.errstate(divide="ignore", over="ignore"):
        w = np.maximum(u, 1e-300)
        return np.where(u <= 1e-12, 1.0, -np.expm1(-1.0 / w) - np.exp(-1.0 / w) / w)


def _power_cap(n):
    return (n + 1.0) / n


def _power_Phi(u, n):
    cap = _power_cap(n)
    w = np.minimum(u, cap)
    return np.where(u <= cap, w * (1.0 - (n * w / (n + 1.0)) ** n / (n + 1.0)), 1.0)


def _power_f(x, p):
    with np.errstate(divide="ignore"):
        return np.where(x >= 1.0, 0.0, p * np.power(x, p - 1.0))


def _gudermannian_moment(m, p):
    # zeta-difference form rescaled by (2/pi)^(m+1) so it matches the
    # density sech(pi x/2) rather than the unscaled sech kernel
    z = sp.zeta(m + 1.0, 0.25) - sp.zeta(m + 1.0, 0.75)
    return float((2.0 / math.pi) ** (m + 1.0) * math.gamma(m + 1.0) * 2.0 ** (-2.0 * m - 1.0) * z)


def _rapiddecay_moment(m, p):
    # Gamma at negative non-integer argument via reflection
    return m * math.pi / (math.sin(math.pi * (-1.0 - m)) * math.gamma(2.0 + m))


# Dimensionless peak states u* of the 1D effective stress, from
# g(u) + 2u g'(u) = 0. The logistic and Gudermannian roots are transcendental
# (4u tanh u = 1 and 2v tanh v = 1 with u = 2v/pi).
_U_LOGISTIC = optimize.brentq(lambda u: 4.0 * u * math.tanh(u) - 1.0, 0.1, 1.0, xtol=1e-300)
_V_GUDERMANNIAN = optimize.brentq(lambda v: 2.0 * v * math.tanh(v) - 1.0, 0.1, 2.0, xtol=1e-300)

_ALWAYS = ("m > -1", lambda m, p: True)
_BELOW_ONE = ("m < 1", lambda m, p: m < 1.0)
_MN_BELOW_ONE = ("m*n < 1", lambda m, p: m * p < 1.0)

TABLE = {
    "power": Kind(
        Phi=_power_Phi,
        g=lambda u, n: np.maximum(0.0, 1.0 - (n * u / (n + 1.0)) ** n),
        scale=lambda p: p / (p + 1.0),
        shape=True,
        F=lambda x, p: np.minimum(x**p, 1.0),
        f=_power_f,
        survival=_power_Phi,  # Phi(u) = S(c u)/c is Sigma itself
        kink=_power_cap,
    ),
    "exponential": Kind(
        Phi=lambda u, n: -np.expm1(-u),
        g=lambda u, n: np.exp(-u),
        scale=lambda p: 1.0 / p,
        scaled=True,
        survival=lambda v, n: -np.expm1(-v),
        peak_u=lambda n: 0.5,
    ),
    "cauchy": Kind(
        Phi=lambda u, n: (2.0 / np.pi) * np.arctan(0.5 * np.pi * u),
        g=lambda u, n: 1.0 / (1.0 + (0.5 * np.pi * u) ** 2),
        scale=lambda p: 0.5 * np.pi * p,
        scaled=True,
        full_cdf=lambda x, p: 0.5 + np.arctan(x / p) / np.pi,
        full_pdf=lambda x, p: p / (np.pi * (x * x + p * p)),
        survival=_cauchy_survival,
        moment_condition=_BELOW_ONE,
        peak_u=lambda n: 2.0 / (math.sqrt(3.0) * math.pi),
    ),
    "radical": Kind(
        Phi=lambda u, n: u / (1.0 + u ** (1.0 / n)) ** n,
        g=lambda u, n: (1.0 + u ** (1.0 / n)) ** (-(n + 1.0)),
        shape=True,
        moment=lambda m, p: math.gamma(1.0 - m * p) * math.gamma(p + m * p) / math.gamma(p),
        moment_condition=_MN_BELOW_ONE,
        peak_u=lambda n: (n / (n + 2.0)) ** n,
    ),
    "chisquare": Kind(
        Phi=lambda u, n: sp.gammainc(0.5 * n, u),
        g=_chisquare_g,
        scale=lambda p: 2.0,
        shape=True,
        survival=lambda v, n: v * sp.gammaincc(0.5 * n, v) + 0.5 * n * sp.gammainc(0.5 * n + 1.0, v),
    ),
    "logistic": Kind(
        Phi=lambda u, n: np.tanh(u),
        g=lambda u, n: _sech(u) ** 2,
        scale=lambda p: 2.0,
        full_cdf=lambda x, p: sp.expit(x),
        # doubled slope 2 e^x/(1+e^x)^2: a proper density on the half line only
        full_pdf=lambda x, p: 0.5 * _sech(0.5 * x) ** 2,
        # v - ln cosh v = ln 2 - ln(1 + e^{-2v})
        survival=lambda v, n: -np.log1p(0.5 * np.expm1(-2.0 * v)),
        peak_u=lambda n: _U_LOGISTIC,
    ),
    "halfnormal": Kind(
        Phi=lambda u, n: sp.erf(0.5 * math.sqrt(math.pi) * u),
        g=lambda u, n: np.exp(-0.25 * np.pi * u * u),
        scale=lambda p: 0.5 * math.sqrt(math.pi),
        survival=lambda v, n: (v * sp.erfc(0.5 * math.sqrt(math.pi) * v)
                               - (2.0 / np.pi) * np.expm1(-0.25 * np.pi * v * v)),
        moment=lambda m, p: math.gamma(0.5 * (m + 1.0)) / math.sqrt(math.pi),
        moment_condition=_ALWAYS,
        peak_u=lambda n: 1.0 / math.sqrt(math.pi),
    ),
    "gudermannian": Kind(
        Phi=lambda u, n: (4.0 / np.pi) * np.arctan(np.tanh(0.25 * np.pi * u)),
        g=lambda u, n: _sech(0.5 * np.pi * u),
        moment=_gudermannian_moment,
        moment_condition=_ALWAYS,
        peak_u=lambda n: 2.0 * _V_GUDERMANNIAN / math.pi,
    ),
    "hypergeometric": Kind(
        Phi=lambda u, n: _sech_power_cdf(hypergeometric_norm(n) * u, n),
        g=lambda u, n: _sech(hypergeometric_norm(n) * u) ** n,
        scale=hypergeometric_norm,
        shape=True,
    ),
    "piecewise": Kind(
        Phi=_piecewise_Phi,
        g=_piecewise_g,
        shape=True,
        survival=_piecewise_survival,
        moment=lambda m, p: (p + 1.0) ** (-m) / ((m + 1.0) * (1.0 - m * p)),
        moment_condition=_MN_BELOW_ONE,
        peak_u=_piecewise_knee,
        kink=_piecewise_knee,
    ),
    "rational": Kind(
        Phi=lambda u, n: u * (u + n * n) / (u + n) ** 2,
        g=lambda u, n: ((2.0 * n - n * n) * u + n**3) / (u + n) ** 3,
        shape=True,
        shape_range=(0.5, 2.0),
        survival=lambda v, n: n * (2.0 - n) * np.log1p(v / n) + n * (n - 1.0) * v / (v + n),
        moment=lambda m, p: math.pi * m * p**m * (1.0 + m - m * p) / math.sin(math.pi * m),
        moment_condition=_BELOW_ONE,
    ),
    "rapiddecay": Kind(
        Phi=_rapiddecay_Phi,
        g=_rapiddecay_g,
        moment=_rapiddecay_moment,
        moment_condition=("0 < m < 1", lambda m, p: m < 1.0),
    ),
}
