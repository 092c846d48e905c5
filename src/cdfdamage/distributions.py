"""Probability distributions whose CDFs generate the damage laws.

Eleven half-line (or half-line-interpreted) laws plus the degenerate
power CDF, all read from the kind table in ``kinds``. Each kind provides
cdf/pdf, closed-form moments where they exist, a quadrature moment
oracle, and the survival integral S(y) = integral_0^y (1 - F(s)) ds used
by the energetic bar module. The two full-line kinds (Cauchy, logistic)
enter the damage construction through their half-line CDF, the CDF
restricted to x >= 0 and renormalized; moments and survival integrals use
that half-line CDF for every kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import ConfigurationError, DivergenceError, DomainError, NoClosedFormError
from .kinds import TABLE, hypergeometric_norm  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class DistributionSpec:
    """One named probability law plus its positive shape/rate parameter."""

    kind: str
    param: float | None = None

    def __post_init__(self):
        entry = TABLE.get(self.kind)
        if entry is None:
            raise ConfigurationError(f"unknown distribution kind '{self.kind}'")
        if not (entry.shape or entry.scaled):
            if self.param is not None:
                raise ConfigurationError(f"kind '{self.kind}' takes no parameter")
            return
        if self.param is None:
            raise ConfigurationError(f"kind '{self.kind}' requires a parameter")
        if not (self.param > 0.0 and math.isfinite(self.param)):
            raise ConfigurationError(
                f"parameter of '{self.kind}' must be positive and finite, got {self.param}"
            )
        if entry.shape_range and not (entry.shape_range[0] <= self.param <= entry.shape_range[1]):
            raise ConfigurationError(
                f"{self.kind} shape must lie in [{entry.shape_range[0]:g}, "
                f"{entry.shape_range[1]:g}], got {self.param}"
            )


@dataclass(frozen=True)
class MomentResult:
    """Closed-form moment value together with its convergence condition."""

    value: float
    convergent: bool
    condition: str


def _like(x, out):
    """A Python float for scalar input, otherwise the array."""
    return float(out) if np.isscalar(x) else out


def _halfline(fn, dist: DistributionSpec, x):
    # fn on the half line, 0 for x < 0
    xs = np.asarray(x, dtype=float)
    return np.where(xs < 0.0, 0.0, fn(np.maximum(xs, 0.0), dist.param))


def cdf(dist: DistributionSpec, x):
    """Cumulative distribution function; vectorized over x."""
    entry = TABLE[dist.kind]
    if entry.full_line:
        return _like(x, entry.full_cdf(np.asarray(x, dtype=float), dist.param))
    return _like(x, _halfline(entry.F, dist, x))


def pdf(dist: DistributionSpec, x):
    """Probability density; vectorized over x."""
    entry = TABLE[dist.kind]
    if entry.full_line:
        return _like(x, entry.full_pdf(np.asarray(x, dtype=float), dist.param))
    return _like(x, _halfline(entry.f, dist, x))


def cdf_halfline(dist: DistributionSpec, x):
    """CDF restricted to x >= 0 and renormalized, for the two full-line kinds.

    Half-line kinds are returned unchanged. This is the transform the
    damage construction consumes; for the logistic kind its derivative
    is the doubled logistic density.
    """
    return _like(x, _halfline(TABLE[dist.kind].F, dist, x))


def moment_closed(dist: DistributionSpec, m: float) -> MomentResult:
    """Closed-form m-th raw moment with its convergence condition.

    Kinds without a closed form raise NoClosedFormError; divergent
    (kind, m) pairs return convergent=False.
    """
    if m < 0.0:
        raise DomainError(f"moment order must be >= 0, got {m}")
    entry = TABLE[dist.kind]
    if entry.moment is None:
        raise NoClosedFormError(f"no closed-form moment for kind '{dist.kind}'")
    if m == 0.0:
        return MomentResult(1.0, True, "total mass")
    text, finite = entry.moment_condition
    if not finite(m, dist.param):
        return MomentResult(math.inf, False, f"requires {text}")
    return MomentResult(entry.moment(m, dist.param), True, text)


def moment_numeric(dist: DistributionSpec, m: float, rel_tol: float = 1e-10) -> float:
    """Adaptive-quadrature m-th raw moment of the half-line density.

    The half line is mapped through x = t/(1-t) so algebraic tails
    (radical, rational, rapid-decay) are integrated accurately. The two
    full-line kinds use their half-line interpretation; Cauchy moments
    with m >= 1 are rejected as divergent.
    """
    if m < 0.0:
        raise DomainError(f"moment order must be >= 0, got {m}")
    entry = TABLE[dist.kind]
    if entry.moment_condition and not entry.moment_condition[1](m, dist.param):
        raise DivergenceError(f"moment m={m} of '{dist.kind}' diverges")
    dens, p = entry.f, dist.param

    def integrand(t):
        x = t / (1.0 - t)
        return float(dens(np.float64(x), p)) * x**m / (1.0 - t) ** 2

    pts = None
    if entry.kink is not None:
        x_kink = entry.scale(p) * entry.kink(p)
        pts = [x_kink / (1.0 + x_kink)]
    val, _ = integrate.quad(
        integrand, 0.0, 1.0, points=pts, epsabs=1e-13, epsrel=rel_tol, limit=400
    )
    return val


def _survival_quad(dist: DistributionSpec, y: float) -> float:
    # map through s = t/(1-t) so algebraically decaying survival tails
    # (radical, rapid-decay) integrate accurately for large y; the kinds
    # without a closed form have no kink
    F, p = TABLE[dist.kind].F, dist.param

    def integrand(t):
        return (1.0 - float(F(np.float64(t / (1.0 - t)), p))) / (1.0 - t) ** 2

    val, _ = integrate.quad(integrand, 0.0, y / (1.0 + y), epsabs=1e-14, epsrel=1e-11, limit=400)
    return val


def survival_integral(dist: DistributionSpec, y):
    """S(y) = integral_0^y (1 - F(s)) ds of the half-line CDF; vectorized over y.

    S(inf) is the distribution mean. Closed form where the kind has one,
    one quadrature per point otherwise.
    """
    entry = TABLE[dist.kind]
    ys = np.asarray(y, dtype=float)
    pos = np.maximum(ys, 0.0)
    if entry.survival is not None:
        c = entry.scale(dist.param)
        out = c * entry.survival(pos / c, dist.param)
    else:
        out = np.reshape([_survival_quad(dist, v) if v > 0.0 else 0.0 for v in pos.ravel()],
                         ys.shape)
    return _like(y, np.where(ys <= 0.0, 0.0, out))


def saturation_point(dist: DistributionSpec, tail: float = 1e-12, bound: float = 1e9) -> float | None:
    """Smallest grid value s with 1 - F(s) <= tail for the half-line CDF,
    or None if not reached below bound."""
    def saturated(s):
        return 1.0 - cdf_halfline(dist, s) <= tail

    s = 1.0
    while s < bound:
        if saturated(s):
            # refine downward by bisection against the previous octave
            lo, hi = s / 2.0, s
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if saturated(mid):
                    hi = mid
                else:
                    lo = mid
            return hi
        s *= 2.0
    return None
