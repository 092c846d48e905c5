"""Softening laws generated by CDFs of the tensile strain-energy density.

Each law stores fracture energy G and internal length ell; the ratio
Gl = G/ell is the saturation energy density. The stored tensile energy
psi(phi) = Gl Phi(phi/Gl), the degradation factor g = d(psi)/d(phi) and
the damage variable d = 1 - g read the standardized pair (Phi, g) of the
law's kind from the table in ``kinds``, where each kind is defined once
together with the CDF that generates it.

The chi-square kind with n != 2 is retained as an executable
counterexample: its degradation factor is unbounded near zero for n < 2
and vanishes there for n > 2, so it is exempt from the [0, 1] bounds and
never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NoSmoothExpansionError
from .kinds import TABLE

LAW_KINDS = tuple(TABLE)

# Kinds that are admissible degradation maps for every admitted parameter
# (everything except the chi-square counterexample).
ADMISSIBLE_KINDS = tuple(k for k in LAW_KINDS if k != "chisquare")


def check_law_kind(kind: str, n: float | None) -> None:
    """Raise ConfigurationError unless `kind` names a law and `n` suits it."""
    entry = TABLE.get(kind)
    if entry is None:
        raise ConfigurationError(f"unknown damage-law kind '{kind}'")
    if entry.shape:
        if n is None or not (n > 0.0):
            raise ConfigurationError(f"kind '{kind}' requires a positive n")
        if entry.shape_range and not (entry.shape_range[0] <= n <= entry.shape_range[1]):
            raise ConfigurationError(
                f"{kind} n must lie in [{entry.shape_range[0]:g}, {entry.shape_range[1]:g}], got {n}"
            )
    elif n is not None:
        raise ConfigurationError(f"kind '{kind}' takes no shape parameter")


@dataclass(frozen=True)
class DamageLaw:
    """A named softening law with fracture constants G (energy/area) and ell (length)."""

    kind: str
    G: float = 1.0
    ell: float = 1.0
    n: float | None = None

    def __post_init__(self):
        check_law_kind(self.kind, self.n)
        if not (self.G > 0.0 and self.ell > 0.0):
            raise ConfigurationError("G and ell must be positive")

    @property
    def Gl(self) -> float:
        """Saturation energy density G/ell."""
        return self.G / self.ell


def _check_phi(phi):
    arr = np.asarray(phi, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("strain-energy density must be finite and >= 0")
    return arr


def psi(law: DamageLaw, phi):
    """Stored tensile energy density; saturates at G/ell (chi-square included)."""
    out = law.Gl * TABLE[law.kind].Phi(_check_phi(phi) / law.Gl, law.n)
    return float(out) if np.isscalar(phi) else out


def degradation(law: DamageLaw, phi):
    """Stiffness-reduction factor g = d(psi)/d(phi); in [0, 1] except chi-square n != 2."""
    out = TABLE[law.kind].g(_check_phi(phi) / law.Gl, law.n)
    return float(out) if np.isscalar(phi) else out


def damage(law: DamageLaw, phi):
    """Damage variable d = 1 - degradation."""
    out = 1.0 - np.asarray(degradation(law, phi))
    return float(out) if np.isscalar(phi) else out


def kink(law: DamageLaw) -> float | None:
    """Energy density phi at which g has a kink (the threshold laws), else None."""
    entry = TABLE[law.kind]
    return None if entry.kink is None else entry.kink(law.n) * law.Gl


def radical_governing_coefficient(law: DamageLaw, phi):
    """Stress coefficient of the radical model's governing equation.

    Stated with exponent n+1; the analytic derivative of psi telescopes
    to exactly the same expression, so this equals degradation() to
    round-off. Kept as a separate entry point so the agreement is
    testable rather than assumed.
    """
    if law.kind != "radical":
        raise DomainError("governing coefficient defined for the radical kind only")
    u = _check_phi(phi) / law.Gl
    out = (1.0 + u ** (1.0 / law.n)) ** (-(law.n + 1.0))
    return float(out) if np.isscalar(phi) else out


# ---------------------------------------------------------------------------
# 1D peak response (dimensionless) and length-scale calibration
# ---------------------------------------------------------------------------

def peak_state_dimensionless(kind: str, n: float | None = None):
    """(u*, g*) at the 1D stress peak, with u = phi/Gl, where a closed form exists.

    Returns None if the kind has no closed-form peak (numeric search applies).
    """
    entry = TABLE[kind]
    if entry.peak_u is None:
        return None
    u = entry.peak_u(n)
    return u, float(entry.g(u, n))


def check_peak_domain(kind: str, n: float | None) -> None:
    """The chi-square counterexample has a stress peak only for n >= 2."""
    if kind == "chisquare" and (n is None or n < 2.0):
        raise DomainError("chi-square peak response defined for n >= 2 only")


def calibration_constant(kind: str, n: float | None = None):
    """Dimensionless C in G/ell = C sigma_max^2 / k, plus a 'numeric' flag.

    For kinds with a closed-form peak, C = 1/(2 u* g*^2) follows from the
    peak state exactly; the rest maximize the dimensionless stress numerically.
    """
    peak = peak_state_dimensionless(kind, n)
    if peak is not None:
        u, g = peak
        return 1.0 / (2.0 * u * g * g), False
    check_peak_domain(kind, n)
    eps, sig = _golden_peak(DamageLaw(kind, G=1.0, ell=1.0, n=n), 1.0)
    return 1.0 / (sig * sig), True


def calibrate_length(kind: str, sigma_max: float, k: float, G: float, n: float | None = None):
    """Internal length ell from the measured peak stress: ell = G k / (C sigma_max^2).

    Returns (ell, numeric_flag); numeric_flag marks kinds whose constant
    comes from numeric maximization rather than a closed form.
    """
    if not (sigma_max > 0.0 and k > 0.0 and G > 0.0):
        raise DomainError("sigma_max, k, G must be positive")
    C, numeric = calibration_constant(kind, n)
    return G * k / (C * sigma_max * sigma_max), numeric


def _golden_peak(law: DamageLaw, k: float):
    """Golden-section maximization of the 1D effective stress; returns (eps*, sigma*)."""
    def stress(e):
        return degradation(law, 0.5 * k * e * e) * k * e

    a, b = 0.0, 10.0 * math.sqrt(2.0 * law.Gl / k)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = stress(c), stress(d)
    # ties move the right bound: threshold laws are flat-zero past cutoff
    while (b - a) > 1e-12 * max(b, 1.0):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = stress(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = stress(d)
    e = 0.5 * (a + b)
    return e, stress(e)


# ---------------------------------------------------------------------------
# Taylor expansion of psi at zero
# ---------------------------------------------------------------------------

_SMOOTH_KINDS = (
    "exponential",
    "cauchy",
    "logistic",
    "halfnormal",
    "gudermannian",
    "hypergeometric",
    "rational",
)


def taylor_coefficients(law: DamageLaw, order: int = 3):
    """Leading Taylor coefficients of psi at phi = 0, [1, c2, c3][:order].

    Computed by Richardson-extrapolated finite differences of the exact
    psi; the linear coefficient is 1 by construction. Kinds whose psi is
    not smooth at 0 raise NoSmoothExpansionError; the two threshold laws
    are exact up to their first branch point and report only the linear
    term beyond which no universal polynomial exists.
    """
    if not 1 <= order <= 3:
        raise DomainError("order must be 1, 2, or 3")
    kind = law.kind
    if kink(law) is not None:
        return [1.0][:order]
    if kind == "chisquare" and law.n == 2.0:
        kind = "exponential"
    if kind not in _SMOOTH_KINDS:
        raise NoSmoothExpansionError(f"no smooth expansion at 0 for kind '{kind}'")

    ref = DamageLaw(kind, G=1.0, ell=1.0, n=law.n if TABLE[kind].shape else None)

    def q2(h):
        return (psi(ref, h) - h) / (h * h)

    a2 = _richardson(q2, 0.2, levels=6)

    def q3(h):
        return (psi(ref, h) - h - a2 * h * h) / h**3

    a3 = _richardson(q3, 0.2, levels=6)
    coeffs = [1.0, a2 * law.ell / law.G, a3 * (law.ell / law.G) ** 2]
    return coeffs[:order]


def _richardson(f, h0: float, levels: int) -> float:
    # f(h) = L + b1 h + b2 h^2 + ...; eliminate powers of h over h0 * 2^-j
    table = [f(h0 * 0.5**j) for j in range(levels)]
    for m in range(1, levels):
        fac = 2.0**m
        table = [
            (fac * table[j + 1] - table[j]) / (fac - 1.0)
            for j in range(len(table) - 1)
        ]
    return table[0]


def admissibility_report(law: DamageLaw, grid_points: int = 1000):
    """Check the sufficiency conditions for an admissible degradation map.

    Returns a dict with d(0), monotonicity of d on a log grid, the limit
    of d, and the integral of g over [0, inf) which must equal G/ell.
    """
    from scipy import integrate

    lo, hi = 1e-6 * law.Gl, 1e6 * law.Gl
    grid = np.concatenate([[0.0], np.geomspace(lo, hi, grid_points)])
    d = damage(law, grid)
    mono = bool(np.all(np.diff(d) >= -1e-12))

    def g_of_t(t):
        # phi = Gl * t/(1-t) substitution
        u = t / (1.0 - t)
        return degradation(law, law.Gl * u) * law.Gl / (1.0 - t) ** 2

    phi_kink = kink(law)
    pts = None if phi_kink is None else [phi_kink / (law.Gl + phi_kink)]
    integral, _ = integrate.quad(g_of_t, 0.0, 1.0, points=pts, limit=400,
                                 epsabs=1e-12, epsrel=1e-9)
    return {
        "d_at_zero": float(d[0]),
        "monotone": mono,
        "d_limit": float(d[-1]),
        "g_integral": integral,
        "saturation": law.Gl,
    }
