"""1D bar/material-point driver: strain paths, peaks, envelopes, counterexample.

The 1D specialization takes phi = 0.5*k*eps^2 with tensile part
phi+ = 0.5*k*<eps>_+^2, so compression never drives damage. The history
variable eta is the running maximum of phi+ and freezes the degradation
factor on unloading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .damage_laws import (
    DamageLaw,
    _golden_peak,
    check_peak_domain,
    damage,
    degradation,
    kink,
    peak_state_dimensionless,
)
from .errors import DomainError


@dataclass(frozen=True)
class PathRecord:
    """State at one step of a driven strain path."""

    strain: float
    phi_plus: float
    eta: float
    stress_eff: float
    damage: float
    dissipation_cum: float


@dataclass(frozen=True)
class PeakResponse:
    strain_at_peak: float
    sigma_max: float
    damage_at_peak: float


def drive_path(law: DamageLaw, k: float, strains) -> list[PathRecord]:
    """Run a strain history; returns one record per step.

    Per step: phi+ from the tensile strain part, eta <- max(eta, phi+),
    effective stress g(eta)*k*eps in tension and k*eps in compression,
    and dissipation increment (d_new - d_old) * phi+_new accumulated.
    """
    if not k > 0.0:
        raise DomainError("modulus k must be positive")
    eps = np.asarray(strains, dtype=float).ravel()
    phi_p = 0.5 * k * np.maximum(eps, 0.0) ** 2
    eta = np.maximum.accumulate(phi_p)
    g = degradation(law, eta)
    d = 1.0 - g
    sigma = np.where(eps >= 0.0, g * k * eps, k * eps)
    diss = np.cumsum((d - np.concatenate([[0.0], d[:-1]])) * phi_p)
    return [PathRecord(*map(float, row)) for row in zip(eps, phi_p, eta, sigma, d, diss)]


def peak_response(law: DamageLaw, k: float) -> PeakResponse:
    """Peak of the monotone 1D effective stress.

    Closed form where one exists (exponential, Cauchy, logistic,
    half-normal, Gudermannian, radical, piecewise); golden-section
    maximization otherwise.
    """
    if not k > 0.0:
        raise DomainError("modulus k must be positive")
    state = peak_state_dimensionless(law.kind, law.n)
    if state is not None:
        u, g = state
        eps = math.sqrt(2.0 * u * law.Gl / k)
        return PeakResponse(eps, g * k * eps, 1.0 - g)
    check_peak_domain(law.kind, law.n)
    eps, sig = _golden_peak(law, k)
    return PeakResponse(eps, sig, float(damage(law, 0.5 * k * eps * eps)))


def dissipated_envelope(law: DamageLaw, k: float) -> float:
    """integral of the monotone effective stress over all strain; equals G/ell.

    The half line is mapped through eps = s*t/(1-t) with s the
    characteristic strain sqrt(2*Gl/k); the two threshold laws carry
    their breakpoints so the quadrature sees the kinks.
    """
    if not k > 0.0:
        raise DomainError("modulus k must be positive")
    scale = math.sqrt(2.0 * law.Gl / k)

    def integrand(t):
        eps = scale * t / (1.0 - t)
        return degradation(law, 0.5 * k * eps * eps) * k * eps * scale / (1.0 - t) ** 2

    phi_kink = kink(law)
    pts = None
    if phi_kink is not None:
        cut = math.sqrt(2.0 * phi_kink / k)
        pts = [cut / (cut + scale)]
    val, _ = integrate.quad(
        integrand, 0.0, 1.0, points=pts, limit=400, epsabs=1e-13, epsrel=1e-9
    )
    return val


def chi_square_demo(n: float, k: float = 1.0, Gl: float = 1.0, eps_max: float = 4.0,
                    points: int = 400):
    """Effective-stress curve of the chi-square damage law plus its small-strain ratio.

    The ratio sigma_eff/(k*eps) at eps = 1e-3 shows why only n = 2
    reproduces linear elasticity: it is ~1 for n = 2, vanishes for n > 2,
    and blows up for n < 2.
    """
    if not n > 0.0:
        raise DomainError("n must be positive")
    law = DamageLaw("chisquare", G=Gl, ell=1.0, n=n)
    eps = np.linspace(0.0, eps_max, points)
    with np.errstate(divide="ignore", invalid="ignore"):
        sig = degradation(law, 0.5 * k * eps**2) * k * eps
    sig = np.where(eps == 0.0, 0.0, sig)
    eps_small = 1e-3
    ratio = degradation(law, 0.5 * k * eps_small**2)
    return {"eps": eps, "sigma": sig, "small_strain_ratio": float(ratio)}
