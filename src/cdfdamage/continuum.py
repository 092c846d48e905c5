"""Small-strain isotropic elasticity and the tensile energy phi+ that drives damage.

Strains are in Voigt form with engineering shears: (xx, yy, xy) in plane
strain, (xx, yy, zz, yz, xz, xy) in 3D, matching `elasticity_tensor`. The
tensile energy comes from the spectral split of the strain,
phi+ = 0.5 * lam * (sum <e_i>+)^2 + mu * sum <e_i>+^2 over the principal
strains e_i. In plane strain the out-of-plane strain is identically zero,
so the in-plane principal strains are the whole story.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

PLANE_STRAIN = "plane_strain"
THREE_D = "3d"
_VOIGT_LENGTH = {PLANE_STRAIN: 3, THREE_D: 6}


@dataclass(frozen=True)
class Elasticity:
    """Isotropic elasticity: Young's modulus E, Poisson ratio nu, and regime."""

    E: float
    nu: float
    regime: str = PLANE_STRAIN

    def __post_init__(self):
        if not self.E > 0.0:
            raise ConfigurationError(f"E must be positive, got {self.E}")
        if not (-1.0 < self.nu < 0.5):
            raise ConfigurationError(f"nu must lie in (-1, 0.5), got {self.nu}")
        if self.regime not in _VOIGT_LENGTH:
            raise ConfigurationError(f"unknown regime '{self.regime}'")

    @property
    def lam(self) -> float:
        """First Lame constant."""
        return self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))

    @property
    def mu(self) -> float:
        """Shear modulus."""
        return self.E / (2.0 * (1.0 + self.nu))


def elasticity_tensor(elast: Elasticity) -> np.ndarray:
    """Isotropic stiffness in Voigt form: 3x3 (plane strain) or 6x6 (3D)."""
    lam, mu = elast.lam, elast.mu
    if elast.regime == PLANE_STRAIN:
        return np.array(
            [
                [lam + 2.0 * mu, lam, 0.0],
                [lam, lam + 2.0 * mu, 0.0],
                [0.0, 0.0, mu],
            ]
        )
    D = np.zeros((6, 6))
    D[:3, :3] = lam
    D[np.diag_indices(3)] += 2.0 * mu
    D[3:, 3:] = np.eye(3) * mu
    return D


def tensile_energy_density(strains: np.ndarray, elast: Elasticity) -> np.ndarray:
    """phi+ of Voigt strains (..., 3) in plane strain or (..., 6) in 3D."""
    strains = np.asarray(strains, dtype=float)
    n = _VOIGT_LENGTH[elast.regime]
    if strains.shape[-1:] != (n,):
        raise DomainError(
            f"{elast.regime} strains need a last axis of length {n}, got shape {strains.shape}")
    if elast.regime == PLANE_STRAIN:
        # closed-form in-plane principal strains
        exx, eyy, gxy = strains[..., 0], strains[..., 1], strains[..., 2]
        exy = 0.5 * gxy
        c = 0.5 * (exx + eyy)
        r = np.sqrt((0.5 * (exx - eyy)) ** 2 + exy**2)
        l1, l2 = c + r, c - r
        p1, p2 = np.maximum(l1, 0.0), np.maximum(l2, 0.0)
        trp = p1 + p2
        return 0.5 * elast.lam * trp * trp + elast.mu * (p1 * p1 + p2 * p2)
    eps = np.empty(strains.shape[:-1] + (3, 3))
    eps[..., [0, 1, 2], [0, 1, 2]] = strains[..., :3]
    # (yz, xz, xy) sit at the (1, 2), (0, 2), (0, 1) entries, halved
    eps[..., [1, 0, 0], [2, 2, 1]] = 0.5 * strains[..., 3:]
    eps[..., [2, 2, 1], [1, 0, 0]] = 0.5 * strains[..., 3:]
    p = np.maximum(np.linalg.eigvalsh(eps), 0.0)
    trp = p.sum(axis=-1)
    return 0.5 * elast.lam * trp * trp + elast.mu * (p * p).sum(axis=-1)
