import numpy as np
import pytest

from cdfdamage.continuum import Elasticity, elasticity_tensor, tensile_energy_density
from cdfdamage.errors import ConfigurationError, DomainError


def test_elasticity_validation():
    with pytest.raises(ConfigurationError):
        Elasticity(E=-1.0, nu=0.3)
    with pytest.raises(ConfigurationError):
        Elasticity(E=1.0, nu=0.5)
    with pytest.raises(ConfigurationError):
        Elasticity(E=1.0, nu=0.3, regime="plane_stress")


def test_lame_constants_benchmark_values():
    el = Elasticity(E=210.0, nu=0.3)
    assert el.lam == pytest.approx(121.153846, abs=1e-6)
    assert el.mu == pytest.approx(80.769231, abs=1e-6)


def test_elasticity_tensor_structure():
    el = Elasticity(E=1.0, nu=0.0, regime="3d")
    D = elasticity_tensor(el)
    assert D.shape == (6, 6)
    assert np.allclose(D[:3, :3], np.eye(3) * 2 * el.mu + 0.0)
    assert el.mu == pytest.approx(0.5)
    # isotropy: D applied to the identity strain gives (3 lam + 2 mu) * I
    eye_voigt = np.array([1.0, 1.0, 1.0, 0, 0, 0])
    s = D @ eye_voigt
    assert np.allclose(s[:3], 3 * el.lam + 2 * el.mu)
    # symmetric positive definite in both regimes
    for el in (Elasticity(210.0, 0.3), Elasticity(210.0, 0.3, "3d")):
        D = elasticity_tensor(el)
        assert np.allclose(D, D.T)
        assert np.all(np.linalg.eigvalsh(D) > 0.0)


def _voigt3(eps):
    """(xx, yy, zz, yz, xz, xy) with engineering shears of a symmetric 3x3 strain."""
    return np.array([eps[0, 0], eps[1, 1], eps[2, 2], 2 * eps[1, 2], 2 * eps[0, 2], 2 * eps[0, 1]])


def _full_energy(voigt, el):
    """Undamaged energy density 0.5 * eps^T D eps."""
    return 0.5 * voigt @ elasticity_tensor(el) @ voigt


def _random_strain(rng, lo=-0.01, hi=0.01):
    a = rng.uniform(lo, hi, size=(3, 3))
    return 0.5 * (a + a.T)


def _rotated(rng, principal):
    q, _ = np.linalg.qr(rng.uniform(-1.0, 1.0, size=(3, 3)))
    return q @ np.diag(principal) @ q.T


def test_split_pure_tension_and_compression():
    rng = np.random.default_rng(11)
    el = Elasticity(E=210.0, nu=0.3, regime="3d")
    eps = _voigt3(_rotated(rng, [0.001, 0.002, 0.0005]))
    assert tensile_energy_density(eps, el) == pytest.approx(_full_energy(eps, el), rel=1e-12)

    eps = _voigt3(_rotated(rng, [-0.003, -0.001, -0.002]))
    assert tensile_energy_density(eps, el) == 0.0

    el2 = Elasticity(E=210.0, nu=0.3)
    eps = np.array([0.001, 0.002, 0.0])
    assert tensile_energy_density(eps, el2) == pytest.approx(_full_energy(eps, el2), rel=1e-14)
    assert tensile_energy_density(np.array([-0.003, -0.001, 0.0]), el2) == 0.0


def test_split_mixed_zero_poisson():
    # mu = 1/2, lam = 0: the tensile part carries 0.5 * (0.001)^2
    for el, eps in (
        (Elasticity(E=1.0, nu=0.0, regime="3d"), np.array([0.001, -0.001, 0.0, 0.0, 0.0, 0.0])),
        (Elasticity(E=1.0, nu=0.0), np.array([0.001, -0.001, 0.0])),
    ):
        assert tensile_energy_density(eps, el) == pytest.approx(0.5 * 0.001**2, rel=1e-12)


def test_split_invariants_random_tensors():
    rng = np.random.default_rng(42)
    el3 = Elasticity(75.0, 0.22, "3d")
    strains = np.array([_voigt3(_random_strain(rng)) for _ in range(5000)])
    assert np.all(tensile_energy_density(strains, el3) >= 0.0)
    el2 = Elasticity(210.0, 0.3)
    assert np.all(tensile_energy_density(rng.uniform(-0.01, 0.01, size=(5000, 3)), el2) >= 0.0)


def test_energy_additivity_single_sign_and_zero_poisson():
    # phi+(eps) + phi+(-eps) is the full energy when eps has one sign, and for
    # every strain when lam = 0
    rng = np.random.default_rng(7)
    el = Elasticity(210.0, 0.3, "3d")
    for _ in range(200):
        eps = _voigt3(_rotated(rng, rng.uniform(0.0, 0.01, size=3)))
        total = tensile_energy_density(eps, el) + tensile_energy_density(-eps, el)
        assert total == pytest.approx(_full_energy(eps, el), rel=1e-10)
    el0 = Elasticity(100.0, 0.0, "3d")
    for _ in range(200):
        eps = _voigt3(_random_strain(rng))
        total = tensile_energy_density(eps, el0) + tensile_energy_density(-eps, el0)
        assert total == pytest.approx(_full_energy(eps, el0), rel=1e-10, abs=1e-18)


def test_plane_strain_closed_form_matches_3d_eigenvalues():
    rng = np.random.default_rng(2)
    el2 = Elasticity(210.0, 0.3)
    el3 = Elasticity(210.0, 0.3, "3d")
    voigt2 = rng.uniform(-0.01, 0.01, size=(500, 3))
    voigt3 = np.zeros((500, 6))
    voigt3[:, [0, 1, 5]] = voigt2  # eps_zz = 0, no out-of-plane shear
    want = tensile_energy_density(voigt3, el3)
    got = tensile_energy_density(voigt2, el2)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-20)


def test_split_keeps_leading_shape():
    rng = np.random.default_rng(5)
    el = Elasticity(210.0, 0.3)
    strains = rng.uniform(-0.01, 0.01, size=(7, 4, 3))
    phi = tensile_energy_density(strains, el)
    assert phi.shape == (7, 4)
    assert phi[3, 2] == tensile_energy_density(strains[3, 2], el)
    el3 = Elasticity(210.0, 0.3, "3d")
    assert tensile_energy_density(rng.uniform(-0.01, 0.01, size=(7, 4, 6)), el3).shape == (7, 4)


def test_strain_validation():
    el2 = Elasticity(210.0, 0.3)
    el3 = Elasticity(210.0, 0.3, "3d")
    with pytest.raises(DomainError):
        tensile_energy_density(np.zeros((4, 6)), el2)
    with pytest.raises(DomainError):
        tensile_energy_density(np.zeros((4, 3)), el3)
    with pytest.raises(DomainError):
        tensile_energy_density(np.zeros((2, 2)), el2)
