import math

import numpy as np
import pytest

from cdfdamage import quasistatic as qs
from cdfdamage.damage_laws import DamageLaw
from cdfdamage.distributions import DistributionSpec
from cdfdamage.errors import ConfigurationError


def _stress_peak(law, k):
    """Golden-section peak of the bar's effective stress for either law flavor."""
    sat = qs.stored_density(law, 1e9)

    def stress(e):
        return qs.stiffness_factor(law, 0.5 * k * e * e) * k * e

    a, b = 0.0, 10.0 * math.sqrt(2.0 * sat / k)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * b, invphi * b
    fc, fd = stress(c), stress(d)
    while (b - a) > 1e-10 * max(b, 1.0):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = stress(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = stress(d)
    return 0.5 * (a + b)


def random_problem(rng, steps=25):
    """Problem whose uncracked states are provably globally stable.

    gamma <= 0.8 * h * W(eps_peak) guarantees that while the solver keeps
    the bar uncracked (elastic energy <= gamma), no redistribution of the
    element strains or crack superset can undercut it.
    """
    n_el = int(rng.integers(2, 7))
    L = float(rng.uniform(0.5, 2.0))
    k = float(rng.uniform(0.5, 2.0))
    pick = int(rng.integers(0, 5))
    G = float(rng.uniform(0.5, 2.0))
    ell = float(rng.uniform(0.5, 2.0))
    if pick == 0:
        law = DamageLaw("exponential", G=G, ell=ell)
    elif pick == 1:
        law = DamageLaw("logistic", G=G, ell=ell)
    elif pick == 2:
        law = DamageLaw("radical", G=G, ell=ell, n=1.0)
    elif pick == 3:
        law = DamageLaw("power", G=G, ell=ell, n=2.0)
    else:
        law = qs.RawCdfLaw(DistributionSpec("exponential", 1.0), lam=float(rng.uniform(0.5, 2.0)))
    eps_pk = _stress_peak(law, k)
    w_pk = float(qs.stored_density(law, 0.5 * k * eps_pk * eps_pk))
    h = L / n_el
    gamma = float(rng.uniform(0.3, 0.8)) * h * w_pk

    # mean strain at which the uncracked energy reaches gamma
    lo, hi = 0.0, eps_pk
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if L * qs.stored_density(law, 0.5 * k * mid * mid) < gamma:
            lo = mid
        else:
            hi = mid
    m_gamma = 0.5 * (lo + hi)
    g_end = float(rng.uniform(0.6, 2.5)) * m_gamma * L
    prob = qs.BarProblem(
        element_count=n_el, bar_length=L, law=law, jump_cost=gamma,
        boundary_knots=((0.0, 0.0), (1.0, g_end)), k=k,
    )
    return prob, qs.uniform_times(1.0, steps)


# ---------------------------------------------------------------------------
# incremental minimization
# ---------------------------------------------------------------------------

def test_zero_load_stays_zero():
    prob = qs.BarProblem(4, 1.0, DamageLaw("exponential"), 0.1, ((0.0, 0.0), (1.0, 0.0)))
    traj = qs.solve(prob, qs.uniform_times(1.0, 20))
    for s in traj.states:
        assert s.stored_energy == 0.0
        assert not s.open_jumps
    assert traj.total_dissipation == 0.0


def test_huge_cost_never_cracks():
    law = DamageLaw("exponential", G=1.0, ell=1.0)
    prob = qs.BarProblem(2, 1.0, law, 1e6, ((0.0, 0.0), (1.0, 2.0)))
    traj = qs.solve(prob, qs.uniform_times(1.0, 20))
    assert not traj.states[-1].open_jumps
    g = traj.states[-1].g
    want = prob.bar_length * qs.stored_density(law, 0.5 * (g / prob.bar_length) ** 2)
    assert traj.states[-1].stored_energy == pytest.approx(want, rel=1e-12)


def test_four_element_single_crack_scenario():
    law = DamageLaw("exponential", G=1.0, ell=1.0)
    gamma = 0.05
    prob = qs.BarProblem(4, 1.0, law, gamma, ((0.0, 0.0), (1.0, 1.0)))
    times = qs.uniform_times(1.0, 100)
    traj = qs.solve(prob, times)
    crack_counts = [len(s.open_jumps) for s in traj.states]
    assert max(crack_counts) == 1
    k_crack = next(i for i, c in enumerate(crack_counts) if c == 1)
    # the crack opens at the first step whose uniform energy exceeds gamma
    for i in range(k_crack):
        s = traj.states[i]
        e_unif = prob.bar_length * qs.stored_density(law, 0.5 * (s.g / prob.bar_length) ** 2)
        assert e_unif <= gamma + 1e-12
    g = traj.states[k_crack].g
    e_unif = prob.bar_length * qs.stored_density(law, 0.5 * (g / prob.bar_length) ** 2)
    assert e_unif > gamma
    assert traj.states[k_crack].stored_energy == pytest.approx(0.0, abs=1e-15)
    # brute-force oracle agrees at every step
    ref = qs.solve(prob, times, stepper=qs.incremental_step_exhaustive)
    for a, b in zip(traj.states, ref.states):
        assert a.open_jumps == b.open_jumps
        assert a.stored_energy == b.stored_energy


def test_monotone_crack_growth_and_dissipation_additivity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        prob, times = random_problem(rng)
        traj = qs.solve(prob, times)
        prev = frozenset()
        for s in traj.states:
            assert prev <= s.open_jumps
            prev = s.open_jumps
        assert traj.total_dissipation == pytest.approx(
            prob.jump_cost * len(traj.states[-1].open_jumps), rel=1e-14, abs=1e-300
        )


def test_incremental_matches_exhaustive_on_random_problems():
    rng = np.random.default_rng(123)
    for _ in range(50):
        prob, times = random_problem(rng)
        fast = qs.solve(prob, times)
        slow = qs.solve(prob, times, stepper=qs.incremental_step_exhaustive)
        for a, b in zip(fast.states, slow.states):
            assert a.open_jumps == b.open_jumps
            assert a.stored_energy == b.stored_energy


def test_jump_heights_reconstruct_boundary_gap():
    law = DamageLaw("exponential")
    prob = qs.BarProblem(4, 1.0, law, 0.02, ((0.0, 0.0), (1.0, 1.0)))
    traj = qs.solve(prob, qs.uniform_times(1.0, 50))
    final = traj.states[-1]
    assert final.open_jumps
    assert sum(final.jump_heights().values()) == pytest.approx(final.g, rel=1e-12)


def test_problem_validation():
    with pytest.raises(ConfigurationError):
        qs.BarProblem(1, 1.0, DamageLaw("exponential"), 0.1, ((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ConfigurationError):
        qs.BarProblem(4, -1.0, DamageLaw("exponential"), 0.1, ((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ConfigurationError):
        qs.BarProblem(4, 1.0, DamageLaw("exponential"), 0.1, ((0.0, 0.0),))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_stability_zero_load_trivial():
    prob = qs.BarProblem(4, 1.0, DamageLaw("exponential"), 0.1, ((0.0, 0.0), (1.0, 0.0)))
    traj = qs.solve(prob, qs.uniform_times(1.0, 10))
    cert = qs.certify_stability(traj, prob, competitors=100, seed=1)
    assert cert.passed and cert.worst_margin >= 0.0


def test_stability_of_derived_scenario():
    law = DamageLaw("exponential", G=1.0, ell=1.0)
    # gamma under the redistribution threshold h * W(eps_peak)
    prob = qs.BarProblem(4, 1.0, law, 0.05, ((0.0, 0.0), (1.0, 1.0)))
    traj = qs.solve(prob, qs.uniform_times(1.0, 100))
    assert len(traj.states[-1].open_jumps) == 1
    cert = qs.certify_stability(traj, prob, competitors=200, seed=7)
    assert cert.worst_margin >= -1e-9


def test_corrupted_trajectory_fails_stability():
    # march with a prohibitive crack cost, then certify with the true cost:
    # the uncracked states beyond the threshold are not globally stable
    law = DamageLaw("exponential", G=1.0, ell=1.0)
    blocked = qs.BarProblem(4, 1.0, law, 1e6, ((0.0, 0.0), (1.0, 2.0)))
    traj = qs.solve(blocked, qs.uniform_times(1.0, 40))
    true_prob = qs.BarProblem(4, 1.0, law, 0.05, ((0.0, 0.0), (1.0, 2.0)))
    cert = qs.certify_stability(traj, true_prob, competitors=50, seed=3)
    assert not cert.passed
    assert cert.worst_margin < -1e-6


def test_balance_zero_load():
    prob = qs.BarProblem(3, 1.0, DamageLaw("exponential"), 0.1, ((0.0, 0.0), (1.0, 0.0)))
    traj = qs.solve(prob, qs.uniform_times(1.0, 10))
    cert = qs.certify_energy_balance(traj, prob)
    assert cert.residual == 0.0


def test_balance_second_order_in_step_size():
    law = DamageLaw("exponential", G=1.0, ell=1.0)
    prob = qs.BarProblem(3, 1.0, law, 1e6, ((0.0, 0.0), (1.0, 1.2)))
    residuals = []
    for steps in (50, 100, 200):
        traj = qs.solve(prob, qs.uniform_times(1.0, steps))
        residuals.append(qs.certify_energy_balance(traj, prob).residual)
    r1 = residuals[0] / residuals[1]
    r2 = residuals[1] / residuals[2]
    assert 3.5 <= r1 <= 4.5
    assert 3.5 <= r2 <= 4.5


@pytest.mark.parametrize("spec", [DistributionSpec("logistic"), DistributionSpec("cauchy", 1.0)],
                         ids=("logistic", "cauchy"))
def test_balance_rawcdf_full_line(spec):
    # stored energy and reaction must use the same (half-line) CDF, so the
    # reaction is the slope of the energy on a crack-free ramp
    prob = qs.BarProblem(3, 1.0, qs.RawCdfLaw(spec), 1e6, ((0.0, 0.0), (1.0, 1.2)))
    traj = qs.solve(prob, qs.uniform_times(1.0, 50))
    assert not traj.states[-1].open_jumps
    cert = qs.certify_energy_balance(traj, prob)
    assert cert.passed, cert.residual / cert.characteristic_energy


def test_balance_with_cracking():
    law = DamageLaw("exponential", G=1.0, ell=1.0)
    prob = qs.BarProblem(4, 1.0, law, 0.05, ((0.0, 0.0), (1.0, 1.0)))
    traj = qs.solve(prob, qs.uniform_times(1.0, 200))
    cert = qs.certify_energy_balance(traj, prob, tolerance=0.02)
    assert cert.passed, (cert.residual, cert.characteristic_energy)


# ---------------------------------------------------------------------------
# recovery-sequence table
# ---------------------------------------------------------------------------

def test_recovery_table_power_explicit_value():
    rows, warning = qs.gamma_recovery_table(DistributionSpec("power", 1.0), [1.0])
    assert warning is None
    # lam = 1, eps = 1: the whole domain is the layer, E = S(1/2) = 3/8
    assert rows[0].energy == pytest.approx(0.375, rel=1e-12)
    assert rows[0].bound == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("spec", [DistributionSpec("power", 1.0), DistributionSpec("exponential", 1.0)],
                         ids=("power", "exponential"))
def test_recovery_table_decreasing_and_bounded(spec):
    lambdas = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    rows, warning = qs.gamma_recovery_table(spec, lambdas)
    assert warning is None  # both saturate (power exactly, exponential numerically)
    energies = [r.energy for r in rows]
    assert all(e1 > e2 for e1, e2 in zip(energies, energies[1:]))
    for r in rows:
        assert r.energy <= r.bound + 1e-12


def test_recovery_table_warns_for_nonsaturating_cdf():
    rows, warning = qs.gamma_recovery_table(DistributionSpec("radical", 1.0), [10.0])
    assert warning is not None


def test_reaction_matches_stress():
    law = DamageLaw("exponential")
    prob = qs.BarProblem(4, 1.0, law, 1e6, ((0.0, 0.0), (1.0, 1.0)))
    traj = qs.solve(prob, qs.uniform_times(1.0, 10))
    s = traj.states[-1]
    eps = s.g / prob.bar_length
    assert qs.reaction(prob, s) == pytest.approx(
        math.exp(-0.5 * eps * eps) * eps, rel=1e-12
    )
