"""Incremental energetic evolution of a 1D bar with cohesive-free cracks.

State space at desk scale: a set of open inter-element interfaces plus a
displacement field that is piecewise linear over elements, continuous at
closed interfaces, with Dirichlet ends u(0) = 0 and u(L) = g(t). Each
time step solves

    min over crack sets S containing the previous set of
        [ elastic energy with interfaces in S freed ] + gamma * |new in S|

where segment energy uses uniform stretch in closed form. On a serial
bar one freed interface already relaxes every segment, so enumerating
the no-new-crack candidate plus all single-new-crack candidates is an
exact global search; the exhaustive-subset oracle double-checks that on
small problems. Stability (S) and energy-balance (E) checks certify the
trajectory afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .damage_laws import DamageLaw, degradation, psi
from .distributions import DistributionSpec, cdf_halfline, saturation_point, survival_integral
from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class RawCdfLaw:
    """Stored energy psi_lam(t) = (1/lam) * integral_0^(lam t) (1 - F(s)) ds.

    F is the half-line CDF of the distribution (for the full-line kinds,
    the CDF restricted to s >= 0 and renormalized), so the stiffness
    factor 1 - F(lam t) is the slope of the stored energy.
    """

    dist: DistributionSpec
    lam: float = 1.0

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ConfigurationError("lam must be positive")


def stored_density(law, phi):
    """Stored energy density at base energy phi; vectorized over phi."""
    if isinstance(law, DamageLaw):
        return psi(law, phi)
    return survival_integral(law.dist, law.lam * phi) / law.lam


def stiffness_factor(law, phi: float) -> float:
    """d(stored)/d(phi): degradation factor or survival function 1 - F(lam*phi)."""
    if isinstance(law, DamageLaw):
        return float(degradation(law, phi))
    return 1.0 - float(cdf_halfline(law.dist, law.lam * phi))


@dataclass(frozen=True)
class BarProblem:
    """Bar geometry, material, boundary program g(t), and crack cost gamma."""

    element_count: int
    bar_length: float
    law: DamageLaw | RawCdfLaw
    jump_cost: float
    boundary_knots: tuple  # ((t0, g0), (t1, g1), ...) piecewise linear
    k: float = 1.0

    def __post_init__(self):
        if self.element_count < 2:
            raise ConfigurationError("element_count must be >= 2")
        if not (self.bar_length > 0.0 and self.jump_cost > 0.0 and self.k > 0.0):
            raise ConfigurationError("bar_length, jump_cost, k must be positive")
        if len(self.boundary_knots) < 2:
            raise ConfigurationError("boundary program needs at least two knots")

    @property
    def h(self) -> float:
        return self.bar_length / self.element_count

    @property
    def interfaces(self) -> range:
        """Interior interface indices, 1..element_count-1."""
        return range(1, self.element_count)

    def boundary(self, t: float) -> float:
        knots = np.asarray(self.boundary_knots, dtype=float)
        g = float(np.interp(t, knots[:, 0], knots[:, 1]))
        if not math.isfinite(g):
            raise DomainError(f"boundary program not finite at t={t}")
        return g

    def state_energy(self, ends: np.ndarray) -> float:
        strains = (ends[:, 1] - ends[:, 0]) / self.h
        phis = 0.5 * self.k * strains * strains
        return self.h * float(np.sum(stored_density(self.law, phis)))


@dataclass(frozen=True)
class BarState:
    """Displacement ends per element plus the set of open interfaces."""

    time: float
    g: float
    open_jumps: frozenset
    ends: np.ndarray
    stored_energy: float

    def jump_heights(self) -> dict:
        return {
            j: float(self.ends[j, 0] - self.ends[j - 1, 1]) for j in sorted(self.open_jumps)
        }


@dataclass
class QuasiStaticTrajectory:
    times: np.ndarray
    states: list
    dissipation_increments: list = field(default_factory=list)

    @property
    def total_dissipation(self) -> float:
        return float(sum(self.dissipation_increments))


def _relaxed_ends(prob: BarProblem, open_jumps: frozenset, g: float) -> np.ndarray:
    """Minimum-energy displacement for a given crack set: uniform stretch if
    uncracked, otherwise rigid pieces with the whole jump at the first crack."""
    n = prob.element_count
    ends = np.zeros((n, 2))
    if not open_jumps:
        xs = np.linspace(0.0, prob.bar_length, n + 1)
        vals = g * xs / prob.bar_length
        ends[:, 0] = vals[:-1]
        ends[:, 1] = vals[1:]
        return ends
    first = min(open_jumps)
    ends[first:, :] = g
    return ends


def _candidate_cost(prob: BarProblem, prev_jumps: frozenset, jumps: frozenset, g: float):
    ends = _relaxed_ends(prob, jumps, g)
    elastic = prob.state_energy(ends)
    cost = elastic + prob.jump_cost * len(jumps - prev_jumps)
    return cost, elastic, ends


def _pick(prob, prev_jumps, candidates, t, g):
    best = None
    for jumps in candidates:
        cost, elastic, ends = _candidate_cost(prob, prev_jumps, jumps, g)
        key = (cost, len(jumps), tuple(sorted(jumps)))
        if best is None or key < best[0]:
            best = (key, jumps, elastic, ends)
    _, jumps, elastic, ends = best
    return BarState(t, g, jumps, ends, elastic)


def incremental_step(prev: BarState, t: float, prob: BarProblem) -> BarState:
    """One incremental minimization: previous cracks plus at most one new."""
    g = prob.boundary(t)
    candidates = [prev.open_jumps]
    for j in prob.interfaces:
        if j not in prev.open_jumps:
            candidates.append(prev.open_jumps | {j})
    return _pick(prob, prev.open_jumps, candidates, t, g)


def incremental_step_exhaustive(prev: BarState, t: float, prob: BarProblem) -> BarState:
    """Brute force over every superset of the previous crack set (oracle)."""
    g = prob.boundary(t)
    closed = [j for j in prob.interfaces if j not in prev.open_jumps]
    candidates = []
    for mask in range(2 ** len(closed)):
        extra = {closed[i] for i in range(len(closed)) if mask >> i & 1}
        candidates.append(prev.open_jumps | extra)
    return _pick(prob, prev.open_jumps, candidates, t, g)


def initial_state(prob: BarProblem, t0: float = 0.0) -> BarState:
    g0 = prob.boundary(t0)
    ends = _relaxed_ends(prob, frozenset(), g0)
    return BarState(t0, g0, frozenset(), ends, prob.state_energy(ends))


def solve(prob: BarProblem, times, stepper=incremental_step) -> QuasiStaticTrajectory:
    """March the incremental problem over a time grid."""
    times = np.asarray(times, dtype=float)
    state = initial_state(prob, float(times[0]))
    traj = QuasiStaticTrajectory(times, [state])
    for t in times[1:]:
        new = stepper(traj.states[-1], float(t), prob)
        traj.dissipation_increments.append(
            prob.jump_cost * len(new.open_jumps - traj.states[-1].open_jumps)
        )
        traj.states.append(new)
    return traj


def uniform_times(t_end: float, steps: int = 100) -> np.ndarray:
    return np.linspace(0.0, t_end, steps + 1)


def reaction(prob: BarProblem, state: BarState) -> float:
    """Boundary reaction dE/dg: the effective stress in the last element."""
    strain = float(state.ends[-1, 1] - state.ends[-1, 0]) / prob.h
    phi = 0.5 * prob.k * strain * strain
    return stiffness_factor(prob.law, phi) * prob.k * strain


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityCertificate:
    worst_margin: float
    margins: np.ndarray
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.worst_margin >= -self.tolerance)


@dataclass(frozen=True)
class BalanceCertificate:
    residual: float
    characteristic_energy: float
    tolerance: float
    work_total: float
    dissipation_total: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance * self.characteristic_energy)


def _competitor_ends(prob, jumps, g, rng, base_scale):
    """Random admissible displacement for a crack set: interface values drawn
    around the linear profile; open interfaces get independent sides."""
    n = prob.element_count
    xs = np.linspace(0.0, prob.bar_length, n + 1)
    ramp = g * xs / prob.bar_length
    amp = base_scale * rng.uniform(0.2, 3.0)
    left_vals = np.empty(n + 1)
    right_vals = np.empty(n + 1)
    left_vals[0] = right_vals[0] = 0.0
    left_vals[n] = right_vals[n] = g
    for j in range(1, n):
        v = ramp[j] + rng.uniform(-amp, amp)
        if j in jumps:
            w = ramp[j] + rng.uniform(-amp, amp)
            left_vals[j], right_vals[j] = v, w
        else:
            left_vals[j] = right_vals[j] = v
    ends = np.empty((n, 2))
    ends[:, 0] = right_vals[:-1]
    ends[:, 1] = left_vals[1:]
    return ends


def certify_stability(
    traj: QuasiStaticTrajectory,
    prob: BarProblem,
    competitors: int = 200,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> StabilityCertificate:
    """Sample admissible competitors v and check E(u) <= E(v) + D(u, v).

    Competitors cycle through: relaxed crack supersets, random states on
    the same crack set, and random states on supersets. A violated
    inequality lowers the margin; it is reported, not raised.
    """
    rng = np.random.default_rng(seed)
    margins = np.empty(len(traj.states))
    char_disp = max(abs(prob.boundary(float(t))) for t in traj.times)
    char_disp = max(char_disp, 1e-12)
    for idx, state in enumerate(traj.states):
        g = state.g
        e_u = state.stored_energy
        closed = [j for j in prob.interfaces if j not in state.open_jumps]
        worst = math.inf
        for c in range(competitors):
            mode = c % 3
            if mode == 0 and closed:
                extra = frozenset(
                    rng.choice(closed, size=rng.integers(1, len(closed) + 1), replace=False).tolist()
                )
                jumps = state.open_jumps | extra
                ends = _relaxed_ends(prob, jumps, g)
            elif mode == 1:
                jumps = state.open_jumps
                ends = _competitor_ends(prob, jumps, g, rng, char_disp)
            else:
                extra = frozenset()
                if closed and rng.uniform() < 0.7:
                    extra = frozenset(
                        rng.choice(closed, size=rng.integers(1, len(closed) + 1), replace=False).tolist()
                    )
                jumps = state.open_jumps | extra
                ends = _competitor_ends(prob, jumps, g, rng, char_disp)
            e_v = prob.state_energy(ends)
            d_uv = prob.jump_cost * len(jumps - state.open_jumps)
            worst = min(worst, e_v + d_uv - e_u)
        margins[idx] = worst
    return StabilityCertificate(float(margins.min()), margins, tolerance)


def certify_energy_balance(
    traj: QuasiStaticTrajectory, prob: BarProblem, tolerance: float = 0.02
) -> BalanceCertificate:
    """Two-sided energy balance with trapezoid work integration.

    residual = |E_N + sum(diss) - E_0 - sum(0.5 (R_k + R_{k+1}) dg)|,
    compared against the larger of peak stored energy and total dissipation.
    """
    reactions = [reaction(prob, s) for s in traj.states]
    gs = [s.g for s in traj.states]
    work = 0.0
    for i in range(len(gs) - 1):
        work += 0.5 * (reactions[i] + reactions[i + 1]) * (gs[i + 1] - gs[i])
    e0 = traj.states[0].stored_energy
    e_end = traj.states[-1].stored_energy
    diss = traj.total_dissipation
    residual = abs(e_end + diss - e0 - work)
    char = max(max(s.stored_energy for s in traj.states), diss, 1e-300)
    return BalanceCertificate(residual, char, tolerance, work, diss)


# ---------------------------------------------------------------------------
# Recovery-sequence energy table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryRow:
    lam: float
    layer_width: float
    energy: float
    bound: float


def gamma_recovery_table(F: DistributionSpec, lambdas):
    """Energy of a smoothed unit step under the scaled functionals.

    The candidate u on the unit domain has a unit jump at mid-domain
    smoothed linearly over width eps = min(lam^-1/2, 1), so its gradient is
    1/eps on the layer and 0 outside; the energy is the exact two-piece
    closed form eps * S(lam/(2 eps^2))/lam with S the survival integral.
    Returns the rows plus a warning when 1 - F stays above 1e-12.
    """
    s_c = saturation_point(F, tail=1e-12)
    warning = None
    if s_c is None:
        warning = "CDF does not reach 1 - F <= 1e-12 below the search bound"
        s_c = 1e9
    mean_energy = survival_integral(F, s_c)
    rows = []
    for lam in lambdas:
        if not lam > 0.0:
            raise DomainError("lambda values must be positive")
        eps = min(float(lam**-0.5), 1.0)
        grad_energy = 0.5 / (eps * eps)
        e = eps * survival_integral(F, min(lam * grad_energy, 50.0 * s_c)) / lam
        rows.append(RecoveryRow(float(lam), eps, e, mean_energy * eps))
    return rows, warning
