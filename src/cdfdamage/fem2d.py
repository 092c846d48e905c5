"""Q4 plane-strain FEM with CDF-damage constitutive updates at Gauss points.

Single-edge-notched tension setup: unit square, horizontal notch seam
from the left edge to the center at mid-height (duplicated node pairs),
bottom edge fully fixed, vertical displacement driven on the top edge.
Meshes are tensor-product grids, uniform at the target element size in a
band around the notch/ligament line and geometrically graded outside it.

The damage model is the "hybrid" one of Ambati, Gerasimov & De Lorenzis
(Comput. Mech. 55, 2015): the degradation factor g(eta) scales the whole
undamaged stiffness K0, in tension and compression alike, while the history
eta follows only the tensile energy phi+ of the spectral strain split
(`continuum.tensile_energy_density`). No single energy has this pair as its
derivatives, so the external work is only bounded below by the stored energy
1/2 u^T K u plus the dissipation, not equal to their sum.

The solver is a staggered secant scheme: assemble the stiffness with the
degradation factor frozen at each Gauss point, solve the linear system,
re-split the strains to update the tensile driving energy and history,
repeat to a fixed-point of the nodal solution. The history variable is
committed only when a step is accepted; rejected steps are retried with
halved increments.

There is one assembly and solve path, shared by the damaged solver and the
undamaged Dirichlet solve. `_stiffness_blocks` forms the per-Gauss-point Q4
blocks B^T D B detJ w and the element dof map. A `ReducedSystem`, built
once per mesh and set of fixed dofs, holds the CSC pattern of the free-free
block and, for every element-matrix entry, the slot it adds to; each solve
scales the blocks by one weight per Gauss point (the degradation factor, or
1), scatters them into that pattern with one `bincount` and lifts the
prescribed values the same way. No global stiffness is built: the reaction
and the stored energy come from element forces.

Between two staggered iterations the weights change only in the process
zone, so the plan keeps the last SuperLU factor (symmetric mode, minimum-
degree ordering of A^T + A) and solves with conjugate gradients
preconditioned by it, one triangular solve per iteration. CG starts from
the best combination of the last two solutions and stops only when both the
residual and its last correction are small; the plan factors afresh when CG
does not get there within a few iterations, or when a weight is
(numerically) zero. A factor that passed the pivot check proves A(w)
symmetric positive definite for every positive weight field w, which is
what CG needs. A singular reduced stiffness (a rigid motion left free)
raises instead of returning a meaningless displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .continuum import Elasticity, elasticity_tensor, tensile_energy_density
from .damage_laws import DamageLaw, check_law_kind, damage as law_damage, degradation as law_degradation
from .errors import ConfigurationError, NonConvergenceError, integral

MESH_LEVELS = ("coarse", "refined", "smoke")


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mesh:
    nodes: np.ndarray          # (nn, 2) coordinates in mm
    elems: np.ndarray          # (ne, 4) CCW connectivity
    bottom_nodes: np.ndarray
    top_nodes: np.ndarray
    seam_pairs: np.ndarray     # (m, 2) node ids (below, above) along the notch
    notch_tip: int
    dx: float                  # element size in the refined band

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elems(self) -> int:
        return self.elems.shape[0]


def _graded_down(start: float, delta: float, ratio: float, max_size: float):
    """Cell sizes from coordinate `start` down to 0, growing away from `start`."""
    sizes = []
    total = 0.0
    s = delta * ratio
    while total < start:
        sizes.append(min(s, max_size))
        total += sizes[-1]
        s *= ratio
    scale = start / total
    sizes = [sz * scale for sz in sizes]
    coords = [start]
    for sz in sizes:
        coords.append(coords[-1] - sz)
    coords[-1] = 0.0
    return np.array(coords[::-1])


_PRESETS = {
    # delta, fine cells left of the tip, fine band half-width (cells),
    # grading ratio, max coarse cell size
    "coarse": (1.0 / 120.0, 4, 16, 1.40, 0.10),
    "refined": (1.0 / 360.0, 8, 10, 1.35, 0.10),
    "smoke": (1.0 / 40.0, 3, 5, 1.50, 0.20),
}


def build_sent_mesh(level: str = "coarse") -> Mesh:
    """SENT plate mesh at one of the preset resolutions.

    The plate is the unit square (mm); the notch runs along y = 0.5 from
    x = 0 to the center node at x = 0.5 and is a geometric seam: nodes on
    that segment exist twice, once for the elements below and once above.
    """
    if level not in _PRESETS:
        raise ConfigurationError(f"mesh level must be one of {MESH_LEVELS}, got '{level}'")
    delta, fine_left, band, ratio, max_size = _PRESETS[level]

    x_fine_start = 0.5 - fine_left * delta
    xs_fine = x_fine_start + delta * np.arange(round((1.0 - x_fine_start) / delta) + 1)
    xs_fine[-1] = 1.0
    xs = np.concatenate([_graded_down(x_fine_start, delta, ratio, max_size)[:-1], xs_fine])

    b = band * delta
    ys_band = (0.5 - b) + delta * np.arange(2 * band + 1)
    ys_low = _graded_down(0.5 - b, delta, ratio, max_size)[:-1]
    ys_high = 1.0 - _graded_down(0.5 - b, delta, ratio, max_size)[:-1][::-1]
    ys = np.concatenate([ys_low, ys_band, ys_high])

    # grid node (i, j) is node i * ny + j; element (i, j) is element i * (ny - 1) + j
    nx, ny = len(xs), len(ys)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    j0 = int(np.argmin(np.abs(ys - 0.5)))
    assert abs(ys[j0] - 0.5) < 1e-12
    i_tip = int(np.argmin(np.abs(xs - 0.5)))
    assert abs(xs[i_tip] - 0.5) < 1e-12

    # seam nodes strictly left of the tip get a copy, numbered after the grid
    seam = np.arange(i_tip) * ny + j0
    copies = nx * ny + np.arange(i_tip)
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    nodes = np.vstack([nodes, nodes[seam]])

    I, J = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    elems = (I * ny + J).reshape(-1, 1) + np.array([0, ny, ny + 1, 1])  # CCW from (i, j)
    # the row of elements just above the seam takes the copies as its lower corners
    remap = np.arange(nx * ny)
    remap[seam] = copies
    elems[j0::ny - 1, :2] = remap[elems[j0::ny - 1, :2]]

    bottom = np.arange(nx) * ny
    return Mesh(nodes, elems, bottom, bottom + ny - 1, np.column_stack([seam, copies]),
                i_tip * ny + j0, delta)


def element_jacobians(mesh: Mesh) -> np.ndarray:
    """det J at every Gauss point, shape (ne, 4); all must be positive."""
    return _precompute_bmats(mesh)[1]


# ---------------------------------------------------------------------------
# Q4 machinery
# ---------------------------------------------------------------------------

_CORNERS = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]])  # (xi, eta) of the Q4 nodes, CCW
_GAUSS_PTS = _CORNERS / math.sqrt(3.0)  # 2x2 Gauss rule, unit weights


def _q4_dshape(xi, eta):
    """dN_a/d(xi, eta) of the bilinear shape functions, shape (4, 2)."""
    return 0.25 * _CORNERS * (1 + _CORNERS[:, ::-1] * [eta, xi])


def _precompute_bmats(mesh: Mesh):
    """B matrices (ne, 4, 3, 8) and detJ*w = detJ (ne, 4) for 2x2 Gauss quadrature."""
    ne = mesh.n_elems
    coords = mesh.nodes[mesh.elems]  # (ne, 4, 2)
    B = np.zeros((ne, 4, 3, 8))
    detjw = np.zeros((ne, 4))
    for gp, (xi, eta) in enumerate(_GAUSS_PTS):
        dN = _q4_dshape(xi, eta)  # (4, 2)
        J = np.einsum("ak,eai->eki", dN, coords)  # (ne, 2, 2)
        detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        invJ = np.empty_like(J)
        invJ[:, 0, 0] = J[:, 1, 1]
        invJ[:, 1, 1] = J[:, 0, 0]
        invJ[:, 0, 1] = -J[:, 0, 1]
        invJ[:, 1, 0] = -J[:, 1, 0]
        invJ /= detJ[:, None, None]
        dNdx = np.einsum("ak,eik->eai", dN, invJ)  # (ne, 4, 2)
        B[:, gp, 0, 0::2] = dNdx[:, :, 0]
        B[:, gp, 1, 1::2] = dNdx[:, :, 1]
        B[:, gp, 2, 0::2] = dNdx[:, :, 1]
        B[:, gp, 2, 1::2] = dNdx[:, :, 0]
        detjw[:, gp] = detJ
    return B, detjw


def _stiffness_blocks(mesh: Mesh, elast: Elasticity):
    """B matrices (ne, 4, 3, 8), per-Gauss-point stiffness blocks
    B^T D B detJ w (ne, 4, 8, 8) and the element dof map (ne, 8)."""
    B, detjw = _precompute_bmats(mesh)
    if np.any(detjw <= 0.0):
        raise ConfigurationError("mesh has non-positive Jacobians")
    DB = np.einsum("ij,egjk->egik", elasticity_tensor(elast), B)
    K0 = np.einsum("egji,egjk->egik", B, DB) * detjw[:, :, None, None]
    dofs = np.empty((mesh.n_elems, 8), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.elems
    dofs[:, 1::2] = 2 * mesh.elems + 1
    return B, K0, dofs


# Bounds of the CG solve on a kept factor (`ReducedSystem.solve`), measured on
# the coarse SENT curve of tests/test_sent_reference.py (743 solves, one
# thread), when CG started from the factor's own solution and stopped on the
# residual alone. A residual bound of 1e-12 |b| keeps every step's iteration
# count and the curve within 3e-11 of the reference; 1e-10 lets max damage
# drift by 2.3e-9, past the 1e-9 gate, and 1e-13 costs about 20% more time. A
# cap of 25 iterations refactored 15 times, at about 13 CG iterations per
# solve; a cap of 15 refactored 45 times (a wash), and 40 refactored 6 times
# but ran 18% longer. CG_RTOL also bounds the last correction relative to |x|.
# With the start from the last two solutions the same run refactors 11 times
# at about 11.7 CG iterations, and 8.6 thousand back-solves instead of 11.0.
CG_RTOL = 1e-12
CG_MAXITER = 25


class ReducedSystem:
    """The free-free block A(w) of sum_g w_g K0_g and its Dirichlet lift, for
    one element dof map and one set of fixed dofs.

    Built once: the CSC pattern of the free-free block, the flat index of
    every free-free element-matrix entry and the CSC slot it adds to, and the
    same index for the free-row, fixed-column entries of the lift. `solve`
    then assembles by one scatter-add per call, with no global matrix.

    A fresh factor is SuperLU in symmetric mode under the minimum-degree
    ordering of A^T + A. One whose smallest U pivot is below n eps times its
    largest raises `np.linalg.LinAlgError`: the fixed dofs leave a rigid
    motion, or the weights a disconnected part, free. The last factor that
    passed this check is kept. While every weight is positive, a later call
    solves A(w) x = b by CG preconditioned by that factor, with one back-solve
    per iteration. CG starts from the point of least A-norm error in
    span{x_k, x_k - x_(k-1)} of the last two solutions returned, or from the
    factor's own solution of the system before there are two or when they
    are parallel in the A-norm. It stops at the first iterate, never the
    start, whose residual is below CG_RTOL |b| and whose last correction is
    at most CG_RTOL |x|: where the weights sit at the stiffness floor, an
    error of the start enters the residual scaled by the floor, but the
    correction that removes it in full. (An error whose residual is below
    round-off stays unseen by either test.) The answer is kept when CG stops
    within CG_MAXITER iterations and the explicitly computed residual is at
    most CG_RTOL |b|; otherwise the plan releases the old factor and factors
    afresh.
    The CG path needs no pivot check: with A(w0) the matrix of the kept
    factor, A(w) >= (min w / max w0) A(w0) in the Loewner order, so a
    positive weight field gives a symmetric positive definite A(w). A zero
    weight (a stiffness floor of 0), or one at most n eps times the largest
    (zero to the precision of the pivot check, as a saturated law gives
    without a floor), always takes the fresh factor, so CG never hides a
    singular matrix. `solves`, `factorizations`, `cg_iterations` and
    `back_solves` (triangular-solve pairs on any factor) count the work
    since the plan was built.
    """

    def __init__(self, K0: np.ndarray, dofs: np.ndarray, fixed: np.ndarray):
        self.K0, self.dofs = K0, dofs
        self.free = np.flatnonzero(~fixed)
        n = self.n = self.free.size
        free_index = np.full(fixed.size, -1)
        free_index[self.free] = np.arange(n)
        # element-matrix entry (e, i, j) sits at flat index 64 e + 8 i + j
        rows = free_index[np.repeat(dofs, 8, axis=1).ravel()]
        cols_global = np.tile(dofs, (1, 8)).ravel()
        cols = free_index[cols_global]
        self.ff_idx = np.flatnonzero((rows >= 0) & (cols >= 0))
        # CSC order: by column, then by row
        keys, self.slot = np.unique(cols[self.ff_idx] * n + rows[self.ff_idx], return_inverse=True)
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // n, minlength=n), out=self.indptr[1:])
        self.lift_idx = np.flatnonzero((rows >= 0) & (cols < 0))
        self.lift_row, self.lift_col = rows[self.lift_idx], cols_global[self.lift_idx]
        self.Ke = np.empty((dofs.shape[0], 8, 8))  # element matrices of the last assembly
        self._ff_vals = np.empty(self.ff_idx.size)
        self._lu = None  # the last factor that passed the pivot check
        self._recent = []  # the last two solutions returned, oldest first
        self.solves = self.factorizations = self.cg_iterations = self.back_solves = 0

    def matrix(self, weights: np.ndarray) -> sp.csc_matrix:
        """Element matrices sum_g w_g K0_g, scattered into the free-free block."""
        np.einsum("eg,egik->eik", weights, self.K0, out=self.Ke)
        np.take(self.Ke.ravel(), self.ff_idx, out=self._ff_vals)
        data = np.bincount(self.slot, weights=self._ff_vals, minlength=self.indices.size)
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def lift(self, u: np.ndarray) -> np.ndarray:
        """-K[free, fixed] @ u[fixed] for the last assembly's element matrices."""
        vals = self.Ke.ravel()[self.lift_idx] * u[self.lift_col]
        return -np.bincount(self.lift_row, weights=vals, minlength=self.n)

    def solve(self, weights: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Complete u, which holds the prescribed values on the fixed dofs, by
        solving the free rows of K u = 0; returns u."""
        self.solves += 1
        A = self.matrix(weights)
        b = self.lift(u)
        positive = weights.min() > self.n * np.finfo(float).eps * weights.max()
        x = self._solve_on_kept_factor(A, b) if self._lu is not None and positive else None
        if x is None:
            self._lu = None  # release the old factor before SuperLU allocates the new one
            self._lu = self._factor(A)
            x = self._back_solve(b)
        self._recent = [*self._recent[-1:], x]
        u[self.free] = x
        return u

    def _back_solve(self, r: np.ndarray) -> np.ndarray:
        self.back_solves += 1
        return self._lu.solve(r)

    def _solve_on_kept_factor(self, A: sp.csc_matrix, b: np.ndarray) -> np.ndarray | None:
        """CG on A x = b preconditioned by the kept factor, one back-solve per
        iteration; None when it does not converge within CG_MAXITER
        iterations or leaves an explicit residual above CG_RTOL |b|."""
        if not b.any():
            return np.zeros(self.n)
        x, r = self._start(A, b)
        r_tol = CG_RTOL * np.linalg.norm(b)
        p, rho = np.zeros(self.n), 1.0  # so that the first direction is M^-1 r0
        for k in range(1, CG_MAXITER + 1):
            z = self._back_solve(r)
            rho, rho_prev = r @ z, rho
            p = z + (rho / rho_prev) * p
            q = A @ p
            alpha = rho / (p @ q)
            x += alpha * p
            r -= alpha * q
            if np.linalg.norm(r) < r_tol and abs(alpha) * np.linalg.norm(p) <= CG_RTOL * np.linalg.norm(x):
                break
        else:
            self.cg_iterations += CG_MAXITER
            return None
        self.cg_iterations += k
        return x if np.linalg.norm(b - A @ x) <= r_tol else None

    def _start(self, A: sp.csc_matrix, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x0 and r0 = b - A x0 for CG: the point of least A-norm error in
        span{x_k, x_k - x_(k-1)} of the last two solutions (three matvecs and a
        2x2 solve), or the kept factor's own solution while there are fewer
        or that 2x2 system is singular."""
        if len(self._recent) == 2:
            V = np.column_stack([self._recent[1], self._recent[1] - self._recent[0]])
            G = V.T @ (A @ V)
            # det G = G00 G11 (1 - cos^2) of the A-angle between the two; near 0 the
            # solve would lose x0 to cancellation (the test is false when not finite)
            if np.linalg.det(G) > 1e-12 * G[0, 0] * G[1, 1]:
                x = V @ np.linalg.solve(G, V.T @ b)
                return x, b - A @ x
        x = self._back_solve(b)
        return x, b - A @ x

    def _factor(self, A: sp.csc_matrix):
        """Symmetric-mode SuperLU factor of A, checked for a singular pivot."""
        self.factorizations += 1
        try:
            lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise np.linalg.LinAlgError(f"reduced stiffness is singular ({exc})") from None
        pivots = np.abs(lu.U.diagonal())
        if pivots.size and not pivots.min() > self.n * np.finfo(float).eps * pivots.max():
            raise np.linalg.LinAlgError(
                f"reduced stiffness is singular: smallest pivot {pivots.min():.3g}, "
                f"largest {pivots.max():.3g}")
        return lu

    def element_forces(self, u: np.ndarray) -> np.ndarray:
        """Ke u_e of the last assembly, shape (ne, 8)."""
        return np.einsum("eij,ej->ei", self.Ke, u[self.dofs])


# ---------------------------------------------------------------------------
# Config, results
# ---------------------------------------------------------------------------

@dataclass
class SimulationConfig:
    """Material, law, loading, and solver settings for a SENT run."""

    E: float = 210.0
    nu: float = 0.3
    Gc: float = 2.7e-3
    law_kind: str = "exponential"
    law_n: float | None = None
    ell: float | None = None          # absolute internal length (mm)
    ell_factor: float | None = 1.0462  # else ell = ell_factor * mesh.dx
    u_max: float = 8.0e-3
    du_coarse: float = 1.0e-4
    du_fine: float = 1.0e-5
    u_switch: float | None = None      # switch to du_fine at this displacement
    stop_reaction_fraction: float = 0.15
    staggered_tol: float = 1.0e-6
    max_staggered_iters: int = 50      # crack-propagation steps may need a few hundred
    max_halvings: int = 10
    stiffness_floor: float = 1.0e-8    # residual factor so a ruptured plate stays solvable
    field_every: int = 0               # snapshot cadence in accepted steps, 0 = end only

    def __post_init__(self):
        for name in ("max_staggered_iters", "max_halvings", "field_every"):
            setattr(self, name, integral(name, getattr(self, name)))
        check_law_kind(self.law_kind, self.law_n)
        Elasticity(self.E, self.nu, "plane_strain")  # raises on E <= 0 or nu outside (-1, 0.5)
        if not (self.Gc > 0.0):
            raise ConfigurationError("Gc must be positive")
        if self.ell is not None and not self.ell > 0.0:
            raise ConfigurationError("ell must be positive")
        if self.ell_factor is not None and not self.ell_factor > 0.0:
            raise ConfigurationError("ell_factor must be positive")
        if not (self.u_max > 0.0 and self.du_coarse > 0.0 and self.du_fine > 0.0):
            raise ConfigurationError("u_max and the displacement increments must be positive")
        if not (self.staggered_tol > 0.0 and self.max_staggered_iters >= 1):
            raise ConfigurationError("staggered_tol must be positive and iteration cap >= 1")
        if not (0.0 <= self.stop_reaction_fraction < 1.0):
            raise ConfigurationError(
                f"stop_reaction_fraction must lie in [0, 1), got {self.stop_reaction_fraction}")
        for name in ("max_halvings", "u_switch", "stiffness_floor", "field_every"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")

    def resolve_ell(self, mesh: Mesh) -> float:
        if self.ell is not None:
            return self.ell
        if self.ell_factor is None:
            raise ConfigurationError("either ell or ell_factor must be set")
        return self.ell_factor * mesh.dx

    def law(self, mesh: Mesh) -> DamageLaw:
        return DamageLaw(self.law_kind, G=self.Gc, ell=self.resolve_ell(mesh), n=self.law_n)


@dataclass(frozen=True)
class LoadStepResult:
    step: int
    u_top: float
    reaction: float
    max_damage: float
    iterations: int


@dataclass
class SentResult:
    steps: list
    stored_energy: list
    external_work: list
    snapshots: list = field(default_factory=list)  # (step, nodal damage, nodal disp)
    gp_damage: np.ndarray | None = None
    # run totals, rejected attempts included: linear solves (one per staggered
    # iteration), fresh factorizations, CG iterations on a kept factor, and
    # triangular-solve pairs on any factor
    staggered_iterations: int = 0
    factorizations: int = 0
    cg_iterations: int = 0
    back_solves: int = 0

    @property
    def peak_reaction(self) -> float:
        return max(s.reaction for s in self.steps)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

class SentSolver:
    """Staggered solver bound to one mesh and one configuration."""

    def __init__(self, mesh: Mesh, config: SimulationConfig):
        self.mesh = mesh
        self.config = config
        self.elast = Elasticity(config.E, config.nu, "plane_strain")
        self.law = config.law(mesh)
        self.B, K0, self.edofs = _stiffness_blocks(mesh, self.elast)
        self.ndof = 2 * mesh.n_nodes
        self.top_uy = 2 * mesh.top_nodes + 1
        fixed = np.zeros(self.ndof, dtype=bool)
        fixed[2 * mesh.bottom_nodes] = True
        fixed[2 * mesh.bottom_nodes + 1] = True
        fixed[self.top_uy] = True
        self.system = ReducedSystem(K0, self.edofs, fixed)
        self.top_mask = np.isin(self.edofs, self.top_uy)  # element entries summed into the reaction

        # node-by-element matrix taking the mean over the elements at each node
        corners = mesh.elems.ravel()
        count = np.bincount(corners, minlength=mesh.n_nodes)
        self.averaging = sp.csr_matrix(
            (1.0 / count[corners], (corners, np.repeat(np.arange(mesh.n_elems), 4))),
            shape=(mesh.n_nodes, mesh.n_elems))

        self.eta = np.zeros((mesh.n_elems, 4))
        self.u = np.zeros(self.ndof)

    # -- one load step ----------------------------------------------------

    def solve_step(self, u_top: float):
        """Staggered iteration at fixed top displacement.

        Returns (u, eta_trial, reaction, iterations, stored_energy), the
        reaction and the stored energy 1/2 u^T K u taken from the element
        forces of the last iteration's stiffness K; raises NonConvergenceError
        when the fixed point is not reached or K is singular.
        """
        cfg = self.config
        eta_trial = self.eta.copy()
        u_prev = self.u
        for it in range(1, cfg.max_staggered_iters + 1):
            g = np.maximum(law_degradation(self.law, eta_trial), cfg.stiffness_floor)
            u = np.zeros(self.ndof)
            u[self.top_uy] = u_top
            try:
                self.system.solve(g, u)
            except np.linalg.LinAlgError as exc:
                raise NonConvergenceError(f"u_top={u_top}, staggered iteration {it}: {exc}") from None
            strains = np.einsum("egij,ej->egi", self.B, u[self.edofs])
            phi_p = tensile_energy_density(strains, self.elast)
            eta_trial = np.maximum(self.eta, phi_p)
            du = np.linalg.norm(u - u_prev)
            ref = max(np.linalg.norm(u), 1e-30)
            u_prev = u
            if du <= cfg.staggered_tol * ref:
                forces = self.system.element_forces(u)
                reaction = float(forces[self.top_mask].sum())
                return u, eta_trial, reaction, it, 0.5 * float(np.vdot(forces, u[self.edofs]))
        raise NonConvergenceError(
            f"staggered loop not converged after {cfg.max_staggered_iters} iterations at u_top={u_top}"
        )

    # -- full program -----------------------------------------------------

    def run(self) -> SentResult:
        cfg = self.config
        switch = cfg.u_switch if cfg.u_switch is not None else 0.8 * cfg.u_max
        targets = []
        u = 0.0
        while u < cfg.u_max - 1e-15:
            du = cfg.du_coarse if u < switch else cfg.du_fine
            u = min(u + du, cfg.u_max)
            targets.append(u)

        result = SentResult(steps=[], stored_energy=[0.0], external_work=[0.0])
        counts0 = self._solver_counts()
        step_no = 0
        u_prev = 0.0
        r_prev = 0.0
        work = 0.0
        peak_seen = 0.0
        pending = list(reversed(targets))
        while pending:
            target = pending.pop()
            halvings = 0
            while True:
                try:
                    u_vec, eta_new, reaction, iters, energy = self.solve_step(target)
                    break
                except NonConvergenceError as exc:
                    halvings += 1
                    if halvings > cfg.max_halvings:
                        raise NonConvergenceError(
                            f"step to u_top={target} rejected after {cfg.max_halvings} halvings ({exc})"
                        ) from None
                    pending.append(target)
                    target = 0.5 * (u_prev + target)
            # commit
            self.u = u_vec
            self.eta = eta_new
            step_no += 1
            dmg = law_damage(self.law, eta_new)
            result.steps.append(
                LoadStepResult(step_no, target, reaction, float(dmg.max()), iters)
            )
            work += 0.5 * (r_prev + reaction) * (target - u_prev)
            result.external_work.append(work)
            result.stored_energy.append(energy)
            if cfg.field_every and step_no % cfg.field_every == 0:
                result.snapshots.append((step_no, *self.nodal_fields()))
            peak_seen = max(peak_seen, reaction)
            u_prev, r_prev = target, reaction
            if (
                cfg.stop_reaction_fraction > 0.0
                and peak_seen > 0.0
                and reaction < cfg.stop_reaction_fraction * peak_seen
                and target > switch
            ):
                break
        result.snapshots.append((step_no, *self.nodal_fields()))
        result.gp_damage = np.asarray(law_damage(self.law, self.eta))
        (result.staggered_iterations, result.factorizations, result.cg_iterations,
         result.back_solves) = (int(c) for c in self._solver_counts() - counts0)
        return result

    def _solver_counts(self) -> np.ndarray:
        s = self.system
        return np.array([s.solves, s.factorizations, s.cg_iterations, s.back_solves])

    def nodal_fields(self):
        """Element-averaged damage projected to nodes, and nodal displacement."""
        dmg_e = np.asarray(law_damage(self.law, self.eta)).mean(axis=1)
        return self.averaging @ dmg_e, self.u.reshape(-1, 2)


def run_sent(config: SimulationConfig, mesh: Mesh | None = None, level: str = "coarse") -> SentResult:
    """Build (or take) a mesh, run the displacement program, return the curve."""
    if mesh is None:
        mesh = build_sent_mesh(level)
    return SentSolver(mesh, config).run()


def solve_elastic_dirichlet(mesh: Mesh, elast: Elasticity, fixed_dofs, fixed_vals) -> np.ndarray:
    """Undamaged linear solve with arbitrary Dirichlet data (patch tests, oracles)."""
    _, K0, dofs = _stiffness_blocks(mesh, elast)
    ndof = 2 * mesh.n_nodes
    fixed_dofs = np.asarray(fixed_dofs, dtype=int)
    fixed = np.zeros(ndof, dtype=bool)
    fixed[fixed_dofs] = True
    u = np.zeros(ndof)
    u[fixed_dofs] = fixed_vals
    try:
        return ReducedSystem(K0, dofs, fixed).solve(np.ones(K0.shape[:2]), u)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(f"the fixed dofs leave a rigid motion free: {exc}") from None


# ---------------------------------------------------------------------------
# Damage-band connectivity (post-processing)
# ---------------------------------------------------------------------------

def damaged_band_connected(mesh: Mesh, gp_damage: np.ndarray, threshold: float = 0.9) -> bool:
    """True when elements with max Gauss damage >= threshold form a connected
    band from the notch tip to the far (x = 1) edge.

    Hot elements are adjacent when they share an edge, so elements meeting
    at a corner, or across the notch seam's duplicated nodes, are not. The
    band starts from the hot elements at the tip node, or, when there are
    none, from the hot element whose centroid is nearest the tip.
    """
    hot = np.flatnonzero(gp_damage.max(axis=1) >= threshold)
    if hot.size == 0:
        return False
    conn = mesh.elems[hot]
    edges = np.sort(np.stack([conn, np.roll(conn, -1, axis=1)], axis=2), axis=2).reshape(-1, 2)
    _, edge_id = np.unique(edges, axis=0, return_inverse=True)
    incidence = sp.csr_matrix(
        (np.ones(edges.shape[0]), (np.repeat(np.arange(hot.size), 4), edge_id.ravel())))
    _, label = csgraph.connected_components(incidence @ incidence.T, directed=False)

    tip = mesh.nodes[mesh.notch_tip]
    seeds = np.flatnonzero(np.any(conn == mesh.notch_tip, axis=1))
    if seeds.size == 0:
        seeds = np.argmin(np.linalg.norm(mesh.nodes[conn].mean(axis=1) - tip, axis=1))
    band = conn[np.isin(label, label[seeds])]
    return bool(np.any(np.abs(mesh.nodes[band, 0] - mesh.nodes[:, 0].max()) < 1e-12))
