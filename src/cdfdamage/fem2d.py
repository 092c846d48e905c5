"""Q4 plane-strain FEM with CDF-damage constitutive updates at Gauss points.

Single-edge-notched tension setup: unit square, horizontal notch seam
from the left edge to the center at mid-height (duplicated node pairs),
bottom edge fully fixed, vertical displacement driven on the top edge.
Meshes are tensor-product grids, uniform at the target element size in a
band around the notch/ligament line and geometrically graded outside it.

The solver is a staggered secant scheme: assemble the stiffness with the
degradation factor frozen at each Gauss point, solve the linear system,
re-split the strains to update the tensile driving energy and history,
repeat to a fixed-point of the nodal solution. The history variable is
committed only when a step is accepted; rejected steps are retried with
halved increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .continuum import Elasticity, elasticity_tensor
from .damage_laws import DamageLaw, check_law_kind, damage as law_damage, degradation as law_degradation
from .errors import ConfigurationError, NonConvergenceError

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

    nx, ny = len(xs), len(ys)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return i * ny + j

    j0 = int(np.argmin(np.abs(ys - 0.5)))
    assert abs(ys[j0] - 0.5) < 1e-12
    i_tip = int(np.argmin(np.abs(xs - 0.5)))
    assert abs(xs[i_tip] - 0.5) < 1e-12

    # duplicate seam nodes strictly left of the tip
    dup_map = {}
    extra = []
    for i in range(i_tip):
        orig = nid(i, j0)
        dup_map[orig] = nodes.shape[0] + len(extra)
        extra.append(nodes[orig])
    nodes = np.vstack([nodes, np.array(extra)]) if extra else nodes

    elems = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            n00, n10, n11, n01 = nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)
            if j == j0:  # element sits on top of the seam line
                n00 = dup_map.get(n00, n00)
                n10 = dup_map.get(n10, n10)
            elems.append((n00, n10, n11, n01))
    elems = np.array(elems, dtype=np.int64)

    bottom = np.array([nid(i, 0) for i in range(nx)], dtype=np.int64)
    top = np.array([nid(i, ny - 1) for i in range(nx)], dtype=np.int64)
    seam_pairs = np.array([[orig, dup] for orig, dup in sorted(dup_map.items())], dtype=np.int64)
    return Mesh(nodes, elems, bottom, top, seam_pairs, nid(i_tip, j0), delta)


def element_jacobians(mesh: Mesh) -> np.ndarray:
    """det J at every Gauss point, shape (ne, 4); all must be positive."""
    _, _, detjw = _precompute_bmats(mesh)
    return detjw / _GAUSS_W


# ---------------------------------------------------------------------------
# Q4 machinery
# ---------------------------------------------------------------------------

_GP = 1.0 / math.sqrt(3.0)
_GAUSS_PTS = [(-_GP, -_GP), (_GP, -_GP), (_GP, _GP), (-_GP, _GP)]
_GAUSS_W = 1.0


def _q4_dshape(xi, eta):
    return 0.25 * np.array(
        [
            [-(1 - eta), -(1 - xi)],
            [+(1 - eta), -(1 + xi)],
            [+(1 + eta), +(1 + xi)],
            [-(1 + eta), +(1 - xi)],
        ]
    )


def _precompute_bmats(mesh: Mesh):
    """B matrices (ne, 4, 3, 8) and detJ*w (ne, 4) for 2x2 Gauss quadrature."""
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
        detjw[:, gp] = detJ * _GAUSS_W
    return B, coords, detjw


def tensile_energy_density(strains: np.ndarray, elast: Elasticity) -> np.ndarray:
    """phi+ of Voigt plane strains (..., 3) by the in-plane spectral split."""
    exx, eyy, gxy = strains[..., 0], strains[..., 1], strains[..., 2]
    exy = 0.5 * gxy
    c = 0.5 * (exx + eyy)
    r = np.sqrt((0.5 * (exx - eyy)) ** 2 + exy**2)
    l1, l2 = c + r, c - r
    p1, p2 = np.maximum(l1, 0.0), np.maximum(l2, 0.0)
    trp = p1 + p2
    return 0.5 * elast.lam * trp * trp + elast.mu * (p1 * p1 + p2 * p2)


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
        check_law_kind(self.law_kind, self.law_n)
        if not (-1.0 < self.nu < 0.5):
            raise ConfigurationError(f"nu must lie in (-1, 0.5), got {self.nu}")
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
        if self.max_halvings < 0:
            raise ConfigurationError(f"max_halvings must be >= 0, got {self.max_halvings}")

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
    converged: bool


@dataclass
class SentResult:
    steps: list
    stored_energy: list
    external_work: list
    snapshots: list = field(default_factory=list)  # (step, nodal damage, nodal disp)
    mesh: Mesh | None = None
    gp_eta: np.ndarray | None = None
    gp_damage: np.ndarray | None = None

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
        self.D = elasticity_tensor(self.elast)
        self.B, _, self.detjw = _precompute_bmats(mesh)
        if np.any(self.detjw <= 0.0):
            raise ConfigurationError("mesh has non-positive Jacobians")
        # per-gauss-point elastic stiffness blocks B^T D B detJ w
        DB = np.einsum("ij,egjk->egik", self.D, self.B)
        self.K0 = np.einsum("egji,egjk->egik", self.B, DB) * self.detjw[:, :, None, None]
        dofs = np.empty((mesh.n_elems, 8), dtype=np.int64)
        dofs[:, 0::2] = 2 * mesh.elems
        dofs[:, 1::2] = 2 * mesh.elems + 1
        self.edofs = dofs
        self.rows = np.repeat(dofs, 8, axis=1).ravel()
        self.cols = np.tile(dofs, (1, 8)).ravel()
        self.ndof = 2 * mesh.n_nodes

        fixed = np.zeros(self.ndof, dtype=bool)
        fixed[2 * mesh.bottom_nodes] = True
        fixed[2 * mesh.bottom_nodes + 1] = True
        fixed[2 * mesh.top_nodes + 1] = True
        self.fixed_mask = fixed
        self.free = np.flatnonzero(~fixed)
        self.top_uy = 2 * mesh.top_nodes + 1

        self.eta = np.zeros((mesh.n_elems, 4))
        self.u = np.zeros(self.ndof)

    # -- assembly and linear solve --------------------------------------

    def _assemble(self, gvals: np.ndarray) -> sp.csr_matrix:
        data = np.einsum("eg,egik->eik", gvals, self.K0).ravel()
        K = sp.coo_matrix((data, (self.rows, self.cols)), shape=(self.ndof, self.ndof))
        return K.tocsr()

    def _solve_linear(self, K: sp.csr_matrix, u_top: float) -> np.ndarray:
        u = np.zeros(self.ndof)
        u[self.top_uy] = u_top
        rhs = -K[:, self.fixed_mask] @ u[self.fixed_mask]
        Kff = K[self.free][:, self.free]
        u[self.free] = spla.spsolve(Kff.tocsc(), rhs[self.free])
        return u

    def _gp_strains(self, u: np.ndarray) -> np.ndarray:
        ue = u[self.edofs]  # (ne, 8)
        return np.einsum("egij,ej->egi", self.B, ue)

    # -- one load step ----------------------------------------------------

    def solve_step(self, u_top: float):
        """Staggered iteration at fixed top displacement.

        Returns (u, eta_trial, reaction, iterations); raises
        NonConvergenceError when the fixed point is not reached.
        """
        cfg = self.config
        eta_trial = self.eta.copy()
        u_prev = self.u
        iterations = 0
        for it in range(1, cfg.max_staggered_iters + 1):
            iterations = it
            g = np.maximum(law_degradation(self.law, eta_trial), cfg.stiffness_floor)
            K = self._assemble(g)
            u = self._solve_linear(K, u_top)
            strains = self._gp_strains(u)
            phi_p = tensile_energy_density(strains, self.elast)
            eta_trial = np.maximum(self.eta, phi_p)
            du = np.linalg.norm(u - u_prev)
            ref = max(np.linalg.norm(u), 1e-30)
            u_prev = u
            if du <= cfg.staggered_tol * ref:
                f_int = K @ u
                reaction = float(np.sum(f_int[self.top_uy]))
                return u, eta_trial, reaction, iterations, K
        raise NonConvergenceError(
            f"staggered loop not converged after {cfg.max_staggered_iters} iterations at u_top={u_top}"
        )

    # -- full program -----------------------------------------------------

    def run(self) -> SentResult:
        cfg = self.config
        mesh = self.mesh
        switch = cfg.u_switch if cfg.u_switch is not None else 0.8 * cfg.u_max
        targets = []
        u = 0.0
        while u < cfg.u_max - 1e-15:
            du = cfg.du_coarse if u < switch else cfg.du_fine
            u = min(u + du, cfg.u_max)
            targets.append(u)

        result = SentResult(steps=[], stored_energy=[0.0], external_work=[0.0], mesh=mesh)
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
                    u_vec, eta_new, reaction, iters, K = self.solve_step(target)
                    break
                except NonConvergenceError:
                    halvings += 1
                    if halvings > cfg.max_halvings:
                        raise NonConvergenceError(
                            f"step to u_top={target} rejected after {cfg.max_halvings} halvings"
                        )
                    pending.append(target)
                    target = 0.5 * (u_prev + target)
            # commit
            self.u = u_vec
            self.eta = eta_new
            step_no += 1
            dmg = law_damage(self.law, eta_new)
            result.steps.append(
                LoadStepResult(step_no, target, reaction, float(dmg.max()), iters, True)
            )
            work += 0.5 * (r_prev + reaction) * (target - u_prev)
            result.external_work.append(work)
            result.stored_energy.append(0.5 * float(self.u @ (K @ self.u)))
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
        result.gp_eta = self.eta.copy()
        result.gp_damage = np.asarray(law_damage(self.law, self.eta))
        return result

    def nodal_fields(self):
        """Element-averaged damage projected to nodes, and nodal displacement."""
        dmg_e = np.asarray(law_damage(self.law, self.eta)).mean(axis=1)
        acc = np.zeros(self.mesh.n_nodes)
        cnt = np.zeros(self.mesh.n_nodes)
        for corner in range(4):
            np.add.at(acc, self.mesh.elems[:, corner], dmg_e)
            np.add.at(cnt, self.mesh.elems[:, corner], 1.0)
        nodal_damage = acc / np.maximum(cnt, 1.0)
        disp = self.u.reshape(-1, 2)
        return nodal_damage, disp


def run_sent(config: SimulationConfig, mesh: Mesh | None = None, level: str = "coarse") -> SentResult:
    """Build (or take) a mesh, run the displacement program, return the curve."""
    if mesh is None:
        mesh = build_sent_mesh(level)
    return SentSolver(mesh, config).run()


def solve_elastic_dirichlet(mesh: Mesh, elast: Elasticity, fixed_dofs, fixed_vals) -> np.ndarray:
    """Undamaged linear solve with arbitrary Dirichlet data (patch tests, oracles)."""
    D = elasticity_tensor(elast)
    B, _, detjw = _precompute_bmats(mesh)
    DB = np.einsum("ij,egjk->egik", D, B)
    K0 = np.einsum("egji,egjk->egik", B, DB) * detjw[:, :, None, None]
    dofs = np.empty((mesh.n_elems, 8), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.elems
    dofs[:, 1::2] = 2 * mesh.elems + 1
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    ndof = 2 * mesh.n_nodes
    K = sp.coo_matrix((K0.sum(axis=1).ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()
    fixed = np.zeros(ndof, dtype=bool)
    fixed[np.asarray(fixed_dofs, dtype=int)] = True
    u = np.zeros(ndof)
    u[np.asarray(fixed_dofs, dtype=int)] = fixed_vals
    free = np.flatnonzero(~fixed)
    rhs = -K[:, fixed] @ u[fixed]
    u[free] = spla.spsolve(K[free][:, free].tocsc(), rhs[free])
    return u


# ---------------------------------------------------------------------------
# Damage-band connectivity (post-processing)
# ---------------------------------------------------------------------------

def damaged_band_connected(mesh: Mesh, gp_damage: np.ndarray, threshold: float = 0.9) -> bool:
    """True when elements with max Gauss damage >= threshold form a connected
    band from the notch tip to the far (x = 1) edge."""
    hot = np.flatnonzero(gp_damage.max(axis=1) >= threshold)
    if hot.size == 0:
        return False
    edge_map = {}
    for e in hot:
        conn = mesh.elems[e]
        for a in range(4):
            key = tuple(sorted((int(conn[a]), int(conn[(a + 1) % 4]))))
            edge_map.setdefault(key, []).append(int(e))
    adj = {int(e): set() for e in hot}
    for elems in edge_map.values():
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                adj[elems[i]].add(elems[j])
                adj[elems[j]].add(elems[i])
    tip = mesh.notch_tip
    xmax = mesh.nodes[:, 0].max()
    seeds = [int(e) for e in hot if tip in mesh.elems[e]]
    if not seeds:
        # fall back to hot elements nearest the tip column
        tx = mesh.nodes[tip]
        d = [float(np.linalg.norm(mesh.nodes[mesh.elems[e]].mean(axis=0) - tx)) for e in hot]
        seeds = [int(hot[int(np.argmin(d))])]
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        e = stack.pop()
        for nb in adj[e]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    for e in seen:
        if np.any(np.abs(mesh.nodes[mesh.elems[e], 0] - xmax) < 1e-12):
            return True
    return False
