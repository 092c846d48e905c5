import dataclasses
import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cdfdamage import fem2d
from cdfdamage.continuum import Elasticity
from cdfdamage.damage_laws import degradation as law_degradation
from cdfdamage.errors import ConfigurationError, NonConvergenceError
from cdfdamage.fem2d import (
    Mesh,
    SentSolver,
    SimulationConfig,
    build_sent_mesh,
    damaged_band_connected,
    element_jacobians,
    run_sent,
    solve_elastic_dirichlet,
)


def grid_mesh(nx, ny, lx=1.0, ly=1.0):
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return i * (ny + 1) + j

    elems = [
        (nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1))
        for i in range(nx)
        for j in range(ny)
    ]
    bottom = np.array([nid(i, 0) for i in range(nx + 1)])
    top = np.array([nid(i, ny) for i in range(nx + 1)])
    return Mesh(nodes, np.array(elems), bottom, top, np.zeros((0, 2), int), 0, lx / nx)


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "level,target,dx",
    [("coarse", 3520, 1.0 / 120.0), ("refined", 9280, 1.0 / 360.0)],
)
def test_sent_mesh_counts_and_sizes(level, target, dx):
    m = build_sent_mesh(level)
    assert abs(m.n_elems / target - 1.0) <= 0.10
    assert m.dx == pytest.approx(dx, rel=1e-12)
    # band elements actually have the advertised size
    jac = element_jacobians(m)
    assert np.all(jac > 0.0)
    assert np.isclose(np.sqrt(4.0 * jac.min()), dx, rtol=0.05) or jac.min() <= dx * dx / 4 * 1.05


def test_smoke_mesh_small():
    m = build_sent_mesh("smoke")
    assert m.n_elems <= 600
    assert np.all(element_jacobians(m) > 0.0)


def test_seam_topology():
    m = build_sent_mesh("smoke")
    assert len(m.seam_pairs) > 0
    for below, above in m.seam_pairs:
        assert np.allclose(m.nodes[below], m.nodes[above])
        assert below != above
        assert m.nodes[below][1] == pytest.approx(0.5)
        assert m.nodes[below][0] < 0.5
    # notch tip is a single shared node at the center
    assert np.allclose(m.nodes[m.notch_tip], [0.5, 0.5])
    assert m.notch_tip not in set(m.seam_pairs.ravel().tolist())


# sha256 of nodes, elems, bottom_nodes, top_nodes, seam_pairs and notch_tip
# as built by the element-by-element construction this mesh replaced
MESH_DIGESTS = {
    "smoke": "c30e4803922b112dfd6c77fb00ccc8705fb51bb4f5af3bd9272d16b8732810f5",
    "coarse": "e1fa9180afb486fdcd705080ee20424ed8eb40f63ee5a9977ee234adeb75c144",
    "refined": "729521a59aafa587facabd9aced58aae45fd33556e1baa8c31df655729d13607",
}


@pytest.mark.parametrize("level", sorted(MESH_DIGESTS))
def test_sent_mesh_arrays_pinned(level):
    m = build_sent_mesh(level)
    h = hashlib.sha256()
    for a, dtype in ((m.nodes, np.float64), (m.elems, np.int64), (m.bottom_nodes, np.int64),
                     (m.top_nodes, np.int64), (m.seam_pairs, np.int64),
                     (np.array([m.notch_tip]), np.int64)):
        assert a.dtype == dtype
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == MESH_DIGESTS[level]


def test_mesh_level_validation():
    with pytest.raises(ConfigurationError):
        build_sent_mesh("gigantic")


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SimulationConfig(du_coarse=0.0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(ell=-1.0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(Gc=0.0)
    # law kind and n follow the DamageLaw rule, and replace() re-validates
    for bad in (dict(law_kind="nosuch"), dict(law_kind="radical"),
                dict(law_kind="exponential", law_n=1.0), dict(nu=0.5), dict(nu=-1.0),
                dict(stop_reaction_fraction=1.0), dict(stop_reaction_fraction=-0.1),
                dict(max_halvings=-1), dict(E=0.0), dict(E=-1.0), dict(stiffness_floor=-1e-8),
                dict(field_every=-1), dict(u_switch=-1e-3)):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**bad)
    with pytest.raises(ConfigurationError):
        dataclasses.replace(SimulationConfig(), law_kind="nosuch")
    cfg = SimulationConfig(ell_factor=None, ell=None)
    with pytest.raises(ConfigurationError):
        cfg.resolve_ell(build_sent_mesh("smoke"))


def test_config_integer_settings():
    for name in ("max_staggered_iters", "max_halvings", "field_every"):
        for bad in (2.9, 2.5, math.inf):
            with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
                SimulationConfig(**{name: bad})
        value = getattr(SimulationConfig(**{name: 1e3}), name)
        assert value == 1000 and type(value) is int


def test_seam_opens_under_load():
    # a short pull must displace the seam's upper copy away from the lower
    m = build_sent_mesh("smoke")
    cfg = SimulationConfig(ell=1e-9, u_max=1e-3, du_coarse=1e-3, stop_reaction_fraction=0.0)
    solver = SentSolver(m, cfg)
    u, *_ = solver.solve_step(1e-3)
    disp = u.reshape(-1, 2)
    below, above = m.seam_pairs[0]
    assert disp[above, 1] - disp[below, 1] > 1e-5


# ---------------------------------------------------------------------------
# patch tests and the elastic limit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 2)])
def test_patch_test_affine_field(nx, ny):
    mesh = grid_mesh(nx, ny)
    el = Elasticity(210.0, 0.3)
    A = np.array([[1.3e-3, 0.4e-3], [0.4e-3, -0.7e-3]])
    exact = mesh.nodes @ A.T
    boundary = np.flatnonzero(
        (np.abs(mesh.nodes[:, 0]) < 1e-12) | (np.abs(mesh.nodes[:, 0] - 1) < 1e-12)
        | (np.abs(mesh.nodes[:, 1]) < 1e-12) | (np.abs(mesh.nodes[:, 1] - 1) < 1e-12)
    )
    fixed = np.concatenate([2 * boundary, 2 * boundary + 1])
    vals = np.concatenate([exact[boundary, 0], exact[boundary, 1]])
    u = solve_elastic_dirichlet(mesh, el, fixed, vals)
    assert np.allclose(u.reshape(-1, 2), exact, atol=1e-10)


def test_small_load_matches_undamaged_oracle():
    m = build_sent_mesh("smoke")
    cfg = SimulationConfig(law_kind="exponential", ell_factor=1.0462, u_max=1e-5,
                           du_coarse=1e-5, stop_reaction_fraction=0.0)
    solver = SentSolver(m, cfg)
    _, _, reaction, iters, _ = solver.solve_step(1e-5)
    el = Elasticity(cfg.E, cfg.nu)
    fixed = np.concatenate([2 * m.bottom_nodes, 2 * m.bottom_nodes + 1, 2 * m.top_nodes + 1])
    vals = np.concatenate([np.zeros(2 * len(m.bottom_nodes)), np.full(len(m.top_nodes), 1e-5)])
    u_ref = solve_elastic_dirichlet(m, el, fixed, vals)
    _, K0, dofs = fem2d._stiffness_blocks(m, el)
    K = _global_stiffness(K0, dofs, np.ones((m.n_elems, 4)))
    r_ref = float(np.sum((K @ u_ref)[2 * m.top_nodes + 1]))
    assert reaction == pytest.approx(r_ref, rel=1e-3)


# ---------------------------------------------------------------------------
# the reduced system against the global stiffness
# ---------------------------------------------------------------------------

def _global_stiffness(K0, dofs, weights):
    """sum_g w_g K0_g assembled into a global CSR matrix through COO."""
    ndof = int(dofs.max()) + 1
    data = np.einsum("eg,egik->eik", weights, K0).ravel()
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    return sp.coo_matrix((data, (rows, cols)), shape=(ndof, ndof)).tocsr()


def _sent_system():
    m = build_sent_mesh("smoke")
    solver = SentSolver(m, SimulationConfig())
    u = np.zeros(solver.ndof)
    u[solver.top_uy] = 1e-3
    return m, solver.system, u, solver.top_mask, solver.top_uy


def _grid_system():
    # arbitrary fixed dofs and values, enough to remove the rigid motions
    m = grid_mesh(5, 4)
    rng = np.random.default_rng(11)
    ndof = 2 * m.n_nodes
    fixed = rng.random(ndof) < 0.3
    fixed[[0, 1, 2 * m.top_nodes[-1]]] = True
    u = np.where(fixed, rng.standard_normal(ndof), 0.0)
    _, K0, dofs = fem2d._stiffness_blocks(m, Elasticity(210.0, 0.3))
    top_uy = 2 * m.top_nodes + 1
    return m, fem2d.ReducedSystem(K0, dofs, fixed), u, np.isin(dofs, top_uy), top_uy


@pytest.mark.parametrize("make", [_sent_system, _grid_system], ids=["smoke", "grid"])
def test_reduced_system_matches_global_matrix(make):
    m, system, u, top_mask, top_uy = make()
    rng = np.random.default_rng(5)
    weights = rng.uniform(1e-3, 1.0, (m.n_elems, 4))
    K = _global_stiffness(system.K0, system.dofs, weights)
    free = system.free
    fixed = np.setdiff1d(np.arange(K.shape[0]), free)

    A = system.matrix(weights)
    Kff = K[free][:, free]
    assert A.shape == Kff.shape and A.nnz == Kff.nnz
    assert abs(A - Kff).max() <= 1e-14 * abs(Kff).max()

    lift_ref = -(K[:, fixed] @ u[fixed])[free]
    np.testing.assert_allclose(system.lift(u), lift_ref, rtol=1e-14, atol=1e-14 * abs(lift_ref).max())

    v = rng.standard_normal(K.shape[0])
    forces = system.element_forces(v)
    assert forces[top_mask].sum() == pytest.approx((K @ v)[top_uy].sum(), rel=1e-12)
    assert np.vdot(forces, v[system.dofs]) == pytest.approx(v @ (K @ v), rel=1e-12)

    sol = system.solve(weights, u.copy())
    assert np.array_equal(sol[fixed], u[fixed])
    assert abs((K @ sol)[free]).max() <= 1e-10 * abs(K @ sol).max()


def test_singular_reduced_stiffness_raises():
    # only the bottom uy fixed: the horizontal translation is free
    m = grid_mesh(3, 3)
    with pytest.raises(ConfigurationError, match="rigid motion"):
        solve_elastic_dirichlet(m, Elasticity(210.0, 0.3), 2 * m.bottom_nodes + 1, 0.0)


def test_singular_stiffness_in_sent_step_names_the_iteration():
    # a fully broken row of elements across the plate, with no stiffness
    # floor, leaves the part above it free to slide horizontally
    m = build_sent_mesh("smoke")
    nx, ny, j0, i_tip, cell = _sent_cells(m)
    solver = SentSolver(m, SimulationConfig(stiffness_floor=0.0))
    solver.eta[[cell(i, 1) for i in range(nx - 1)]] = 1e300
    with pytest.raises(NonConvergenceError, match=r"u_top=0\.001, staggered iteration 1: .*singular"):
        solver.solve_step(1e-3)


def _process_zone_weights(m, rho):
    """Weights 1 outside a Gaussian dip to 1e-3 of radius rho at the notch tip."""
    r = np.linalg.norm(m.nodes[m.elems].mean(axis=1) - m.nodes[m.notch_tip], axis=1)
    return np.repeat((1.0 - (1.0 - 1e-3) * np.exp(-(r / rho) ** 2))[:, None], 4, axis=1)


def test_kept_factor_solves_match_fresh_factor():
    # a growing process zone, solved through one plan: the factor of the
    # undamaged plate serves the later fields through CG
    m, system, u, *_ = _sent_system()
    fields = [np.ones((m.n_elems, 4))] + [_process_zone_weights(m, rho) for rho in (0.01, 0.02, 0.03, 0.05)]
    for weights in fields:
        x = system.solve(weights, u.copy())[system.free]
        A, b = system.matrix(weights), system.lift(u)
        ref = spla.splu(A).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    assert system.solves == len(fields)
    assert system.factorizations < system.solves
    assert system.cg_iterations > 0


def test_weights_far_from_the_factor_refactor():
    m, system, u, *_ = _sent_system()
    system.solve(np.ones((m.n_elems, 4)), u.copy())
    assert system.factorizations == 1
    weights = np.random.default_rng(0).uniform(1e-6, 1.0, (m.n_elems, 4))
    x = system.solve(weights, u.copy())[system.free]
    assert system.factorizations == 2
    A, b = system.matrix(weights), system.lift(u)
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("seed", range(4))
def test_stale_start_in_a_floor_patch_is_corrected(seed):
    # The kept factor is the undamaged plate's; the solve's weights are at the
    # stiffness floor in a patch, and the last solution is exact except at the
    # nodes inside that patch. Its residual, 30 times the round-off of a fresh
    # solve, already meets the residual bound: only the size of the last CG
    # correction shows that the start is wrong.
    m, system, u, *_ = _sent_system()
    system.solve(np.ones((m.n_elems, 4)), u.copy())
    centroids = m.nodes[m.elems].mean(axis=1)
    patch = np.linalg.norm(centroids - m.nodes[m.notch_tip] - [0.1, 0.0], axis=1) < 0.065
    weights = np.ones((m.n_elems, 4))
    weights[patch] = SimulationConfig().stiffness_floor
    A, b = system.matrix(weights), system.lift(u)
    ref = spla.splu(A).solve(b)
    inside = np.setdiff1d(m.elems[patch], m.elems[~patch])
    stale = np.isin(system.free // 2, inside)
    error = np.where(stale, np.random.default_rng(seed).standard_normal(system.n), 0.0)
    error *= 30 * np.linalg.norm(b - A @ ref) / np.linalg.norm(A @ error)
    assert np.linalg.norm(A @ error) < 1e-12 * np.linalg.norm(b)
    system._recent = [system._recent[-1], ref + error]

    x = system.solve(weights, u.copy())[system.free]
    assert system.factorizations == 1  # answered on the kept factor
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


class _CountingFactor:
    def __init__(self, lu):
        self.lu, self.rhs = lu, []

    def solve(self, r):
        self.rhs.append(r.copy())
        return self.lu.solve(r)


def test_kept_factor_solve_back_solves():
    # one back-solve per CG iteration: no start solve, no probe of the
    # preconditioner with a zero vector
    m, system, u, *_ = _sent_system()
    for weights in (np.ones((m.n_elems, 4)), _process_zone_weights(m, 0.01)):
        system.solve(weights, u.copy())  # the factor, and two solutions to start from
    counting = system._lu = _CountingFactor(system._lu)
    for rho in (0.02, 0.03, 0.05):
        calls, iterations, back_solves = len(counting.rhs), system.cg_iterations, system.back_solves
        system.solve(_process_zone_weights(m, rho), u.copy())
        k = system.cg_iterations - iterations
        assert 1 <= len(counting.rhs) - calls <= max(k, 1)
        assert system.back_solves - back_solves == len(counting.rhs) - calls
    assert system.factorizations == 1
    assert all(r.any() for r in counting.rhs)


@pytest.mark.parametrize("law", [dict(law_kind="exponential"),
                                 dict(law_kind="hypergeometric", law_n=1.0)])
def test_broken_row_after_a_kept_factor_raises(law):
    # the exponential law breaks the row to weight 0; the hypergeometric one
    # saturates at 9e-309, positive but zero to the precision of the pivots
    m = build_sent_mesh("smoke")
    nx, ny, j0, i_tip, cell = _sent_cells(m)
    solver = SentSolver(m, SimulationConfig(stiffness_floor=0.0, **law))
    solver.solve_step(1e-4)
    assert solver.system.factorizations == 1
    broken = [cell(i, 1) for i in range(nx - 1)]
    weights = np.ones((m.n_elems, 4))
    weights[broken] = law_degradation(solver.law, 1e300)
    u = np.zeros(solver.ndof)
    u[solver.top_uy] = 1e-3
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solver.system.solve(weights, u)
    solver.eta[broken] = 1e300
    with pytest.raises(NonConvergenceError, match=r"u_top=0\.001, staggered iteration 1: .*singular"):
        solver.solve_step(1e-3)


@pytest.mark.parametrize("broken", [0.0, 1e-300])
def test_free_node_after_a_kept_factor_raises(broken):
    # the four elements around one node broken: the node is free, but its
    # residual row stays 0, so CG on the kept factor would return an answer
    m, system, u, *_ = _sent_system()
    system.solve(np.ones((m.n_elems, 4)), u.copy())
    weights = np.ones((m.n_elems, 4))
    weights[np.any(m.elems == m.notch_tip + 7, axis=1)] = broken
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        system.solve(weights, u.copy())
    assert system.factorizations == 2


def test_damage_disabled_is_linear():
    m = build_sent_mesh("smoke")
    cfg = SimulationConfig(ell=1e-12, u_max=4e-4, du_coarse=1e-4, stop_reaction_fraction=0.0)
    res = run_sent(cfg, mesh=m)
    us = np.array([s.u_top for s in res.steps])
    rs = np.array([s.reaction for s in res.steps])
    slopes = rs / us
    assert np.all(np.abs(slopes / slopes[0] - 1.0) <= 1e-8)
    assert max(s.max_damage for s in res.steps) <= 1e-8


# ---------------------------------------------------------------------------
# constitutive pieces
# ---------------------------------------------------------------------------

def test_eta_monotone_and_energy_bookkeeping():
    m = build_sent_mesh("smoke")
    cfg = SimulationConfig(law_kind="exponential", ell_factor=1.0462, u_max=5e-3,
                           du_coarse=2e-4, du_fine=1e-4, u_switch=4e-3,
                           stop_reaction_fraction=0.0, max_staggered_iters=400)
    solver = SentSolver(m, cfg)
    eta_prev = solver.eta.copy()
    # drive manually so we can watch eta after every accepted step
    for target in np.arange(2e-4, 4.2e-3, 2e-4):
        u, eta, reaction, iters, energy = solver.solve_step(float(target))
        solver.u, solver.eta = u, eta
        assert np.all(eta >= eta_prev - 1e-18)
        eta_prev = eta.copy()


def test_work_dominates_stored_energy_increment():
    m = build_sent_mesh("smoke")
    cfg = SimulationConfig(law_kind="exponential", ell_factor=1.0462, u_max=6.5e-3,
                           du_coarse=2e-4, du_fine=5e-5, u_switch=4e-3,
                           stop_reaction_fraction=0.10, max_staggered_iters=400)
    res = run_sent(cfg, mesh=m)
    work = np.array(res.external_work)
    stored = np.array(res.stored_energy)
    scale = max(work.max(), stored.max())
    d_work = np.diff(work)
    d_stored = np.diff(stored)
    assert np.all(d_work - d_stored >= -1e-8 * scale)


def test_determinism():
    m = build_sent_mesh("smoke")
    cfg = SimulationConfig(law_kind="exponential", ell_factor=1.0462, u_max=2e-3,
                           du_coarse=5e-4, stop_reaction_fraction=0.0)
    r1 = run_sent(cfg, mesh=m)
    r2 = run_sent(cfg, mesh=m)
    for a, b in zip(r1.steps, r2.steps):
        assert a.reaction == b.reaction and a.max_damage == b.max_damage


def test_band_connectivity_helper():
    m = grid_mesh(4, 4)
    ne = m.n_elems
    gp = np.zeros((ne, 4))
    assert not damaged_band_connected(m, gp)
    # elements are column-major (i*ny + j): row j=2 crosses from x=0 to x=1
    row = [i * 4 + 2 for i in range(4)]
    gp[row, :] = 0.95
    assert damaged_band_connected(m, gp)
    gp[row[2], :] = 0.0  # break the band
    assert not damaged_band_connected(m, gp)


def _sent_cells(m):
    """Grid sizes (nx, ny), notch row j0, tip column i_tip and the element id
    of cell (i, j) of the SENT mesh, whose elements run column by column."""
    xs, ys = np.unique(m.nodes[:, 0]), np.unique(m.nodes[:, 1])
    nx, ny = xs.size, ys.size
    i_tip, j0 = int(np.searchsorted(xs, 0.5)), int(np.searchsorted(ys, 0.5))

    def cell(i, j):
        e = i * (ny - 1) + j
        centre = m.nodes[m.elems[e]].mean(axis=0)
        assert xs[i] < centre[0] < xs[i + 1] and ys[j] < centre[1] < ys[j + 1]
        return e

    return nx, ny, j0, i_tip, cell


def test_band_not_connected_across_notch_seam():
    # hot cells: the row above the notch from the tip leftwards, the row below
    # it short of the tip, and a path from there down and across to x = 1;
    # the two rows meet only along the seam, whose nodes are duplicated
    m = build_sent_mesh("smoke")
    nx, ny, j0, i_tip, cell = _sent_cells(m)
    hot = [cell(i, j0) for i in range(i_tip)]
    hot += [cell(i, j0 - 1) for i in range(i_tip - 1)]
    hot += [cell(0, j) for j in range(1, j0 - 1)]
    hot += [cell(i, 1) for i in range(nx - 1)]
    gp = np.zeros((m.n_elems, 4))
    gp[hot] = 0.95
    assert not damaged_band_connected(m, gp)
    gp[cell(i_tip - 1, j0 - 1)] = 0.95  # the cell below the tip closes the path
    assert damaged_band_connected(m, gp)


def test_band_corner_contact_is_not_adjacent():
    m = grid_mesh(4, 4)  # notch_tip is node 0 at (0, 0)
    gp = np.zeros((m.n_elems, 4))
    gp[[i * 4 + i for i in range(4)], 0] = 0.95  # diagonal cells touch at corners only
    assert not damaged_band_connected(m, gp)
    gp[[i * 4 + i - 1 for i in range(1, 4)], 0] = 0.95  # a staircase shares edges
    assert damaged_band_connected(m, gp)


def test_band_fallback_seed_is_nearest_hot_element():
    # no hot element holds the tip node (0, 0): the walk starts from the hot
    # element whose centroid is nearest to it, and only from that one
    m = grid_mesh(4, 4)
    gp = np.zeros((m.n_elems, 4))
    gp[[i * 4 + 3 for i in range(4)]] = 0.95  # top row, reaches x = 1
    gp[1] = 0.95  # cell (0, 1), nearer the tip, isolated
    assert not damaged_band_connected(m, gp)
    gp[1] = 0.0
    assert damaged_band_connected(m, gp)


def _band_connected_reference(mesh, gp_damage, threshold=0.9):
    """The dict-and-stack flood fill over shared element edges."""
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
        for a in elems:
            adj[a].update(b for b in elems if b != a)
    tip = mesh.notch_tip
    seeds = [int(e) for e in hot if tip in mesh.elems[e]]
    if not seeds:
        d = [np.linalg.norm(mesh.nodes[mesh.elems[e]].mean(axis=0) - mesh.nodes[tip]) for e in hot]
        seeds = [int(hot[int(np.argmin(d))])]
    seen, stack = set(seeds), list(seeds)
    while stack:
        for nb in adj[stack.pop()] - seen:
            seen.add(nb)
            stack.append(nb)
    xmax = mesh.nodes[:, 0].max()
    return any(np.any(np.abs(mesh.nodes[mesh.elems[e], 0] - xmax) < 1e-12) for e in seen)


def test_band_connectivity_matches_reference_on_random_bands():
    m = build_sent_mesh("smoke")
    centre = m.nodes[m.elems].mean(axis=1)
    rng = np.random.default_rng(7)
    outcomes = []
    for _ in range(150):
        slope, width = rng.uniform(-0.3, 0.3), rng.uniform(0.005, 0.05)
        line = 0.5 + slope * (centre[:, 0] - 0.5)
        gp = np.exp(-((centre[:, 1] - line) / width) ** 2)[:, None] * rng.uniform(0.8, 1.1, (m.n_elems, 4))
        gp[centre[:, 0] < 0.5 - rng.uniform(0.0, 0.1)] = 0.0
        want = _band_connected_reference(m, gp)
        assert damaged_band_connected(m, gp) == want
        outcomes.append(want)
    assert 10 < sum(outcomes) < len(outcomes) - 10


def test_nodal_fields_average_element_damage():
    m = build_sent_mesh("smoke")
    solver = SentSolver(m, SimulationConfig(law_kind="exponential"))
    rng = np.random.default_rng(3)
    solver.eta = rng.uniform(0.0, 3.0 * solver.law.G / solver.law.ell, (m.n_elems, 4))
    solver.u = rng.standard_normal(solver.u.size)
    nodal, disp = solver.nodal_fields()
    dmg_e = np.asarray(fem2d.law_damage(solver.law, solver.eta)).mean(axis=1)
    acc, cnt = np.zeros(m.n_nodes), np.zeros(m.n_nodes)
    for corner in range(4):
        np.add.at(acc, m.elems[:, corner], dmg_e)
        np.add.at(cnt, m.elems[:, corner], 1.0)
    assert cnt.min() >= 1.0
    np.testing.assert_allclose(nodal, acc / cnt, rtol=1e-15, atol=0.0)
    assert np.array_equal(disp, solver.u.reshape(-1, 2))


def test_nonconvergence_reports_diagnostic():
    m = build_sent_mesh("smoke")
    cfg = SimulationConfig(law_kind="exponential", ell_factor=1.0462, u_max=7e-3,
                           du_coarse=7e-3, max_staggered_iters=2, max_halvings=1,
                           stop_reaction_fraction=0.0)
    with pytest.raises(NonConvergenceError):
        run_sent(cfg, mesh=m)


def test_vtk_writer_format(tmp_path):
    from cdfdamage.vtkio import write_vtk

    m = grid_mesh(2, 2)
    path = tmp_path / "f.vtk"
    write_vtk(path, m.nodes, m.elems,
              point_scalars={"damage": np.linspace(0, 1, m.n_nodes)},
              point_vectors={"displacement": np.zeros((m.n_nodes, 2))})
    text = path.read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 2.0"
    assert "ASCII" in text[:4]
    assert f"POINTS {m.n_nodes} double" in text
    assert f"CELLS {m.n_elems} {5 * m.n_elems}" in text
    assert f"POINT_DATA {m.n_nodes}" in text
    assert "SCALARS damage double 1" in text
    assert "VECTORS displacement double" in text
    counts = sum(1 for line in text if line == "9")
    assert counts == m.n_elems
