import dataclasses
import hashlib

import numpy as np
import pytest

from cdfdamage import fem2d
from cdfdamage.continuum import Elasticity
from cdfdamage.errors import ConfigurationError
from cdfdamage.fem2d import (
    Mesh,
    SentSolver,
    SimulationConfig,
    build_sent_mesh,
    damaged_band_connected,
    element_jacobians,
    run_sent,
    solve_elastic_dirichlet,
    tensile_energy_density,
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
    K = fem2d._assemble(solver.K0, solver.edofs, np.ones((m.n_elems, 4)), solver.ndof)
    r_ref = float(np.sum((K @ u_ref)[2 * m.top_nodes + 1]))
    assert reaction == pytest.approx(r_ref, rel=1e-3)


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

def test_tensile_energy_matches_spectral_split():
    from cdfdamage.continuum import spectral_split

    rng = np.random.default_rng(2)
    el = Elasticity(210.0, 0.3)
    for _ in range(500):
        exx, eyy, gxy = rng.uniform(-0.01, 0.01, size=3)
        voigt = np.array([exx, eyy, gxy])
        eps = np.array([[exx, 0.5 * gxy], [0.5 * gxy, eyy]])
        want = spectral_split(eps, el).phi_plus
        got = tensile_energy_density(voigt, el)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-20)


def test_eta_monotone_and_energy_bookkeeping():
    m = build_sent_mesh("smoke")
    cfg = SimulationConfig(law_kind="exponential", ell_factor=1.0462, u_max=5e-3,
                           du_coarse=2e-4, du_fine=1e-4, u_switch=4e-3,
                           stop_reaction_fraction=0.0, max_staggered_iters=400)
    solver = SentSolver(m, cfg)
    eta_prev = solver.eta.copy()
    # drive manually so we can watch eta after every accepted step
    for target in np.arange(2e-4, 4.2e-3, 2e-4):
        u, eta, reaction, iters, K = solver.solve_step(float(target))
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
    from cdfdamage.errors import NonConvergenceError

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
