"""Output checks that the benchmark computes apart from the program.

Every function returns a list of problems (empty when the output is right),
so one run can report all that is wrong with it. Nothing here calls the
program's solvers: the SENT checks read the files ``cdfdamage sent`` wrote
and solve their own Q4 elastic problem, and the law checks integrate the
program's degradation and density functions with scipy quadrature.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.special as sps
from scipy import integrate

LIGAMENT_MM = 0.5  # the SENT notch runs from x = 0 to the plate centre


# ---------------------------------------------------------------------------
# reading the SENT outputs
# ---------------------------------------------------------------------------

def read_curve(path):
    """load_displacement.csv -> dict of column arrays."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}


def read_vtk(path):
    """(nodes (nn, 2), elems (ne, 4), nodal damage (nn,)) from a legacy ASCII VTK file."""
    with open(path) as f:
        lines = f.read().splitlines()
    i = 0
    nodes = elems = damage = None
    while i < len(lines):
        head = lines[i].split()
        if head[:1] == ["POINTS"]:
            nn = int(head[1])
            nodes = np.array([lines[i + 1 + k].split()[:2] for k in range(nn)], dtype=float)
            i += nn
        elif head[:1] == ["CELLS"]:
            ne = int(head[1])
            elems = np.array([lines[i + 1 + k].split()[1:5] for k in range(ne)], dtype=np.int64)
            i += ne
        elif head[:2] == ["SCALARS", "damage"]:
            nn = nodes.shape[0]
            damage = np.array(lines[i + 2:i + 2 + nn], dtype=float)
            i += nn + 1
        i += 1
    if nodes is None or elems is None or damage is None:
        raise ValueError(f"{path}: POINTS, CELLS or the damage scalars are missing")
    return nodes, elems, damage


# ---------------------------------------------------------------------------
# Q4 plane-strain elasticity, written apart from cdfdamage.fem2d
# ---------------------------------------------------------------------------

def q4_stiffness(nodes, elems, E, nu):
    """Global stiffness of bilinear quads, 2x2 Gauss, plane strain, dofs (ux, uy) per node."""
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    D = np.array([[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]])
    X = nodes[elems]  # (ne, 4, 2)
    ne = elems.shape[0]
    ke = np.zeros((ne, 8, 8))
    r = 1.0 / math.sqrt(3.0)
    for xi, eta in ((-r, -r), (r, -r), (r, r), (-r, r)):
        dxi = 0.25 * np.array([-(1 - eta), 1 - eta, 1 + eta, -(1 + eta)])
        deta = 0.25 * np.array([-(1 - xi), -(1 + xi), 1 + xi, 1 - xi])
        j11, j12 = dxi @ X[:, :, 0].T, dxi @ X[:, :, 1].T      # dx/dxi, dy/dxi
        j21, j22 = deta @ X[:, :, 0].T, deta @ X[:, :, 1].T    # dx/deta, dy/deta
        det = j11 * j22 - j12 * j21
        # dN/dx = ( j22 dN/dxi - j12 dN/deta)/det, dN/dy = (-j21 dN/dxi + j11 dN/deta)/det
        dx = (np.outer(j22, dxi) - np.outer(j12, deta)) / det[:, None]
        dy = (-np.outer(j21, dxi) + np.outer(j11, deta)) / det[:, None]
        B = np.zeros((ne, 3, 8))
        B[:, 0, 0::2] = dx
        B[:, 1, 1::2] = dy
        B[:, 2, 0::2] = dy
        B[:, 2, 1::2] = dx
        ke += np.einsum("eji,jk,ekl->eil", B, D, B) * det[:, None, None]
    dofs = np.empty((ne, 8), dtype=np.int64)
    dofs[:, 0::2] = 2 * elems
    dofs[:, 1::2] = 2 * elems + 1
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    n = 2 * nodes.shape[0]
    return sp.csr_matrix((ke.ravel(), (rows, cols)), shape=(n, n))


def solve_dirichlet(K, fixed, values):
    """Displacements with u[fixed] = values and zero force on the free dofs."""
    n = K.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[fixed] = True
    u = np.zeros(n)
    u[fixed] = values
    free = np.flatnonzero(~mask)
    Kff = K[free][:, free].tocsc()
    u[free] = spla.spsolve(Kff, -(K[free][:, mask] @ u[mask]))
    return u


def elastic_sent_reaction(nodes, elems, E, nu, u_top):
    """Top-edge reaction of the undamaged SENT plate: bottom clamped, top uy = u_top."""
    y = nodes[:, 1]
    bottom = np.flatnonzero(np.abs(y - y.min()) < 1e-12)
    top = np.flatnonzero(np.abs(y - y.max()) < 1e-12)
    fixed = np.concatenate([2 * bottom, 2 * bottom + 1, 2 * top + 1])
    values = np.concatenate([np.zeros(2 * bottom.size), np.full(top.size, u_top)])
    K = q4_stiffness(nodes, elems, E, nu)
    u = solve_dirichlet(K, fixed, values)
    return float(np.sum((K @ u)[2 * top + 1]))


def patch_test(seed: int = 0) -> list:
    """Constant-strain patch test of q4_stiffness on a distorted 4x4 patch."""
    rng = np.random.default_rng(seed)
    m = 4
    xs, ys = np.meshgrid(np.linspace(0.0, 1.0, m + 1), np.linspace(0.0, 1.0, m + 1), indexing="ij")
    nodes = np.column_stack([xs.ravel(), ys.ravel()])
    inner = (xs.ravel() > 0) & (xs.ravel() < 1) & (ys.ravel() > 0) & (ys.ravel() < 1)
    nodes[inner] += rng.uniform(-0.08, 0.08, size=(int(inner.sum()), 2))
    elems = np.array([(i * (m + 1) + j, (i + 1) * (m + 1) + j, (i + 1) * (m + 1) + j + 1,
                       i * (m + 1) + j + 1) for i in range(m) for j in range(m)], dtype=np.int64)
    A = np.array([[1.0e-3, 4.0e-4], [-2.0e-4, 7.0e-4]])
    exact = nodes @ A.T + np.array([1e-4, -3e-4])
    boundary = np.flatnonzero(~inner)
    fixed = np.concatenate([2 * boundary, 2 * boundary + 1])
    values = np.concatenate([exact[boundary, 0], exact[boundary, 1]])
    u = solve_dirichlet(q4_stiffness(nodes, elems, 210.0, 0.3), fixed, values)
    err = float(np.max(np.abs(u.reshape(-1, 2) - exact)))
    return [] if err <= 1e-12 else [f"Q4 patch test: interior error {err:.3e} > 1e-12"]


# ---------------------------------------------------------------------------
# SENT checks
# ---------------------------------------------------------------------------

def check_reaction_curve(u, reaction) -> list:
    """Monotone rise to one interior peak, and a tail below 20% of the peak."""
    probs = []
    k = int(np.argmax(reaction))
    peak = float(reaction[k])
    if not (0 < k < len(reaction) - 1):
        probs.append(f"reaction peak at step {k + 1} of {len(reaction)} is not interior")
    if np.any(np.diff(reaction[:k + 1]) <= -1e-9 * peak):
        probs.append("reaction does not rise monotonically to its peak")
    if k + 1 < len(reaction) and np.max(reaction[k + 1:]) >= peak:
        probs.append("reaction has a second peak")
    if not reaction[-1] < 0.2 * peak:
        probs.append(f"final reaction {reaction[-1]:.4g} is not below 20% of the peak {peak:.4g}")
    if np.any(np.diff(u) <= 0.0):
        probs.append("top displacement does not increase")
    return probs


def averaging_matrix(elems, n_nodes):
    """The map from element values to the mean over the elements at each node."""
    ne = elems.shape[0]
    A = sp.csr_matrix((np.ones(4 * ne), (elems.ravel(), np.repeat(np.arange(ne), 4))),
                      shape=(n_nodes, ne))
    return sp.diags(1.0 / np.maximum(np.asarray(A.sum(axis=1)).ravel(), 1.0)) @ A


def element_damage(elems, nodal):
    """Element damage behind the written nodal field, and the largest misfit.

    The program writes each node's damage as the mean of the element damage
    around it. That averaging matrix has full column rank on the SENT meshes
    (more nodes than elements; condition number ~230 on the smoke mesh), so
    least squares gives the element values back; a field that is no such
    mean leaves a misfit.
    """
    A = averaging_matrix(elems, nodal.size)
    d = spla.spsolve((A.T @ A).tocsc(), A.T @ nodal)
    return d, float(np.max(np.abs(A @ d - nodal)))


def band_reaches_edge(nodes, elems, elem_damage, threshold=0.9) -> bool:
    """True when elements with damage >= `threshold` connect the notch tip
    to the right edge; the flood fill walks shared element edges."""
    hot = elem_damage >= threshold
    tip = np.flatnonzero(np.hypot(nodes[:, 0] - 0.5, nodes[:, 1] - 0.5) < 1e-9)
    edge_owner = {}
    for e in np.flatnonzero(hot):
        conn = elems[e]
        for a in range(4):
            key = (min(conn[a], conn[(a + 1) % 4]), max(conn[a], conn[(a + 1) % 4]))
            edge_owner.setdefault(key, []).append(int(e))
    neighbours = {}
    for owners in edge_owner.values():
        for a in owners:
            neighbours.setdefault(a, set()).update(b for b in owners if b != a)
    start = [int(e) for e in np.flatnonzero(hot) if np.isin(elems[e], tip).any()]
    xmax = nodes[:, 0].max()
    seen = set(start)
    queue = deque(start)
    while queue:
        e = queue.popleft()
        if np.any(np.abs(nodes[elems[e], 0] - xmax) < 1e-12):
            return True
        for nb in neighbours.get(e, ()):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return False


def check_band(nodes, elems, nodal) -> list:
    """The written nodal damage is an element average, and its elements with
    damage >= 0.9 form a band from the notch tip to the right edge."""
    d, misfit = element_damage(elems, nodal)
    if not misfit <= 1e-6:
        return [f"nodal damage is not the mean of element values (misfit {misfit:.3e})"]
    if not band_reaches_edge(nodes, elems, d):
        return ["no band of element damage >= 0.9 from the notch tip to the right edge"]
    return []


def check_secant(u1, r1, d1, elastic_r1) -> list:
    """First-step secant stiffness against the undamaged solve.

    With every degradation factor in [1 - d1, 1] the reaction at a given
    displacement lies in [(1 - d1) R_el, R_el] (both are twice the minimum
    energy over the same admissible set, divided by u1).
    """
    ratio = r1 / elastic_r1
    slack = 1e-6
    if (1.0 - d1) - slack <= ratio <= 1.0 + slack:
        return []
    return [f"first-step secant stiffness {ratio:.6f} x elastic lies outside [{1 - d1:.6f}, 1]"]


def external_work(u, reaction) -> float:
    """Trapezoid integral of the reaction over the top displacement, from the origin."""
    uu = np.concatenate([[0.0], u])
    rr = np.concatenate([[0.0], reaction])
    return float(np.sum(0.5 * (rr[1:] + rr[:-1]) * np.diff(uu)))


def check_griffith_work(u, reaction, Gc) -> list:
    work = external_work(u, reaction)
    bound = Gc * LIGAMENT_MM
    if work >= bound:
        return []
    return [f"external work {work:.4e} is below the Griffith bound Gc x ligament = {bound:.4e}"]


# ---------------------------------------------------------------------------
# law-table checks
# ---------------------------------------------------------------------------

def _quad(f, a, b, kinks=()):
    pts = sorted(p for p in kinks if a < p < b)
    val, _ = integrate.quad(f, a, b, points=pts or None, limit=400, epsabs=1e-15, epsrel=1e-12)
    return val


def integral_from_zero(f, x, scale, kinks=()):
    """integral_0^x f, split at multiples of `scale` so long decaying tails stay accurate."""
    cuts = [0.0] + [c for c in scale * np.array([0.25, 1.0, 4.0, 16.0, 64.0, 256.0]) if c < x] + [x]
    return sum(_quad(f, a, b, kinks) for a, b in zip(cuts[:-1], cuts[1:]))


def check_close(name, got, want, rtol, atol=0.0) -> list:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want)
    bad = err > rtol * np.abs(want) + atol
    if not np.any(bad):
        return []
    i = int(np.argmax(err - rtol * np.abs(want)))
    return [f"{name}: {int(bad.sum())} of {bad.size} values off, worst {got.flat[i]!r} vs {want.flat[i]!r}"]


def check_special(erf_got, erf_x, gam_got, gam_a, gam_x, hyp_got, hyp_args) -> list:
    probs = check_close("special.erf vs scipy.special.erf", erf_got, sps.erf(erf_x), 1e-12, 1e-300)
    probs += check_close("special.reg_lower_gamma vs scipy.special.gammainc",
                         gam_got, sps.gammainc(gam_a, gam_x), 1e-12, 1e-300)
    a, b, c, z = np.asarray(hyp_args).T
    probs += check_close("special.hyp2f1 vs scipy.special.hyp2f1", hyp_got, sps.hyp2f1(a, b, c, z), 1e-12)
    return probs


def check_nonincreasing(name, values, rtol=1e-12) -> list:
    v = np.asarray(values, dtype=float)
    if np.all(np.diff(v) <= rtol * np.abs(v[:-1]) + 1e-300):
        return []
    return [f"{name}: not non-increasing"]


def check_nondecreasing(name, values, atol=0.0) -> list:
    if np.all(np.diff(np.asarray(values, dtype=float)) >= -atol):
        return []
    return [f"{name}: decreases"]
