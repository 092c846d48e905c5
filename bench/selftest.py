#!/usr/bin/env python3
"""Self-tests of the benchmark's checks: each must reject a deliberately wrong output.

    python3 bench/selftest.py        # from the repository root; exits 1 on a failure

Takes about 25 s: it runs one smoke SENT job through the CLI to get a real
damage field and curve, and one round of the bar and law-table workloads.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import glob  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from cdfdamage import fem2d  # noqa: E402


def test_patch_test():
    assert checks.patch_test(seed=0) == []
    assert checks.patch_test(seed=1) == []


def test_sent_checks(tmp: Path):
    wl = workloads.SentWorkload(0, tmp, "smoke", (("exponential", None),))
    wl.run_round(lambda: None)
    assert wl.check() == [], wl.check()
    out = wl.jobs[0][2]
    curve = checks.read_curve(out / "load_displacement.csv")
    u, r = curve["u_top_mm"], curve["reaction_kN"]
    nodes, elems, damage = checks.read_vtk(sorted(glob.glob(str(out / "fields_*.vtk")))[-1])

    # a reaction curve that never softens
    hardening = np.cumsum(np.abs(r))
    assert checks.check_reaction_curve(u, hardening), "checks.check_reaction_curve(u, hardening)"
    # a dip on the way up, and a curve that ends at its peak
    dipped = r.copy()
    dipped[len(r) // 3] *= 0.5
    assert checks.check_reaction_curve(u, dipped), "checks.check_reaction_curve(u, dipped)"
    assert checks.check_reaction_curve(u[:-1], r[:-1]), "checks.check_reaction_curve(u[:-1], r[:-1])"

    # a disconnected damage band: heal one column of the band's elements
    assert checks.check_band(nodes, elems, damage) == []
    d_el, _ = checks.element_damage(elems, damage)
    A = checks.averaging_matrix(elems, nodes.shape[0])
    band = d_el >= 0.9
    cx = nodes[elems, 0].mean(axis=1)
    x_cut = cx[band][np.argmin(np.abs(cx[band] - 0.75))]
    healed = np.where(band & (np.abs(cx - x_cut) < 1e-12), 0.0, d_el)
    assert any("no band" in p for p in checks.check_band(nodes, elems, A @ healed))
    assert checks.check_band(nodes, elems, np.zeros_like(damage))
    # a diffuse zone three elements wide at d = 0.45: its nodal values along
    # the band are those of a sharp band of d = 0.9, but no element reaches 0.9
    zone = np.isin(elems, elems[band]).any(axis=1)
    diffuse = np.where(zone, 0.45, 0.0)
    assert np.all((A @ diffuse)[elems[band]] >= 0.45 - 1e-12)
    assert any("no band" in p for p in checks.check_band(nodes, elems, A @ diffuse))
    # a nodal field that is not the mean of element values
    off = damage.copy()
    off[np.argmax(damage)] += 0.01
    assert any("not the mean" in p for p in checks.check_band(nodes, elems, off))

    # a first step stiffer than the undamaged plate, or softer than its damage allows
    r_el = checks.elastic_sent_reaction(nodes, elems, workloads.E, workloads.NU, u[0])
    d1 = curve["max_damage"][0]
    assert checks.check_secant(u[0], r[0], d1, r_el) == []
    assert checks.check_secant(u[0], 1.001 * r_el, d1, r_el), "checks.check_secant(u[0], 1.001 * r_el, d1, r_el)"
    assert checks.check_secant(u[0], (1.0 - d1) * 0.99 * r_el, d1, r_el), "checks.check_secant(u[0], (1.0 - d1) * 0.99 * r_el, d1, r_el)"

    # the elastic reference agrees with the program's own undamaged solve
    mesh = fem2d.build_sent_mesh("smoke")
    fixed = np.concatenate([2 * mesh.bottom_nodes, 2 * mesh.bottom_nodes + 1, 2 * mesh.top_nodes + 1])
    vals = np.concatenate([np.zeros(2 * mesh.bottom_nodes.size), np.full(mesh.top_nodes.size, u[0])])
    u_prog = fem2d.solve_elastic_dirichlet(
        mesh, fem2d.Elasticity(workloads.E, workloads.NU, "plane_strain"), fixed, vals)
    K = checks.q4_stiffness(mesh.nodes, mesh.elems, workloads.E, workloads.NU)
    r_prog = float(np.sum((K @ u_prog)[2 * mesh.top_nodes + 1]))
    assert abs(r_prog / r_el - 1.0) < 1e-9, (r_prog, r_el)

    # external work below the Griffith bound
    assert checks.check_griffith_work(u, r, workloads.GC) == []
    assert checks.check_griffith_work(u, 0.3 * r, workloads.GC), "checks.check_griffith_work(u, 0.3 * r, workloads.GC)"


def test_bar_checks(tmp: Path):
    wl = workloads.BarWorkload(3, tmp)
    assert wl.run_round(lambda: None) == 1, "the beyond-peak operation should fail"
    assert wl.check() == [], wl.check()
    tag, prob, times, *_ = next(op for op in wl.ops if op[1].element_count <= 6
                                and isinstance(op[1].law, workloads.DamageLaw))
    traj, stab, bal = wl.results[tag]
    assert wl._check_one(prob, times, traj, stab, bal, False) == []

    # a crack set that differs from the oracle's: a crack at the first load step
    assert not traj.states[1].open_jumps
    bad = dataclasses.replace(traj)
    bad.states = list(traj.states)
    bad.states[1] = dataclasses.replace(traj.states[1], open_jumps=frozenset({1}))
    probs = wl._check_one(prob, times, bad, stab, bal, False)
    assert any("oracle" in p for p in probs), probs

    # uncracked energies off by 1e-6
    bad = dataclasses.replace(traj)
    bad.states = [s if s.open_jumps else dataclasses.replace(s, stored_energy=s.stored_energy * (1 + 1e-6))
                  for s in traj.states]
    assert any("quadrature" in p for p in wl._check_one(prob, times, bad, stab, bal, False))

    # an unstable trajectory whose timed certificate passed: the beyond-peak
    # bar given the passing certificate of another bar is caught by the
    # check's own certificate with 200 competitors
    bp = next(op for op in wl.ops if op[5])
    traj_bp, _, bal_bp = wl.results[bp[0]]
    assert bal_bp.passed
    wl.results[bp[0]] = (traj_bp, stab, bal_bp)
    assert any(p.startswith(f"bar {bp[0]}: stability") for p in wl.check()), wl.check()

    # a dissipation that is not gamma per new crack
    bad = dataclasses.replace(traj)
    bad.dissipation_increments = [1.5 * x for x in traj.dissipation_increments]
    bad.states = traj.states
    if traj.total_dissipation > 0:
        assert wl._check_one(prob, times, bad, stab, bal, False)


def test_law_checks(tmp: Path):
    wl = workloads.LawTablesWorkload(5, tmp)
    wl.run_round(lambda: None)
    assert wl.check() == [], wl.check()
    for kind in ("exponential", "halfnormal", "hypergeometric", "piecewise"):
        key = next(k for k in wl.out if k[0] == "psi" and k[1][0] == kind)
        psi, psi_inf = wl.out[key]
        wl.out[key] = (psi * (1.0 + 1e-6), psi_inf)  # psi perturbed by 1e-6 relative
        probs = wl.check()
        assert any(f"law {kind}: psi vs quadrature" in p for p in probs), (kind, probs)
        wl.out[key] = (psi, psi_inf)
    key = next(k for k in wl.out if k[0] == "cdf" and k[1][0] == "rational")
    cdf, pdf = wl.out[key]
    wl.out[key] = (cdf * (1.0 + 1e-6), pdf)
    assert any("cdf vs quadrature of pdf" in p for p in wl.check())
    wl.out[key] = (cdf, -pdf)
    assert any("negative density" in p for p in wl.check())
    wl.out[key] = (cdf, pdf)
    erf = list(wl.out["erf"])
    wl.out["erf"] = [v * (1.0 + 1e-11) for v in erf]
    assert any("special.erf" in p for p in wl.check())
    wl.out["erf"] = erf
    assert wl.check() == []


def test_layers():
    tracer = layers.Tracer()
    tracer.install()
    try:
        # every alias a consumer bound is wrapped, not only the defining name
        from cdfdamage import damage_laws, quasistatic, response_driver
        assert fem2d.law_degradation is damage_laws.degradation
        assert quasistatic.psi is damage_laws.psi
        assert response_driver.degradation is damage_laws.degradation
        assert fem2d.law_degradation.__wrapped__ is not None
        damage_laws.psi(damage_laws.DamageLaw("exponential"), np.ones(7))
        fem2d.law_degradation(damage_laws.DamageLaw("exponential"), np.ones(3))
    finally:
        tracer.uninstall()
    assert not hasattr(fem2d.law_degradation, "__wrapped__")
    assert tracer.calls["damage_laws.psi"] == 1 and tracer.count["damage_laws.psi_points"] == 7
    assert tracer.calls["damage_laws.degradation"] == 1
    tracer.require("selftest", ("damage_laws.psi",))
    try:
        tracer.require("selftest", ("fem2d.solve_step",))
    except layers.LayerNotReached:
        pass
    else:
        raise AssertionError("a layer with no calls was not reported")
    try:
        layers._resolve("cdfdamage.fem2d:no_such_function")
    except AttributeError:
        pass
    else:
        raise AssertionError("a missing trace target was not reported")


def main() -> int:
    root = Path.cwd() / ".bench_out"
    root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=root))
    failures = 0
    try:
        for test in (test_patch_test, test_layers, test_law_checks, test_bar_checks, test_sent_checks):
            sub = tmp / test.__name__
            sub.mkdir()
            try:
                test(sub) if test.__code__.co_argcount else test()
                print(f"ok    {test.__name__}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL  {test.__name__}: {exc!r}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
