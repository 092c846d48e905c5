"""The four benchmark workloads: inputs, one round of operations, and checks.

A workload builds its inputs from the seed in its constructor (part of
``setup_s``), runs identical rounds of operations in the timed phase, and
checks the outputs of the last round afterwards with ``checks.py``.
``run_round(tick)`` returns how many of its operations failed; it calls
``tick`` between operations so the speed clock can sample (``speed.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import io
import math
from pathlib import Path

import numpy as np

import checks
from cdfdamage import cli
from cdfdamage import damage_laws as dl
from cdfdamage import distributions as ds
from cdfdamage import quasistatic as qs
from cdfdamage import response_driver as rd
from cdfdamage import special
from cdfdamage.damage_laws import DamageLaw
from cdfdamage.distributions import DistributionSpec
from cdfdamage.errors import NoClosedFormError

# Loading and solver settings of docs/sent_smoke.cfg, written out per run so a
# later edit of the docs cannot change the benchmark's inputs.
SENT_CONFIG = """\
[material]
e = {E}
nu = {nu}
gc = {Gc}

[law]
kind = {kind}
{n_line}ell_factor = 1.0462

[mesh]
level = {level}

[loading]
u_max = 9e-3
du_coarse = 2e-4
du_fine = 5e-5
u_switch = 4e-3
stop_reaction_fraction = 0.15

[solver]
max_staggered_iters = 400

[output]
field_every = 0
"""
E, NU, GC = 210.0, 0.3, 2.7e-3

# Kinds whose smoke run converges under the settings above, chosen to cover a
# smooth law, a special-function law, the rapid-decay law with the longest
# rupture step, and the two threshold laws.
SMOKE_KINDS = (
    ("exponential", None),
    ("hypergeometric", 1.0),
    ("rapiddecay", None),
    ("piecewise", 1.0),
    ("power", 1.0),
)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class SentWorkload:
    """``cdfdamage sent`` runs, each writing CSV, VTK and a manifest."""

    layers = ("fem2d.sparse_solve", "fem2d.solve_step", "fem2d.split", "fem2d.build_mesh",
              "damage_laws.degradation", "vtkio.write", "cli.csv_write")

    def __init__(self, seed: int, workdir: Path, level: str, kinds):
        rng = np.random.default_rng(seed)
        self.level = level
        self.kinds = [kinds[i] for i in rng.permutation(len(kinds))]
        self.workdir = workdir
        self.jobs = []
        for kind, n in self.kinds:
            cfg = workdir / f"{level}-{kind}.cfg"
            cfg.write_text(SENT_CONFIG.format(E=E, nu=NU, Gc=GC, kind=kind, level=level,
                                              n_line="" if n is None else f"n = {n}\n"))
            self.jobs.append((kind, cfg, workdir / f"out-{level}-{kind}"))
        self.warm_cfg = workdir / "warm.cfg"
        self.warm_cfg.write_text(
            SENT_CONFIG.format(E=E, nu=NU, Gc=GC, kind="exponential", level="smoke", n_line="")
            .replace("u_max = 9e-3", "u_max = 4e-4"))
        self.failures = []

    @property
    def ops_per_round(self) -> int:
        return len(self.jobs)

    def warm_up(self):
        _quiet(cli.main, ["sent", "--config", str(self.warm_cfg),
                          "--out", str(self.workdir / "warm"), "--force"])

    def run_round(self, tick) -> int:
        failed = 0
        for kind, cfg, out in self.jobs:
            code = _quiet(cli.main, ["sent", "--config", str(cfg), "--out", str(out), "--force"])
            tick()
            if code != 0:
                failed += 1
                self.failures.append(f"sent {self.level}/{kind} exited with {code}")
        return failed

    def check(self) -> list:
        probs = list(self.failures)
        elastic = {}
        for kind, _, out in self.jobs:
            tag = f"{self.level}/{kind}: "
            vtks = sorted(glob.glob(str(out / "fields_*.vtk")))
            if not (out / "manifest.json").exists() or not vtks:
                probs.append(tag + "manifest.json or the field file is missing")
                continue
            curve = checks.read_curve(out / "load_displacement.csv")
            u, r = curve["u_top_mm"], curve["reaction_kN"]
            nodes, elems, damage = checks.read_vtk(vtks[-1])
            if self.level not in elastic:
                elastic[self.level] = checks.elastic_sent_reaction(nodes, elems, E, NU, 1.0)
            probs += [tag + p for p in checks.check_reaction_curve(u, r)]
            probs += [tag + p for p in checks.check_band(nodes, elems, damage)]
            probs += [tag + p for p in checks.check_secant(
                u[0], r[0], curve["max_damage"][0], elastic[self.level] * u[0])]
            probs += [tag + p for p in checks.check_griffith_work(u, r, GC)]
        return probs


# ---------------------------------------------------------------------------
# energetic bar
# ---------------------------------------------------------------------------

def _stress_peak(law, k):
    """Strain at the peak of the bar's effective stress, by golden section."""
    sat = qs.stored_density(law, 1e9)

    def stress(e):
        return qs.stiffness_factor(law, 0.5 * k * e * e) * k * e

    a, b = 0.0, 10.0 * math.sqrt(2.0 * sat / k)
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv * b, inv * b
    fc, fd = stress(c), stress(d)
    while (b - a) > 1e-10 * max(b, 1.0):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = stress(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = stress(d)
    return 0.5 * (a + b)


# (law, elements, steps, competitors, cracks allowed). One problem per slot per
# round, so the cost of a round hardly depends on the seed. The stratified
# slots follow the tests' random_problem, plus halfnormal, hypergeometric and
# a RawCdfLaw whose psi is a survival-integral quadrature (kept crack-free and
# short, since every energy costs one quadrature per element). 240 steps keep
# the trapezoid work error at a crack step under the balance tolerance.
BAR_SLOTS = (
    ("exponential", 2, 240, 10, True),
    ("logistic", 3, 240, 10, True),
    ("radical", 4, 240, 10, True),
    ("power", 5, 240, 10, True),
    ("halfnormal", 6, 240, 10, True),
    ("hypergeometric", 3, 240, 10, True),
    ("raw-exponential", 4, 240, 10, True),
    ("raw-halfnormal", 2, 25, 10, False),
    ("exponential", 16, 240, 10, True),
)
BEYOND_PEAK_COMPETITORS = 50
# The timed certificates sample few competitors per state, to fit rounds into
# a run; check() certifies the last round again with the program's default,
# on every RECHECK_EVERY-th state and the states around each crack opening.
CHECK_COMPETITORS = 200
RECHECK_EVERY = 4
ORACLE_MAX_ELEMENTS = 6


def _bar_law(name, rng):
    G, ell = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
    if name == "radical":
        return DamageLaw("radical", G=G, ell=ell, n=1.0)
    if name == "power":
        return DamageLaw("power", G=G, ell=ell, n=2.0)
    if name == "hypergeometric":
        return DamageLaw("hypergeometric", G=G, ell=ell, n=2.0)
    if name.startswith("raw-"):
        kind = name[4:]
        return qs.RawCdfLaw(DistributionSpec(kind, 1.0 if kind == "exponential" else None),
                            lam=float(rng.uniform(0.5, 2.0)))
    return DamageLaw(name, G=G, ell=ell)


def bar_problem(rng, law_name, n_el, steps, cracks):
    """Seeded problem whose uncracked states are globally stable:
    gamma <= 0.8 h W(eps_peak), as in the tests' random_problem."""
    law = _bar_law(law_name, rng)
    L, k = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
    eps_pk = _stress_peak(law, k)
    h = L / n_el
    gamma = float(rng.uniform(0.3, 0.8)) * h * float(qs.stored_density(law, 0.5 * k * eps_pk ** 2))
    lo, hi = 0.0, eps_pk  # mean strain at which the uncracked energy reaches gamma
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if L * qs.stored_density(law, 0.5 * k * mid * mid) < gamma else (lo, mid)
    g_end = float(rng.uniform(0.6, 2.5) if cracks else rng.uniform(0.5, 0.95)) * 0.5 * (lo + hi) * L
    prob = qs.BarProblem(element_count=n_el, bar_length=L, law=law, jump_cost=gamma,
                         boundary_knots=((0.0, 0.0), (1.0, g_end)), k=k)
    return prob, qs.uniform_times(1.0, steps)


def beyond_peak_problem():
    """The uncracked uniform stretch past the stress peak (ROADMAP item 4): the
    stability certificate fails on it at every seed of the certificate."""
    prob = qs.BarProblem(4, 1.0, DamageLaw("exponential"), 1e3, ((0.0, 0.0), (1.0, 3.0)))
    return prob, qs.uniform_times(1.0, 100)


def _recheck_states(traj):
    """The trajectory cut to every RECHECK_EVERY-th state, the states just
    before and at each crack opening, and the last state."""
    states = traj.states
    keep = set(range(0, len(states), RECHECK_EVERY)) | {len(states) - 1}
    for i in range(1, len(states)):
        if states[i].open_jumps != states[i - 1].open_jumps:
            keep |= {i - 1, i}
    return dataclasses.replace(traj, states=[states[i] for i in sorted(keep)])


class BarWorkload:
    """Energetic bar solves, each certified for stability and energy balance."""

    layers = ("quasistatic.solve", "quasistatic.state_energy", "quasistatic.certify_stability",
              "quasistatic.certify_balance", "damage_laws.psi", "distributions.survival_integral")

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.ops = []
        for i, (name, n_el, steps, comps, cracks) in enumerate(BAR_SLOTS):
            prob, times = bar_problem(rng, name, n_el, steps, cracks)
            self.ops.append((f"{name}/{n_el}", prob, times, comps, 1000 + i, False))
        prob, times = beyond_peak_problem()
        self.ops.append(("beyond-peak", prob, times, BEYOND_PEAK_COMPETITORS, 0, True))
        self.results = {}

    @property
    def ops_per_round(self) -> int:
        return len(self.ops)

    def warm_up(self):
        prob, times = bar_problem(np.random.default_rng(0), "exponential", 2, 10, True)
        qs.certify_stability(qs.solve(prob, times), prob, competitors=5)

    def run_round(self, tick) -> int:
        failed = 0
        for tag, prob, times, comps, cseed, known_fault in self.ops:
            traj = qs.solve(prob, times)
            tick()
            stab = qs.certify_stability(traj, prob, competitors=comps, seed=cseed)
            tick()
            bal = qs.certify_energy_balance(traj, prob)
            self.results[tag] = (traj, stab, bal)
            if known_fault and not (stab.passed and bal.passed):
                failed += 1
        return failed

    def check(self) -> list:
        probs = []
        for tag, prob, times, _, cseed, known_fault in self.ops:
            traj, stab, bal = self.results[tag]
            if known_fault and not (stab.passed and bal.passed):
                continue  # counted as the failed operation
            if stab.passed:
                stab = qs.certify_stability(_recheck_states(traj), prob,
                                            competitors=CHECK_COMPETITORS, seed=cseed)
            probs += [f"bar {tag}: {p}" for p in self._check_one(prob, times, traj, stab, bal, known_fault)]
        return probs

    @staticmethod
    def _check_one(prob, times, traj, stab, bal, known_fault):
        probs = []
        if not stab.passed:
            probs.append(f"stability certificate fails, worst margin {stab.worst_margin:.3e}")
        if not bal.passed:
            probs.append(f"energy balance fails, residual {bal.residual / bal.characteristic_energy:.3e}")
        # dissipation is gamma per new crack, and cracks never heal
        for prev, new, inc in zip(traj.states, traj.states[1:], traj.dissipation_increments):
            if not prev.open_jumps <= new.open_jumps:
                probs.append(f"a crack closed at t={new.time}")
                break
            if inc != prob.jump_cost * len(new.open_jumps - prev.open_jumps):
                probs.append(f"dissipation increment {inc} at t={new.time} is not gamma x new cracks")
                break
        if not math.isclose(traj.total_dissipation, prob.jump_cost * len(traj.states[-1].open_jumps),
                            rel_tol=1e-12):
            probs.append("total dissipation is not gamma x final crack count")
        if known_fault:
            return probs  # past the peak the exact uncracked state is not a uniform stretch
        # uncracked energy = L psi(k/2 (g/L)^2), psi by quadrature of the stiffness factor
        uncracked = [s for s in traj.states if not s.open_jumps and s.g > 0.0]
        for s in uncracked[::10] + uncracked[-1:]:
            phi = 0.5 * prob.k * (s.g / prob.bar_length) ** 2
            want = prob.bar_length * checks.integral_from_zero(
                lambda x: qs.stiffness_factor(prob.law, x), phi, phi)
            if not math.isclose(s.stored_energy, want, rel_tol=1e-8, abs_tol=1e-14):
                probs.append(f"uncracked energy {s.stored_energy!r} at g={s.g} != quadrature {want!r}")
                break
        if prob.element_count <= ORACLE_MAX_ELEMENTS:
            oracle = qs.solve(prob, times, stepper=qs.incremental_step_exhaustive)
            for a, b in zip(traj.states, oracle.states):
                if a.open_jumps != b.open_jumps or not math.isclose(
                        a.stored_energy, b.stored_energy, rel_tol=1e-12, abs_tol=1e-300):
                    probs.append(f"differs from the exhaustive oracle at t={a.time}")
                    break
        return probs


# ---------------------------------------------------------------------------
# law tables
# ---------------------------------------------------------------------------

LAWS = (("power", 2.0), ("exponential", None), ("cauchy", None), ("radical", 1.0),
        ("logistic", None), ("halfnormal", None), ("gudermannian", None), ("hypergeometric", 2.0),
        ("piecewise", 1.0), ("rational", 1.0), ("rapiddecay", None), ("chisquare", 4.0))
DISTS = (("exponential", 1.0), ("halfnormal", None), ("chisquare", 3.0), ("radical", 1.0),
         ("piecewise", 1.0), ("rational", 1.0), ("gudermannian", None), ("hypergeometric", 2.0),
         ("rapiddecay", None), ("power", 2.0), ("cauchy", 1.0), ("logistic", None))
GAMMA_DISTS = (("power", 1.0), ("exponential", 1.0), ("halfnormal", None))
CALIBRATED = (("exponential", None), ("cauchy", None), ("halfnormal", None), ("logistic", None),
              ("gudermannian", None), ("radical", 0.7), ("piecewise", 2.0), ("rational", 1.0))
N_GRID = 20000
N_PATH = 1500
N_SURVIVAL = 12
N_SPECIAL = 1500
N_QUAD_SAMPLES = 12


def _kinks(kind, n, Gl):
    """Points where g or the density has a kink, in phi (laws) or x (distributions)."""
    if kind == "power":
        return (Gl * (n + 1.0) / n,)
    if kind == "piecewise":
        return (Gl / (n + 1.0),)
    return ()


class LawTablesWorkload:
    """Every law and distribution on large grids, plus paths, Gamma rows and calibration."""

    layers = ("damage_laws.psi", "damage_laws.degradation", "distributions.cdf",
              "distributions.survival_integral", "special.scalar", "response_driver.drive_path")

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.laws = []
        for kind, n in LAWS:
            law = DamageLaw(kind, G=float(rng.uniform(0.5, 2.0)), ell=float(rng.uniform(0.5, 2.0)), n=n)
            phi = np.concatenate([[0.0], np.sort(law.Gl * 10.0 ** rng.uniform(-4.0, 3.0, N_GRID - 1))])
            eps_c = math.sqrt(2.0 * law.Gl)  # k = 1
            knots = np.array([0.0, *np.sort(rng.uniform(0.2, 3.0, 4)) * eps_c])
            knots[2] = knots[1] * rng.uniform(-0.5, 0.9)  # unload, possibly into compression
            path = np.concatenate([np.linspace(a, b, N_PATH // 4, endpoint=False)
                                   for a, b in zip(knots[:-1], knots[1:])] + [knots[-1:]])
            self.laws.append((law, phi, path))
        self.dists = []
        for kind, p in DISTS:
            d = DistributionSpec(kind, p)
            x = np.sort(10.0 ** rng.uniform(-3.0, 2.0, N_GRID))
            ys = np.sort(10.0 ** rng.uniform(-2.0, 1.5, N_SURVIVAL))
            m = float(rng.uniform(0.1, 0.45))
            self.dists.append((d, x, ys, m))
        self.lambdas = np.unique(np.round(10.0 ** np.sort(rng.uniform(0.0, 4.0, 6)), 6)).tolist()
        self.calib = [(kind, n, float(rng.uniform(0.5, 5.0)), float(rng.uniform(1.0, 300.0)),
                       float(rng.uniform(1e-3, 2.0))) for kind, n in CALIBRATED]
        self.erf_x = rng.uniform(0.0, 7.0, N_SPECIAL)
        self.gam_a = rng.choice([0.5, 1.5, 2.0, 3.5], N_SPECIAL)
        self.gam_x = 10.0 ** rng.uniform(-3.0, 1.7, N_SPECIAL)
        s = np.sinh(rng.uniform(0.0, 1.0, N_SPECIAL // 2))
        nh = rng.uniform(0.5, 4.0, N_SPECIAL // 2)
        self.hyp_args = np.concatenate([
            np.column_stack([np.full_like(s, 0.5), 0.5 * (nh + 1.0), np.full_like(s, 1.5), -s * s]),
            np.column_stack([0.5 * nh, nh, 0.5 * nh + 1.0, np.full_like(s, -1.0)])])
        self.out = {}

    @property
    def ops_per_round(self) -> int:
        paths = sum(law.kind in dl.ADMISSIBLE_KINDS for law, _, _ in self.laws)
        return 2 * len(self.laws) + paths + 2 * len(self.dists) + len(GAMMA_DISTS) + len(self.calib) + 3

    def warm_up(self):
        for law, phi, path in self.laws:
            dl.psi(law, phi[:50])
            dl.degradation(law, phi[:50])
            if law.kind in dl.ADMISSIBLE_KINDS:
                rd.drive_path(law, 1.0, path[:20])
        for d, x, ys, m in self.dists:
            ds.cdf(d, x[:50])
            ds.survival_integral(d, float(ys[0]))

    def run_round(self, tick) -> int:
        out = self.out
        for law, phi, path in self.laws:
            key = (law.kind, law.n)
            out["psi", key] = (dl.psi(law, phi), dl.psi(law, 1e10 * law.Gl))
            tick()
            out["g", key] = (dl.degradation(law, phi), dl.damage(law, phi))
            tick()
            if law.kind in dl.ADMISSIBLE_KINDS:
                out["path", key] = rd.drive_path(law, 1.0, path)
                tick()
        for d, x, ys, m in self.dists:
            key = (d.kind, d.param)
            out["cdf", key] = (ds.cdf(d, x), ds.pdf(d, x))
            tick()
            try:
                closed = ds.moment_closed(d, m).value
            except NoClosedFormError:
                closed = None
            out["surv", key] = ([ds.survival_integral(d, float(y)) for y in ys],
                                ds.moment_numeric(d, m), closed)
            tick()
        for kind, p in GAMMA_DISTS:
            out["gamma", kind] = qs.gamma_recovery_table(DistributionSpec(kind, p), self.lambdas)
            tick()
        for kind, n, sigma, k, G in self.calib:
            ell, _ = dl.calibrate_length(kind, sigma, k, G, n)
            out["calib", kind] = rd.peak_response(DamageLaw(kind, G=G, ell=ell, n=n), k).sigma_max
            tick()
        out["erf"] = [special.erf(float(v)) for v in self.erf_x]
        tick()
        out["gammainc"] = [special.reg_lower_gamma(float(a), float(v))
                           for a, v in zip(self.gam_a, self.gam_x)]
        tick()
        out["hyp2f1"] = [special.hyp2f1(*map(float, row)) for row in self.hyp_args]
        tick()
        return 0

    def check(self) -> list:
        out = self.out
        probs = []
        for law, phi, path in self.laws:
            key = (law.kind, law.n)
            tag = f"law {law.kind}: "
            psi, psi_inf = out["psi", key]
            g, d = out["g", key]
            idx = np.linspace(1, len(phi) - 1, N_QUAD_SAMPLES).astype(int)
            kinks = _kinks(law.kind, law.n, law.Gl)
            quad = [checks.integral_from_zero(lambda s: dl.degradation(law, s), phi[i], law.Gl, kinks)
                    for i in idx]
            probs += [tag + p for p in checks.check_close("psi vs quadrature of g", psi[idx], quad,
                                                          1e-9, 1e-14 * law.Gl)]
            probs += [tag + p for p in checks.check_close("psi at 1e10 G/ell vs G/ell", psi_inf,
                                                          law.Gl, 1e-6)]
            if np.max(psi) > law.Gl * (1.0 + 1e-12):
                probs.append(tag + "psi exceeds G/ell")
            probs += [tag + p for p in checks.check_nondecreasing("psi", psi, 1e-15 * law.Gl)]
            probs += [tag + p for p in checks.check_close("damage vs 1 - g", d, 1.0 - g, 0.0, 1e-15)]
            if law.kind in dl.ADMISSIBLE_KINDS:
                if np.min(g) < 0.0 or np.max(g) > 1.0:
                    probs.append(tag + "g leaves [0, 1]")
                probs += [tag + p for p in checks.check_nonincreasing("g", g)]
                recs = out["path", key]
                probs += [tag + p for p in checks.check_nondecreasing(
                    "path dissipation", [r.dissipation_cum for r in recs], 1e-14 * law.Gl)]
                probs += [tag + p for p in checks.check_nondecreasing("path eta", [r.eta for r in recs])]
        for d, x, ys, m in self.dists:
            key = (d.kind, d.param)
            tag = f"dist {d.kind}: "
            cdf, pdf = out["cdf", key]
            idx = np.linspace(0, len(x) - 1, N_QUAD_SAMPLES).astype(int)
            kinks = _kinks(d.kind, d.param, 1.0) if d.kind == "piecewise" else (
                (1.0,) if d.kind == "power" else ())
            quad = np.array([checks.integral_from_zero(lambda s: ds.pdf(d, s), x[i], 1.0, kinks)
                             for i in idx])
            # the density integrates to F on the half line; Cauchy's to F - F(0),
            # the logistic's doubled density to the renormalized half-line CDF
            if d.kind == "cauchy":
                want_cdf = cdf[idx] - ds.cdf(d, 0.0)
            elif d.kind == "logistic":
                want_cdf = ds.cdf_halfline(d, x[idx])
            else:
                want_cdf = cdf[idx]
            probs += [tag + p for p in checks.check_close("cdf vs quadrature of pdf", want_cdf, quad,
                                                          1e-8, 1e-12)]
            if np.min(cdf) < 0.0 or np.max(cdf) > 1.0:
                probs.append(tag + "cdf leaves [0, 1]")
            if np.min(pdf) < 0.0:
                probs.append(tag + "negative density")
            probs += [tag + p for p in checks.check_nondecreasing("cdf", cdf, 1e-15)]
            surv, numeric, closed = out["surv", key]
            probs += [tag + p for p in checks.check_nondecreasing("survival integral", surv, 1e-14)]
            if np.any(np.asarray(surv) > ys * (1.0 + 1e-12)):
                probs.append(tag + "survival integral exceeds its upper limit")
            if closed is not None:
                probs += [tag + p for p in checks.check_close(f"moment {m:.3f} closed vs numeric",
                                                              closed, numeric, 1e-7)]
        for kind, _ in GAMMA_DISTS:
            rows, warning = out["gamma", kind]
            energies = [r.energy for r in rows]
            if warning or not all(a > b for a, b in zip(energies, energies[1:])):
                probs.append(f"gamma {kind}: energies do not fall with lambda ({warning})")
            if any(r.energy > r.bound + 1e-12 for r in rows):
                probs.append(f"gamma {kind}: an energy exceeds the layer bound")
        for kind, n, sigma, k, G in self.calib:
            probs += [f"calibration {kind}: {p}" for p in checks.check_close(
                "peak stress after calibration", out["calib", kind], sigma, 1e-6)]
        probs += checks.check_special(out["erf"], self.erf_x, out["gammainc"], self.gam_a,
                                      self.gam_x, out["hyp2f1"], self.hyp_args)
        return probs


WORKLOADS = {
    "sent_coarse": lambda seed, wd: SentWorkload(seed, wd, "coarse", (("exponential", None),)),
    "sent_smoke_kinds": lambda seed, wd: SentWorkload(seed, wd, "smoke", SMOKE_KINDS),
    "bar_certified": BarWorkload,
    "law_tables": LawTablesWorkload,
}
