"""Command-line entry point: dist, law, calibrate, curve, quasistatic, gamma, sent.

Every run that writes artifacts creates its output directory first,
refuses to clobber a non-empty one without --force, and persists a
manifest.json (resolved configuration, seed, version, wall-clock time)
alongside the outputs. CSV cells use 17 significant digits so files
round-trip bit-exactly.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .damage_laws import DamageLaw, calibrate_length, damage, degradation, psi
from .distributions import DistributionSpec, cdf, moment_closed, moment_numeric, pdf
from .errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    NoClosedFormError,
    NonConvergenceError,
    integral,
)
from .fem2d import MESH_LEVELS, SimulationConfig, build_sent_mesh, run_sent
from .kinds import TABLE as KIND_TABLE
from .quasistatic import (
    BarProblem,
    RawCdfLaw,
    certify_energy_balance,
    certify_stability,
    gamma_recovery_table,
    reaction,
    solve,
    uniform_times,
)
from .response_driver import drive_path
from .vtkio import write_vtk

_VALIDATION_ERRORS = (
    ConfigurationError,
    DomainError,
    DivergenceError,
    NoClosedFormError,
    FileNotFoundError,
    KeyError,
    argparse.ArgumentTypeError,
    configparser.Error,
)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path: Path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract is 1 for validation errors
    def error(self, message):
        raise ConfigurationError(message)


def _ensure_outdir(path: str, force: bool) -> Path:
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise ConfigurationError(
            f"output directory '{out}' is not empty; pass --force to overwrite"
        )
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, subcommand: str, config: dict, seed, t0: float,
                    totals: dict | None = None):
    def jsonable(v):
        if isinstance(v, (list, tuple)):
            return [jsonable(x) for x in v]
        return v if isinstance(v, (str, int, float, bool, type(None), dict)) else str(v)

    manifest = {
        "subcommand": subcommand,
        "config": {k: jsonable(v) for k, v in config.items() if k != "func"},
        "output_dir": str(out),
        "seed": seed,
        "tool_version": __version__,
        "duration_s": time.time() - t0,
    }
    if totals is not None:
        manifest["totals"] = totals
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)


def _dist_spec(args) -> DistributionSpec:
    return DistributionSpec(args.kind, args.n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_dist(args) -> int:
    t0 = time.time()
    d = _dist_spec(args)
    for m in args.moments or []:
        try:
            res = moment_closed(d, m)
            value, tag = res.value, ("closed" if res.convergent else "divergent")
        except NoClosedFormError:
            value, tag = moment_numeric(d, m), "numeric"
        print(f"{value:.6f}" if np.isfinite(value) else f"divergent ({tag})")
    if args.out:
        out = _ensure_outdir(args.out, args.force)
        lo, hi, count = args.grid
        xs = np.geomspace(lo, hi, int(count)) if lo > 0 else np.linspace(lo, hi, int(count))
        rows = zip(xs, pdf(d, xs), cdf(d, xs))
        write_csv(out / "distribution.csv", ["x", "pdf", "cdf"], rows)
        _write_manifest(out, "dist", vars(args) | {"grid": list(args.grid)}, None, t0)
    return 0


def _cmd_law(args) -> int:
    t0 = time.time()
    law = DamageLaw(args.kind, G=args.G, ell=args.ell, n=args.n)
    out = _ensure_outdir(args.out, args.force)
    phis = np.linspace(0.0, args.phi_max * law.Gl, args.points)
    rows = zip(phis, psi(law, phis), degradation(law, phis), damage(law, phis))
    write_csv(out / "law.csv", ["phi", "psi", "degradation", "damage"], rows)
    _write_manifest(out, "law", vars(args), None, t0)
    return 0


def _cmd_calibrate(args) -> int:
    ell, numeric = calibrate_length(args.kind, args.sigma_max, args.k, args.G, args.n)
    tag = "  (numeric calibration)" if numeric else ""
    print(f"ell = {ell:.12g}{tag}")
    return 0


def _cmd_curve(args) -> int:
    t0 = time.time()
    law = DamageLaw(args.model, G=args.G, ell=args.ell, n=args.n)
    eps_max = args.eps_max if args.eps_max is not None else 3.0 * np.sqrt(2.0 * law.Gl / args.k)
    if args.path == "ramp":
        strains = np.linspace(0.0, eps_max, args.points)
    elif args.path == "cycle":
        third = args.points // 3
        strains = np.concatenate(
            [
                np.linspace(0.0, eps_max, third),
                np.linspace(eps_max, 0.0, third),
                np.linspace(0.0, eps_max, args.points - 2 * third),
            ]
        )
    else:  # file
        if not args.file:
            raise ConfigurationError("--path file requires --file with one strain per line")
        strains = np.loadtxt(args.file, ndmin=1)
    out = _ensure_outdir(args.out, args.force)
    records = drive_path(law, args.k, strains)
    rows = [(r.strain, r.stress_eff, r.damage, r.eta, r.dissipation_cum) for r in records]
    write_csv(out / "curve.csv", ["strain", "stress_eff", "damage", "eta", "dissipation"], rows)
    _write_manifest(out, "curve", vars(args), None, t0)
    return 0


# [section] key -> what takes the value: a target, or (target, name) when the
# name is not the key (configparser lower-cases keys). A value is a number
# unless its key is in _TEXT_KEYS; a key left out takes the receiver's default.
_SENT_SCHEMA = {
    "material": {"e": ("config", "E"), "nu": "config", "gc": ("config", "Gc")},
    "law": {"kind": ("config", "law_kind"), "n": ("config", "law_n"), "ell": "config",
            "ell_factor": "config"},
    "mesh": {"level": "mesh"},
    "loading": dict.fromkeys(
        ("u_max", "du_coarse", "du_fine", "u_switch", "stop_reaction_fraction"), "config"),
    "solver": dict.fromkeys(
        ("staggered_tol", "max_staggered_iters", "max_halvings", "stiffness_floor"), "config"),
    "output": {"field_every": "config"},
}
_BAR_SCHEMA = {
    "bar": dict.fromkeys(("element_count", "bar_length", "k"), "problem"),
    "law": {"type": "law", "kind": "law", "n": "law", "g": ("damage", "G"), "ell": "damage",
            "lam": "rawcdf"},
    "loading": {"t_end": "loading", "g_end": "loading", "knots": "loading", "steps": "times"},
    "evolution": {"jump_cost": "problem"},
    "certificates": {"competitors": "stability", "stability_tol": ("stability", "tolerance"),
                     "balance_tol": ("balance", "tolerance")},
}
_TEXT_KEYS = frozenset({"kind", "level", "type", "knots"})


def _settings(ini: configparser.ConfigParser, schema: dict) -> dict:
    """The values in `ini` grouped by what takes them, {target: {name: value}}; an unknown
    section or key, or a number that does not parse, raises ConfigurationError."""
    grouped = {}
    for section in ini.sections():
        if section not in schema:
            raise ConfigurationError(f"unknown section [{section}]; known: {', '.join(schema)}")
        keys = schema[section]
        for key, raw in ini.items(section, raw=True):
            if key not in keys:
                raise ConfigurationError(f"unknown key [{section}] {key}; it takes {', '.join(keys)}")
            try:
                value = raw if key in _TEXT_KEYS else int(raw) if raw.isdigit() else float(raw)
            except ValueError:
                raise ConfigurationError(f"[{section}] {key} must be a number, got '{raw}'") from None
            target, name = keys[key] if isinstance(keys[key], tuple) else (keys[key], key)
            grouped.setdefault(target, {})[name] = value
    return grouped


def _with_defaults(fn, **given) -> dict:
    """The keyword arguments `fn` runs with: `given` plus its own defaults."""
    bound = inspect.signature(fn).bind_partial(**given)
    bound.apply_defaults()
    return dict(bound.arguments)


def _read_ini(path: str, schema: dict) -> configparser.ConfigParser:
    """Read an INI file; refuse what `schema` does not name before anything is built."""
    if not Path(path).exists():
        raise FileNotFoundError(f"config file not found: {path}")
    ini = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    ini.read(path)
    _settings(ini, schema)
    return ini


def _bar_problem(ini: configparser.ConfigParser) -> tuple[BarProblem, np.ndarray, dict, dict]:
    """Bar problem, time grid, and the file's arguments to the two certificates."""
    for section, key in (("bar", "element_count"), ("law", "kind"), ("evolution", "jump_cost")):
        if not ini.has_option(section, key):
            raise ConfigurationError(f"[{section}] {key} is required")
    settings = _settings(ini, _BAR_SCHEMA)
    for target, name in (("problem", "element_count"), ("times", "steps"), ("stability", "competitors")):
        if name in settings.get(target, {}):
            settings[target][name] = integral(name, settings[target][name])
    loading = settings.get("loading", {})
    if ("g_end" in loading) == ("knots" in loading):
        raise ConfigurationError("[loading] needs exactly one of g_end and knots")
    law_type = settings["law"].pop("type", "damage")
    if law_type not in ("damage", "rawcdf"):
        raise ConfigurationError(f"[law] type must be 'damage' or 'rawcdf', got '{law_type}'")
    stray = settings.get("rawcdf" if law_type == "damage" else "damage")
    if stray:
        raise ConfigurationError(f"[law] {', '.join(stray)} does not apply to type = {law_type}")
    kind, n = settings["law"]["kind"], settings["law"].get("n")
    if law_type == "damage":
        law = DamageLaw(kind, n=n, **settings.get("damage", {}))
    else:
        law = RawCdfLaw(DistributionSpec(kind, n), **settings.get("rawcdf", {}))
    if "knots" in loading:
        try:
            knots = tuple((float(t), float(g)) for t, g in
                          (pair.split(":") for pair in loading["knots"].split(",")))
        except ValueError:
            raise ConfigurationError(
                f"[loading] knots must be t:g pairs, got '{loading['knots']}'") from None
    else:
        knots = ((0.0, 0.0), (loading.get("t_end", 1.0), loading["g_end"]))
    prob = BarProblem(law=law, boundary_knots=knots, **({"bar_length": 1.0} | settings["problem"]))
    times = uniform_times(knots[-1][0], **settings.get("times", {}))
    return prob, times, settings.get("stability", {}), settings.get("balance", {})


def _cmd_quasistatic(args) -> int:
    t0 = time.time()
    ini = _read_ini(args.config, _BAR_SCHEMA)
    prob, times, stability_args, balance_args = _bar_problem(ini)
    stability_args = _with_defaults(certify_stability, seed=args.seed, **stability_args)
    balance_args = _with_defaults(certify_energy_balance, **balance_args)
    out = _ensure_outdir(args.out, args.force)
    traj = solve(prob, times)
    rows = []
    for i, s in enumerate(traj.states):
        diss = traj.dissipation_increments[i - 1] if i > 0 else 0.0
        rows.append((s.time, s.g, s.stored_energy, diss, len(s.open_jumps), reaction(prob, s)))
    write_csv(
        out / "trajectory.csv",
        ["t", "g", "stored_energy", "dissipation_inc", "crack_count", "reaction"],
        rows,
    )
    stab = certify_stability(traj, prob, **stability_args)
    bal = certify_energy_balance(traj, prob, **balance_args)
    with open(out / "certificates.txt", "w") as f:
        f.write("stability: worst margin = {:.6e}  tolerance = {:.1e}  {}\n".format(
            stab.worst_margin, stab.tolerance, "PASS" if stab.passed else "FAIL"))
        f.write(
            "energy balance: residual = {:.6e}  characteristic = {:.6e}  rel = {:.3e}  {}\n".format(
                bal.residual, bal.characteristic_energy,
                bal.residual / bal.characteristic_energy, "PASS" if bal.passed else "FAIL")
        )
        f.write(f"total dissipation = {bal.dissipation_total:.6e}\n")
        f.write(f"external work     = {bal.work_total:.6e}\n")
        f.write(f"final crack count = {len(traj.states[-1].open_jumps)}\n")
    cfg_dict = {sec: dict(ini[sec]) for sec in ini.sections()}
    cfg_dict["resolved"] = {"problem": dataclasses.asdict(prob), "steps": len(times) - 1,
                            "stability": stability_args, "balance": balance_args}
    _write_manifest(out, "quasistatic", cfg_dict, args.seed, t0)
    print(f"stability {'PASS' if stab.passed else 'FAIL'}; balance {'PASS' if bal.passed else 'FAIL'}")
    return 0 if (stab.passed and bal.passed) else 2


def _cmd_gamma(args) -> int:
    t0 = time.time()
    d = DistributionSpec(args.cdf, args.n)
    lambdas = [float(v) for v in args.lambdas.split(",")]
    rows, warning = gamma_recovery_table(d, lambdas)
    for r in rows:
        print(f"lambda={r.lam:<10g} eps={r.layer_width:<12.6g} E={r.energy:<14.8g} bound={r.bound:.8g}")
    if warning:
        print(f"warning: {warning}")
    if args.out:
        out = _ensure_outdir(args.out, args.force)
        write_csv(
            out / "gamma_table.csv",
            ["lambda", "layer_width", "energy", "bound"],
            [(r.lam, r.layer_width, r.energy, r.bound) for r in rows],
        )
        _write_manifest(out, "gamma", vars(args), None, t0)
    return 0


def _sent_config(ini: configparser.ConfigParser) -> tuple[SimulationConfig, str]:
    settings = _settings(ini, _SENT_SCHEMA)
    level = _with_defaults(build_sent_mesh, **settings.get("mesh", {}))["level"]
    return SimulationConfig(**settings.get("config", {})), level


def _cmd_sent(args) -> int:
    t0 = time.time()
    ini = _read_ini(args.config, _SENT_SCHEMA)
    cfg, level = _sent_config(ini)
    if args.mesh:
        level = args.mesh
    if args.law:
        # the file's n stays only for a kind that takes one
        keep_n = args.law not in KIND_TABLE or KIND_TABLE[args.law].shape
        cfg = dataclasses.replace(cfg, law_kind=args.law, law_n=cfg.law_n if keep_n else None)
    out = _ensure_outdir(args.out, args.force)
    mesh = build_sent_mesh(level)
    result = run_sent(cfg, mesh=mesh)
    rows = [
        (s.step, s.u_top, s.reaction, s.max_damage, s.iterations) for s in result.steps
    ]
    write_csv(
        out / "load_displacement.csv",
        ["step", "u_top_mm", "reaction_kN", "max_damage", "iterations"],
        rows,
    )
    for step_no, nodal_damage, disp in result.snapshots:
        write_vtk(
            out / f"fields_{step_no:05d}.vtk",
            mesh.nodes,
            mesh.elems,
            point_scalars={"damage": nodal_damage},
            point_vectors={"displacement": disp},
        )
    cfg_dict = {sec: dict(ini[sec]) for sec in ini.sections()}
    cfg_dict["resolved"] = dataclasses.asdict(cfg) | {
        "mesh_level": level, "ell": cfg.resolve_ell(mesh), "elements": int(mesh.n_elems)}
    _write_manifest(out, "sent", cfg_dict, None, t0, totals={
        "staggered_iterations": result.staggered_iterations,
        "factorizations": result.factorizations,
        "cg_iterations": result.cg_iterations,
        "back_solves": result.back_solves,
        "stored_energy": result.stored_energy[-1],
        "external_work": result.external_work[-1],
    })
    print(
        f"peak reaction {result.peak_reaction:.6g} kN over {len(result.steps)} steps; "
        f"final max damage {result.steps[-1].max_damage:.4f}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="cdfdamage", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dist", help="tabulate pdf/cdf and print moments")
    d.add_argument("--kind", required=True)
    d.add_argument("--n", type=float, default=None, help="shape/rate/scale parameter")
    d.add_argument("--moments", type=lambda s: [float(v) for v in s.split(",")], default=None)
    d.add_argument("--grid", type=lambda s: tuple(float(v) for v in s.split(":")),
                   default=(1e-3, 1e3, 200), help="lo:hi:count")
    d.add_argument("--out", default=None)
    d.add_argument("--force", action="store_true")
    d.set_defaults(func=_cmd_dist)

    l = sub.add_parser("law", help="tabulate psi, degradation, damage over an energy grid")
    l.add_argument("--kind", required=True)
    l.add_argument("--n", type=float, default=None)
    l.add_argument("--G", type=float, default=1.0)
    l.add_argument("--ell", type=float, default=1.0)
    l.add_argument("--phi-max", dest="phi_max", type=float, default=5.0,
                   help="grid end in multiples of G/ell")
    l.add_argument("--points", type=int, default=200)
    l.add_argument("--out", required=True)
    l.add_argument("--force", action="store_true")
    l.set_defaults(func=_cmd_law)

    c = sub.add_parser("calibrate", help="internal length from peak stress")
    c.add_argument("--kind", required=True)
    c.add_argument("--n", type=float, default=None)
    c.add_argument("--sigma-max", dest="sigma_max", type=float, required=True)
    c.add_argument("--k", type=float, required=True)
    c.add_argument("--G", type=float, required=True)
    c.set_defaults(func=_cmd_calibrate)

    cv = sub.add_parser("curve", help="1D stress/damage curve along a strain path")
    cv.add_argument("--model", required=True)
    cv.add_argument("--n", type=float, default=None)
    cv.add_argument("--G", type=float, default=1.0)
    cv.add_argument("--ell", type=float, default=1.0)
    cv.add_argument("--k", type=float, default=1.0)
    cv.add_argument("--path", choices=("ramp", "cycle", "file"), default="ramp")
    cv.add_argument("--file", default=None)
    cv.add_argument("--eps-max", dest="eps_max", type=float, default=None)
    cv.add_argument("--points", type=int, default=601)
    cv.add_argument("--out", required=True)
    cv.add_argument("--force", action="store_true")
    cv.set_defaults(func=_cmd_curve)

    q = sub.add_parser("quasistatic", help="energetic bar evolution plus certificates")
    q.add_argument("--config", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--force", action="store_true")
    q.set_defaults(func=_cmd_quasistatic)

    g = sub.add_parser("gamma", help="recovery-sequence energy table")
    g.add_argument("--cdf", required=True)
    g.add_argument("--n", type=float, default=None)
    g.add_argument("--lambdas", default="1,10,100,1000,10000")
    g.add_argument("--out", default=None)
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=_cmd_gamma)

    s = sub.add_parser("sent", help="single-edge-notched tension benchmark")
    s.add_argument("--config", required=True)
    s.add_argument("--mesh", choices=MESH_LEVELS, default=None)
    s.add_argument("--law", default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--force", action="store_true")
    s.set_defaults(func=_cmd_sent)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help / --version paths
        code = exc.code if isinstance(exc.code, int) else 0
        return code


if __name__ == "__main__":
    sys.exit(main())
