import configparser
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cdfdamage import cli
from cdfdamage.cli import main
from cdfdamage.fem2d import SimulationConfig
from cdfdamage.quasistatic import certify_energy_balance, certify_stability

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_lists_subcommands(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0
    for name in ("dist", "law", "calibrate", "curve", "quasistatic", "gamma", "sent"):
        assert name in out


def test_unknown_flag_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "curve", "--bogus", "1")
    assert code == 1
    assert "error" in err.lower()


def test_dist_moment_print(capsys):
    code, out, _ = run_cli(capsys, "dist", "--kind", "radical", "--n", "1", "--moments", "0.5")
    assert code == 0
    assert "1.570796" in out


def test_dist_invalid_parameter(capsys):
    code, _, err = run_cli(capsys, "dist", "--kind", "rational", "--n", "9")
    assert code == 1
    assert "rational" in err


def test_calibrate_prints_length(capsys):
    code, out, _ = run_cli(
        capsys, "calibrate", "--kind", "exponential", "--sigma-max", "1.0", "--k", "1.0", "--G", "1.0"
    )
    assert code == 0
    ell = float(out.split("=")[1].split()[0])
    assert ell == pytest.approx(1.0 / math.e, rel=1e-10)
    code, out, _ = run_cli(
        capsys, "calibrate", "--kind", "rational", "--n", "1", "--sigma-max", "1.0", "--k", "1.0", "--G", "1.0"
    )
    assert code == 0 and "numeric" in out


def test_curve_ramp_peak_near_unit_strain(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, *_ = run_cli(
        capsys, "curve", "--model", "exponential", "--G", "1", "--ell", "1", "--k", "1",
        "--path", "ramp", "--out", str(out_dir),
    )
    assert code == 0
    data = np.genfromtxt(out_dir / "curve.csv", delimiter=",", names=True)
    peak_row = data[np.argmax(data["stress_eff"])]
    assert peak_row["strain"] == pytest.approx(1.0, abs=0.02)
    assert (out_dir / "manifest.json").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "curve"


def test_curve_cycle_has_monotone_dissipation(tmp_path, capsys):
    out_dir = tmp_path / "cyc"
    code, *_ = run_cli(
        capsys, "curve", "--model", "logistic", "--path", "cycle", "--out", str(out_dir),
    )
    assert code == 0
    data = np.genfromtxt(out_dir / "curve.csv", delimiter=",", names=True)
    assert np.all(np.diff(data["dissipation"]) >= -1e-12)
    assert np.all(np.diff(data["eta"]) >= 0.0)


def test_outdir_requires_force(tmp_path, capsys):
    out_dir = tmp_path / "once"
    args = ("curve", "--model", "exponential", "--out", str(out_dir))
    assert run_cli(capsys, *args)[0] == 0
    code, _, err = run_cli(capsys, *args)
    assert code == 1 and "force" in err
    assert run_cli(capsys, *args, "--force")[0] == 0


def test_curve_rerun_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(capsys, "curve", "--model", "cauchy", "--out", str(out))[0] == 0
    assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()


def test_law_table(tmp_path, capsys):
    out_dir = tmp_path / "law"
    code, *_ = run_cli(capsys, "law", "--kind", "radical", "--n", "1", "--out", str(out_dir))
    assert code == 0
    data = np.genfromtxt(out_dir / "law.csv", delimiter=",", names=True)
    assert np.all(np.diff(data["damage"]) >= -1e-15)
    assert data["psi"][-1] <= 1.0 + 1e-12


def test_gamma_table(tmp_path, capsys):
    out_dir = tmp_path / "gam"
    code, out, _ = run_cli(
        capsys, "gamma", "--cdf", "power", "--n", "1", "--lambdas", "1,10,100", "--out", str(out_dir)
    )
    assert code == 0
    data = np.genfromtxt(out_dir / "gamma_table.csv", delimiter=",", names=True)
    assert np.all(np.diff(data["energy"]) < 0.0)
    assert np.all(data["energy"] <= data["bound"] + 1e-12)


def test_quasistatic_end_to_end(tmp_path, capsys):
    cfgfile = tmp_path / "bar.cfg"
    cfgfile.write_text(
        """
[bar]
element_count = 4
bar_length = 1.0
k = 1.0

[law]
type = damage
kind = exponential
G = 1.0
ell = 1.0

[loading]
t_end = 1.0
g_end = 1.0
steps = 80

[evolution]
jump_cost = 0.05

[certificates]
competitors = 100
"""
    )
    out_dir = tmp_path / "qs"
    code, out, _ = run_cli(
        capsys, "quasistatic", "--config", str(cfgfile), "--out", str(out_dir), "--seed", "4"
    )
    assert code == 0
    assert "PASS" in out
    data = np.genfromtxt(out_dir / "trajectory.csv", delimiter=",", names=True)
    assert data["crack_count"][-1] == 1
    report = (out_dir / "certificates.txt").read_text()
    assert "stability" in report and "PASS" in report
    # the manifest records what ran, defaults included
    resolved = json.loads((out_dir / "manifest.json").read_text())["config"]["resolved"]
    assert resolved["steps"] == 80
    assert resolved["problem"]["element_count"] == 4
    assert resolved["problem"]["law"] == {"kind": "exponential", "G": 1.0, "ell": 1.0, "n": None}
    stability_tol = inspect.signature(certify_stability).parameters["tolerance"].default
    balance_tol = inspect.signature(certify_energy_balance).parameters["tolerance"].default
    assert resolved["stability"] == {"competitors": 100, "seed": 4, "tolerance": stability_tol}
    assert resolved["balance"] == {"tolerance": balance_tol}


def test_sent_missing_config(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sent", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")
    )
    assert code == 1
    assert "missing.cfg" in err


def test_sent_unknown_law_fails_before_mesh(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "sent.cfg"
    cfgfile.write_text("[mesh]\nlevel = smoke\n")

    def no_mesh(level):
        raise AssertionError("mesh built before the configuration was validated")

    monkeypatch.setattr(cli, "build_sent_mesh", no_mesh)
    code, _, err = run_cli(capsys, "sent", "--config", str(cfgfile), "--law", "nosuch",
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert "nosuch" in err


def test_sent_bad_modulus_fails_before_mesh(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "sent.cfg"
    cfgfile.write_text("[material]\ne = -1\n\n[mesh]\nlevel = smoke\n")

    def no_mesh(level):
        raise AssertionError("mesh built before the configuration was validated")

    monkeypatch.setattr(cli, "build_sent_mesh", no_mesh)
    code, _, err = run_cli(capsys, "sent", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "E must be positive" in err


@pytest.mark.parametrize("section,key,value", [
    ("solver", "max_halvings", "2.9"),
    ("output", "field_every", "1.5"),
    ("solver", "max_staggered_iters", "50.5"),
    ("solver", "max_halvings", "inf"),
])
def test_sent_non_integral_setting_fails_before_mesh(tmp_path, capsys, monkeypatch, section, key, value):
    cfgfile = tmp_path / "sent.cfg"
    cfgfile.write_text(f"[{section}]\n{key} = {value}\n\n[mesh]\nlevel = smoke\n")

    def no_mesh(level):
        raise AssertionError("mesh built before the configuration was validated")

    monkeypatch.setattr(cli, "build_sent_mesh", no_mesh)
    code, _, err = run_cli(capsys, "sent", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
    assert code == 1
    assert f"{key} must be an integer" in err


def test_sent_integral_settings_accept_float_spelling():
    ini = configparser.ConfigParser()
    ini.read_string("[solver]\nmax_staggered_iters = 1e3\nmax_halvings = 2.0\n[output]\nfield_every = 5\n")
    cfg, _ = cli._sent_config(ini)
    assert (cfg.max_staggered_iters, cfg.max_halvings, cfg.field_every) == (1000, 2, 5)
    assert all(type(v) is int for v in (cfg.max_staggered_iters, cfg.max_halvings, cfg.field_every))


SENT_BASE = {"mesh": {"level": "smoke"}}
BAR_BASE = {
    "bar": {"element_count": "4"},
    "law": {"kind": "exponential"},
    "loading": {"g_end": "1.0", "steps": "20"},
    "evolution": {"jump_cost": "0.05"},
}


def write_ini(path, sections, section=None, key=None, value=None):
    """Write `sections` as INI with one edit: set [section] key = value,
    drop the key when value is None, or drop the section when key is None."""
    sections = {name: dict(keys) for name, keys in sections.items()}
    if key is None:
        sections.pop(section, None)
    elif value is None:
        sections[section].pop(key)
    else:
        sections.setdefault(section, {})[key] = value
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                            for name, keys in sections.items()))
    return path


@pytest.fixture
def no_mesh(monkeypatch):
    def refuse(level):
        raise AssertionError("mesh built before the configuration was validated")

    monkeypatch.setattr(cli, "build_sent_mesh", refuse)


@pytest.mark.parametrize("command,section,key,value,message", [
    ("sent", "solver", "max_staggered_iter", "3", "unknown key [solver] max_staggered_iter"),
    ("sent", "solvers", "max_staggered_iters", "3", "unknown section [solvers]"),
    ("sent", "material", "e", "210 kN", "[material] e must be a number"),
    ("quasistatic", "loading", "step", "5", "unknown key [loading] step"),
    ("quasistatic", "certificate", "competitors", "5", "unknown section [certificate]"),
    ("quasistatic", "bar", "k", "stiff", "[bar] k must be a number"),
    ("quasistatic", "bar", "element_count", None, "[bar] element_count is required"),
    ("quasistatic", "bar", None, None, "[bar] element_count is required"),
    ("quasistatic", "law", "kind", None, "[law] kind is required"),
    ("quasistatic", "evolution", "jump_cost", None, "[evolution] jump_cost is required"),
    ("quasistatic", "loading", "g_end", None, "exactly one of g_end and knots"),
    ("quasistatic", "loading", "knots", "0:0, 1:1", "exactly one of g_end and knots"),
    ("quasistatic", "law", "lam", "2", "[law] lam does not apply to type = damage"),
    ("quasistatic", "law", "type", "cohesive", "[law] type must be"),
])
def test_config_refused_before_anything_is_built(tmp_path, capsys, no_mesh, command,
                                                 section, key, value, message):
    base = SENT_BASE if command == "sent" else BAR_BASE
    cfgfile = write_ini(tmp_path / "run.cfg", base, section, key, value)
    out_dir = tmp_path / "o"
    code, _, err = run_cli(capsys, command, "--config", str(cfgfile), "--out", str(out_dir))
    assert code == 1
    assert message in err
    assert not out_dir.exists()


def test_bar_knots_that_do_not_parse_are_refused(tmp_path, capsys):
    sections = dict(BAR_BASE, loading={"knots": "0:0, 0.5"})
    cfgfile = write_ini(tmp_path / "bar.cfg", sections, "loading", "steps", "10")
    code, _, err = run_cli(capsys, "quasistatic", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
    assert code == 1 and "[loading] knots" in err


@pytest.mark.parametrize("section,key,value", [
    ("bar", "element_count", "2.9"),
    ("loading", "steps", "20.5"),
    ("certificates", "competitors", "2.9"),
    ("bar", "element_count", "inf"),
])
def test_bar_non_integral_count_is_refused_before_the_output_directory(tmp_path, capsys,
                                                                       section, key, value):
    cfgfile = write_ini(tmp_path / "bar.cfg", BAR_BASE, section, key, value)
    out_dir = tmp_path / "o"
    code, _, err = run_cli(capsys, "quasistatic", "--config", str(cfgfile), "--out", str(out_dir))
    assert code == 1
    assert f"{key} must be an integer, got {value}" in err
    assert not out_dir.exists()


def test_bar_counts_accept_an_integral_float_spelling(tmp_path, capsys):
    sections = dict(BAR_BASE, bar={"element_count": "4.0"}, loading={"g_end": "1.0", "steps": "2e1"},
                    certificates={"competitors": "1e1"})
    cfgfile = write_ini(tmp_path / "bar.cfg", sections)
    out_dir = tmp_path / "o"
    code, _, _ = run_cli(capsys, "quasistatic", "--config", str(cfgfile), "--out", str(out_dir))
    assert code in (0, 2)  # ran to the certificates
    resolved = json.loads((out_dir / "manifest.json").read_text())["config"]["resolved"]
    assert (resolved["problem"]["element_count"], resolved["steps"]) == (4, 20)
    assert resolved["stability"]["competitors"] == 10
    assert all(type(v) is int for v in (resolved["problem"]["element_count"], resolved["steps"],
                                        resolved["stability"]["competitors"]))


def test_sent_every_config_field_is_set_by_one_key():
    # every key of the schema, once, with a value its receiver accepts
    ini = configparser.ConfigParser()
    ini.read_dict({section: {key: {"kind": "exponential", "level": "smoke"}.get(key, "1")
                             for key in keys}
                   for section, keys in cli._SENT_SCHEMA.items()})
    grouped = cli._settings(ini, cli._SENT_SCHEMA)
    fields = {f.name for f in dataclasses.fields(SimulationConfig)}
    assert set(grouped["config"]) == fields
    assert sum(len(keys) for keys in cli._SENT_SCHEMA.values()) == len(fields) + len(grouped["mesh"])


def _doc_ini_blocks():
    text = (ROOT / "docs" / "configuration.md").read_text()
    blocks = {}
    for part in re.split(r"^## ", text, flags=re.M)[1:]:
        command = part.split("`")[1]
        blocks[command] = re.findall(r"```ini\n(.*?)```", part, flags=re.S)
    return blocks


@pytest.mark.parametrize("command,schema,build", [
    ("quasistatic", "_BAR_SCHEMA", "_bar_problem"),
    ("sent", "_SENT_SCHEMA", "_sent_config"),
])
def test_doc_ini_blocks_parse_and_name_every_key(tmp_path, command, schema, build):
    schema = getattr(cli, schema)
    (block,) = _doc_ini_blocks()[command]
    path = tmp_path / "doc.cfg"
    path.write_text(block)
    getattr(cli, build)(cli._read_ini(str(path), schema))
    for section, keys in schema.items():
        body = re.search(rf"^\[{section}\]\n(.*?)(?=^\[|\Z)", block, flags=re.M | re.S).group(1)
        for key in keys:
            assert re.search(rf"^[ ;]*{key}\s*=", body, flags=re.M | re.I), f"[{section}] {key}"


def test_sent_law_flag_keeps_the_file_n_only_for_a_kind_that_takes_one(tmp_path, capsys):
    radical = write_ini(tmp_path / "radical.cfg", dict(SENT_BASE, law={"kind": "radical", "n": "1"}),
                        "loading", "u_max", "4e-4")
    for kind, n in (("exponential", None), ("hypergeometric", 1)):
        out_dir = tmp_path / kind
        code, _, err = run_cli(capsys, "sent", "--config", str(radical), "--law", kind,
                               "--out", str(out_dir))
        assert code == 0, err
        resolved = json.loads((out_dir / "manifest.json").read_text())["config"]["resolved"]
        assert (resolved["law_kind"], resolved["law_n"]) == (kind, n)
    # a kind that needs n and a file without one fail as before
    plain = write_ini(tmp_path / "plain.cfg", SENT_BASE, "law", "kind", "exponential")
    code, _, err = run_cli(capsys, "sent", "--config", str(plain), "--law", "radical",
                           "--out", str(tmp_path / "o"))
    assert code == 1 and "requires a positive n" in err


def test_import_loads_neither_mpmath_nor_special():
    code = "import sys, cdfdamage.cli; print('mpmath' in sys.modules, 'cdfdamage.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["False", "False"]


def test_sent_smoke_run(tmp_path, capsys):
    cfgfile = tmp_path / "sent.cfg"
    cfgfile.write_text(
        """
[material]
e = 210.0
nu = 0.3
gc = 2.7e-3

[law]
kind = exponential
ell_factor = 1.0462

[mesh]
level = smoke

[loading]
u_max = 2e-3
du_coarse = 5e-4
du_fine = 5e-4
u_switch = 2e-3
stop_reaction_fraction = 0.0

[solver]
max_staggered_iters = 200
"""
    )
    out_dir = tmp_path / "sent"
    code, out, _ = run_cli(capsys, "sent", "--config", str(cfgfile), "--out", str(out_dir))
    assert code == 0
    data = np.genfromtxt(out_dir / "load_displacement.csv", delimiter=",", names=True)
    assert data["u_top_mm"][-1] == pytest.approx(2e-3, rel=1e-12)
    vtks = list(out_dir.glob("fields_*.vtk"))
    assert vtks, "final field snapshot missing"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    resolved = manifest["config"]["resolved"]
    assert resolved["mesh_level"] == "smoke"
    # every setting the run used, the defaults the file leaves out included
    expected = dataclasses.asdict(SimulationConfig(
        u_max=2e-3, du_coarse=5e-4, du_fine=5e-4, u_switch=2e-3, stop_reaction_fraction=0.0,
        max_staggered_iters=200))
    del expected["ell"]  # resolved["ell"] is the length the run used
    assert expected.items() <= resolved.items()
    assert resolved["ell"] == pytest.approx(1.0462 / 40.0)
    totals = manifest["totals"]
    assert totals["staggered_iterations"] == int(data["iterations"].sum())
    assert 1 <= totals["factorizations"] < totals["staggered_iterations"]
    assert totals["cg_iterations"] > 0
    # one back-solve per CG iteration and per fresh factor, and at most one
    # more per solve for a CG start
    cg_and_fresh = totals["cg_iterations"] + totals["factorizations"]
    assert cg_and_fresh <= totals["back_solves"] <= cg_and_fresh + totals["staggered_iterations"]
    assert 0.0 < totals["stored_energy"] <= totals["external_work"]
    # identical configuration reproduces byte-identical outputs
    rerun = tmp_path / "sent2"
    code, *_ = run_cli(capsys, "sent", "--config", str(cfgfile), "--out", str(rerun))
    assert code == 0
    assert (out_dir / "load_displacement.csv").read_bytes() == (rerun / "load_displacement.csv").read_bytes()
    for vtk in vtks:
        assert vtk.read_bytes() == (rerun / vtk.name).read_bytes()
