import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cdfdamage import cli
from cdfdamage.cli import main


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
    assert manifest["config"]["resolved"]["mesh_level"] == "smoke"
    # identical configuration reproduces byte-identical outputs
    rerun = tmp_path / "sent2"
    code, *_ = run_cli(capsys, "sent", "--config", str(cfgfile), "--out", str(rerun))
    assert code == 0
    assert (out_dir / "load_displacement.csv").read_bytes() == (rerun / "load_displacement.csv").read_bytes()
    for vtk in vtks:
        assert vtk.read_bytes() == (rerun / vtk.name).read_bytes()
