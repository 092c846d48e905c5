"""SENT load-displacement curves against committed reference runs.

The references in ``data/sent_reference_curves.json`` were computed with the
stiffness assembled as a global COO->CSR matrix, sliced to the free dofs and
solved by ``spsolve``, the reaction and stored energy taken from that global
matrix. A change to the assembly or the linear solve must keep every curve:
the same steps with the same staggered iteration counts, and reactions,
stored energies and peak damage within 1e-9 of their largest value.

Regenerate (only when a change of the curves is intended) with

    PYTHONPATH=src python3 tests/test_sent_reference.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cdfdamage.fem2d import SimulationConfig, build_sent_mesh, run_sent

DATA = Path(__file__).with_name("data") / "sent_reference_curves.json"

# the loading and solver settings of docs/sent_smoke.cfg
SETTINGS = dict(E=210.0, nu=0.3, Gc=2.7e-3, ell_factor=1.0462, u_max=9e-3, du_coarse=2e-4,
                du_fine=5e-5, u_switch=4e-3, stop_reaction_fraction=0.15,
                max_staggered_iters=400)
SMOKE_KINDS = (("exponential", None), ("hypergeometric", 1.0), ("rapiddecay", None),
               ("piecewise", 1.0), ("power", 1.0))
CASES = [("smoke", kind, n) for kind, n in SMOKE_KINDS] + [("coarse", "exponential", None)]
REL_TOL = 1e-9


def _key(level, kind, n):
    return f"{level}/{kind}" + ("" if n is None else f"/n={n:g}")


def _curve(level, kind, n) -> dict:
    res = run_sent(SimulationConfig(law_kind=kind, law_n=n, **SETTINGS), mesh=build_sent_mesh(level))
    return {
        "u_top": [s.u_top for s in res.steps],
        "reaction": [s.reaction for s in res.steps],
        "max_damage": [s.max_damage for s in res.steps],
        "iterations": [s.iterations for s in res.steps],
        "stored_energy": res.stored_energy[1:],
    }


@pytest.mark.parametrize(
    "level,kind,n",
    [pytest.param(*c, marks=pytest.mark.slow) if c[0] == "coarse" else c for c in CASES],
    ids=[_key(*c) for c in CASES],
)
def test_curve_matches_reference(level, kind, n):
    want = json.loads(DATA.read_text())[_key(level, kind, n)]
    got = _curve(level, kind, n)
    assert len(got["u_top"]) == len(want["u_top"])
    np.testing.assert_allclose(got["u_top"], want["u_top"], rtol=1e-15, atol=0.0)
    assert got["iterations"] == want["iterations"]
    for name in ("reaction", "stored_energy", "max_damage"):
        ref = np.asarray(want[name])
        dev = np.max(np.abs(np.asarray(got[name]) - ref)) / np.max(np.abs(ref))
        assert dev <= REL_TOL, (name, dev)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({_key(*c): _curve(*c) for c in CASES}, indent=1) + "\n")
