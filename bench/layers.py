"""Per-layer tracing by wrapping the program's public functions.

The wrappers live here, not in the program. Each target is replaced on the
module or class that defines it and on every loaded ``cdfdamage`` module that
bound the same object under any name (``fem2d.law_degradation`` is
``damage_laws.degradation``), so a call through an alias is still counted.
A target that no longer exists raises at install time, and a layer that a
workload must reach but that recorded no calls raises after the run: a rename
inside the program cannot silently zero a layer metric.

Spans nest: each wrapper adds its duration to the enclosing span, so a
layer's self time is its own duration minus that of the traced calls it made.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

_PROGRAM = "cdfdamage"


class LayerNotReached(RuntimeError):
    """A layer the workload must call recorded no calls under tracing."""


def _resolve(path: str):
    """'pkg.mod:Class.attr' -> (owner object, attribute name)."""
    mod_name, attr_path = path.split(":")
    owner = importlib.import_module(mod_name)
    *parents, attr = attr_path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    if not hasattr(owner, attr):
        raise AttributeError(f"trace target {path} does not exist in the program")
    return owner, attr


def patch_everywhere(path: str, make_wrapper, restore: list):
    """Replace the target on its owner and on every program module holding it
    under any name; append (owner, attribute, original) to `restore`."""
    owner, attr = _resolve(path)
    orig = getattr(owner, attr)
    wrapped = make_wrapper(orig)
    restore.append((owner, attr, orig))
    setattr(owner, attr, wrapped)
    for name, mod in list(sys.modules.items()):
        if name == _PROGRAM or name.startswith(_PROGRAM + "."):
            for alias, value in list(vars(mod).items()):
                if value is orig:
                    restore.append((mod, alias, orig))
                    setattr(mod, alias, wrapped)


def unpatch(restore: list):
    for owner, attr, orig in reversed(restore):
        setattr(owner, attr, orig)
    restore.clear()


def _count_points(key, index=1):
    """Hook adding the size of positional argument `index` to counter `key`."""

    def hook(tr, out, exc, args, kwargs):
        if len(args) > index:
            x = args[index]
            tr.count[key] += x.size if isinstance(x, np.ndarray) else int(np.size(x))

    return hook


def _on_solve_step(tr, out, exc, args, kwargs):
    if exc is None:
        iters = int(out[3])
    else:
        # a rejected attempt ran to the iteration cap before raising
        iters = int(args[0].config.max_staggered_iters)
        tr.count["fem2d.halvings"] += 1
    tr.count["fem2d.staggered_iters"] += iters
    tr.peak["fem2d.staggered_iters_max"] = max(tr.peak["fem2d.staggered_iters_max"], iters)


def _on_certify(tr, out, exc, args, kwargs):
    competitors = kwargs.get("competitors", args[2] if len(args) > 2 else 200)
    tr.count["quasistatic.competitors"] += int(competitors) * len(args[0].states)


def _on_vtk(tr, out, exc, args, kwargs):
    if exc is None:
        tr.count["vtkio.bytes"] += os.path.getsize(args[0])


COUNT_ONLY = "count-only"

# span name -> (targets, on_exit hook or COUNT_ONLY).
SPANS = {
    "fem2d.sparse_solve": (
        ("scipy.sparse.linalg:spsolve", "scipy.sparse.linalg:splu", "scipy.sparse.linalg:factorized"),
        None,
    ),
    "fem2d.solve_step": (("cdfdamage.fem2d:SentSolver.solve_step",), _on_solve_step),
    "fem2d.split": (("cdfdamage.fem2d:tensile_energy_density",), None),
    "fem2d.build_mesh": (("cdfdamage.fem2d:build_sent_mesh",), None),
    "damage_laws.psi": (
        ("cdfdamage.damage_laws:psi",),
        _count_points("damage_laws.psi_points"),
    ),
    "damage_laws.degradation": (
        ("cdfdamage.damage_laws:degradation",),
        _count_points("damage_laws.degradation_points"),
    ),
    "distributions.cdf": (
        ("cdfdamage.distributions:cdf",),
        _count_points("distributions.cdf_points"),
    ),
    "distributions.survival_integral": (("cdfdamage.distributions:survival_integral",), None),
    # counted, not timed: these are called ~1e5 times per round at ~5 us each
    "special.scalar": (
        tuple(f"cdfdamage.special:{f}" for f in ("erf", "reg_lower_gamma", "hyp2f1", "sech", "gd")),
        COUNT_ONLY,
    ),
    "quasistatic.solve": (("cdfdamage.quasistatic:solve",), None),
    "quasistatic.state_energy": (("cdfdamage.quasistatic:BarProblem.state_energy",), None),
    "quasistatic.certify_stability": (("cdfdamage.quasistatic:certify_stability",), _on_certify),
    "quasistatic.certify_balance": (("cdfdamage.quasistatic:certify_energy_balance",), None),
    "response_driver.drive_path": (
        ("cdfdamage.response_driver:drive_path",),
        _count_points("response_driver.path_steps", 2),
    ),
    "vtkio.write": (("cdfdamage.vtkio:write_vtk",), _on_vtk),
    "cli.csv_write": (("cdfdamage.cli:write_csv",), None),
}

# Per-layer metrics: name -> (unit, how to read it from a Tracer).
PER_LAYER = {
    "fem2d.sparse_solve_s": ("s", lambda t: t.total_s["fem2d.sparse_solve"]),
    "fem2d.linear_solves": ("count", lambda t: t.calls["fem2d.sparse_solve"]),
    "fem2d.staggered_iters": ("count", lambda t: t.count["fem2d.staggered_iters"]),
    "fem2d.staggered_iters_max": ("count", lambda t: t.peak["fem2d.staggered_iters_max"]),
    "fem2d.halvings": ("count", lambda t: t.count["fem2d.halvings"]),
    "fem2d.step_attempts": ("count", lambda t: t.calls["fem2d.solve_step"]),
    "fem2d.staggered_self_s": ("s", lambda t: t.self_s["fem2d.solve_step"]),
    "fem2d.split_s": ("s", lambda t: t.total_s["fem2d.split"]),
    "fem2d.build_mesh_s": ("s", lambda t: t.total_s["fem2d.build_mesh"]),
    "damage_laws.psi_calls": ("count", lambda t: t.calls["damage_laws.psi"]),
    "damage_laws.psi_points": ("count", lambda t: t.count["damage_laws.psi_points"]),
    "damage_laws.psi_s": ("s", lambda t: t.total_s["damage_laws.psi"]),
    "damage_laws.degradation_calls": ("count", lambda t: t.calls["damage_laws.degradation"]),
    "damage_laws.degradation_points": ("count", lambda t: t.count["damage_laws.degradation_points"]),
    "damage_laws.degradation_s": ("s", lambda t: t.total_s["damage_laws.degradation"]),
    "distributions.cdf_points": ("count", lambda t: t.count["distributions.cdf_points"]),
    "distributions.cdf_s": ("s", lambda t: t.total_s["distributions.cdf"]),
    "distributions.survival_integral_calls": ("count", lambda t: t.calls["distributions.survival_integral"]),
    "distributions.survival_integral_s": ("s", lambda t: t.total_s["distributions.survival_integral"]),
    "special.scalar_calls": ("count", lambda t: t.calls["special.scalar"]),
    "quasistatic.solve_s": ("s", lambda t: t.total_s["quasistatic.solve"]),
    "quasistatic.state_energy_calls": ("count", lambda t: t.calls["quasistatic.state_energy"]),
    "quasistatic.certify_stability_s": ("s", lambda t: t.total_s["quasistatic.certify_stability"]),
    "quasistatic.competitors": ("count", lambda t: t.count["quasistatic.competitors"]),
    "quasistatic.certify_balance_s": ("s", lambda t: t.total_s["quasistatic.certify_balance"]),
    "response_driver.drive_path_s": ("s", lambda t: t.total_s["response_driver.drive_path"]),
    "response_driver.path_steps": ("count", lambda t: t.count["response_driver.path_steps"]),
    "vtkio.write_s": ("s", lambda t: t.total_s["vtkio.write"]),
    "vtkio.bytes": ("count", lambda t: t.count["vtkio.bytes"]),
    "cli.csv_write_s": ("s", lambda t: t.total_s["cli.csv_write"]),
}

# Read per round as the largest value, not the mean.
_PEAK_METRICS = ("fem2d.staggered_iters_max",)


class Tracer:
    """Installs the wrappers of SPANS and accumulates calls, times and counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # the speed clock's working time, which leaves out its samples
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)
        self.peak = defaultdict(int)
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, on_exit):
        tracer = self
        clock = self.clock
        calls = self.calls

        if on_exit is COUNT_ONLY:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            exc = out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = clock() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - frame[0]
                if on_exit is not None:
                    on_exit(tracer, out, exc, args, kwargs)

        return wrapper

    def install(self):
        """Patch every target and every alias of it in the loaded program modules."""
        for name, (targets, on_exit) in SPANS.items():
            for path in targets:
                patch_everywhere(path, lambda fn: self._wrap(name, fn, on_exit), self._restore)

    def uninstall(self):
        unpatch(self._restore)

    def require(self, workload: str, spans):
        missing = [s for s in spans if self.calls[s] == 0]
        if missing:
            raise LayerNotReached(
                f"workload {workload}: traced layers {missing} recorded no calls; "
                "the program no longer calls them under the traced names"
            )

    def metrics(self, rounds: int, traced_round_s: float, raw_round_s: float) -> dict:
        """Per-round layer metrics, plus the tracing's own cost: the wrapper
        calls times the cost of one wrapper measured on a no-op, as a share
        of the traced round's raw wall time."""
        out = {}
        for name, (unit, read) in PER_LAYER.items():
            value = read(self)
            out[name] = {"value": value if name in _PEAK_METRICS else value / rounds, "unit": unit}
        counted = sum(n for span, n in self.calls.items() if SPANS[span][1] is COUNT_ONLY) / rounds
        wrapper_calls = sum(self.calls.values()) / rounds
        overhead_s = ((wrapper_calls - counted) * wrapper_cost_s(self.clock)
                      + counted * wrapper_cost_s(self.clock, COUNT_ONLY))
        out["trace.run_s"] = {"value": traced_round_s, "unit": "s"}
        out["trace.wrapper_calls"] = {"value": wrapper_calls, "unit": "count"}
        out["trace.overhead_pct"] = {
            "value": 100.0 * overhead_s / (raw_round_s - overhead_s), "unit": "%"}
        return out


def wrapper_cost_s(clock, kind=None, n: int = 50000) -> float:
    """Seconds one wrapper adds to a call: a timed one with a counting hook,
    or a COUNT_ONLY one."""

    def noop(law, x):
        return x

    wrapped = Tracer(clock)._wrap("probe", noop, kind or _count_points("probe"))
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            noop(None, 1.0)
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped(None, 1.0)
        best = min(best, (time.perf_counter() - t1) - (t1 - t0))
    return max(best, 0.0) / n
