"""What a solve imports — the regression guard behind the set-up time.

Half of the time to the first step used to be imports and a per-cell mesh
loop.  A timing assertion would flake; the module set does not: each case
runs one small solve in a fresh interpreter and looks at ``sys.modules``.
scipy (356 modules) and networkx (300) must stay off every solver path,
the serial path must not pull in the device, the communicator or the run
registry, and the total stays under a pinned ceiling.  The oracles
that *do* need scipy (``geom.divergence``, ``flux_order=2``) must still
work, and import it then.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).parents[2] / "src")

SOLVE = """
import json, sys
import numpy
eager_ma = "numpy.ma" in sys.modules   # numpy < 2 imports it with numpy
import repro, repro.bte
from repro.bte import build_bte_problem, hotspot_scenario

target, strategy = sys.argv[1], sys.argv[2]
problem, _ = build_bte_problem(hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=4,
                                                dt=1e-12, nsteps=2))
if target.startswith("gpu"):
    problem.enable_gpu()
    problem.extra["gpu_force_offload"] = True
if strategy != "-":
    problem.set_partitioning(strategy, 2, index="b" if strategy == "bands" else None)
assert problem.resolve_target() == target
solver = problem.generate()
solver.run(2)
assert numpy.isfinite(solver.solution()).all()
print(json.dumps({"modules": sorted(sys.modules), "eager_ma": eager_ma}))
"""

ORACLES = """
import json, sys
import numpy as np
from repro.bte import build_bte_problem, hotspot_scenario

problem, _ = build_bte_problem(hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=4,
                                                dt=1e-12, nsteps=2))
solver = problem.generate()
solver.run(1)
geom = solver.state.geom
before = "scipy" in sys.modules
flux = np.arange(geom.nfaces, dtype=float)
assert geom.surface_divergence(flux).tobytes() == (geom.divergence @ flux).tobytes()
assert len(geom.gradient_ops) == 2
problem2, _ = build_bte_problem(hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=4,
                                                 dt=1e-12, nsteps=2))
problem2.set_flux_order(2)
second = problem2.solve()
assert np.isfinite(second.solution()).all()
assert solver.state.mesh.to_networkx().number_of_nodes() == 64
print(json.dumps({"before": before, "after": "scipy" in sys.modules,
                  "networkx": "networkx" in sys.modules}))
"""


def run(script: str, *args: str) -> dict:
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded(modules: list[str], *prefixes: str) -> list[str]:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


#: modules in ``sys.modules`` after the solve, measured + 2.  A rise means
#: something new is imported on the way to the first step: find it
#: (``python -X importtime``) before raising the ceiling.
CEILINGS = {
    ("cpu", "-"): 286,                  # 284 (617 before scipy left the path)
    ("distributed", "cells"): 320,      # 318
    ("distributed", "bands"): 304,      # 302
    ("gpu", "-"): 300,                  # 298
    ("gpu_distributed", "bands"): 310,  # 308
}


@pytest.mark.parametrize("target, strategy", sorted(CEILINGS))
def test_a_solve_imports_only_what_it_enters(target, strategy):
    out = run(SOLVE, target, strategy)
    modules = out["modules"]
    assert loaded(modules, "scipy", "networkx", "repro.serve", "repro.cli") == []
    # what no solver path enters: file readers, the run registry, report
    # and profile (a phase is timed by the timers alone), the verifier and
    # the sanitizer (a run without one reads ``None``), the hand-written
    # reference
    assert loaded(modules, "repro.mesh.gmsh_io", "repro.mesh.medit_io", "repro.mesh.vtk_io",
                  "repro.obs.registry", "repro.obs.report", "repro.obs.profile",
                  "repro.verify", "repro.bte.reference", "repro.bte.conductivity",
                  "repro.codegen.probes") == []
    if not out["eager_ma"]:
        assert loaded(modules, "numpy.ma") == []  # np.unique drags it in: 20 ms
    if target == "cpu":
        assert loaded(modules, "repro.gpu", "repro.perfmodel", "repro.codegen.placement",
                      "repro.runtime.comm", "repro.runtime.executor", "repro.runtime.halo",
                      "repro.mesh.partition") == []
    if not target.startswith("gpu"):
        assert loaded(modules, "repro.codegen.gpu_hybrid", "repro.codegen.placement") == []
    assert len(modules) <= CEILINGS[target, strategy], len(modules)


def test_the_scipy_and_networkx_oracles_still_work_and_import_on_use():
    out = run(ORACLES)
    assert out == {"before": False, "after": True, "networkx": True}


def test_importing_the_packages_is_cheap():
    out = run("import json, sys, repro, repro.bte, repro.mesh, repro.obs, repro.runtime, "
              "repro.tune, repro.verify, repro.codegen\n"
              "print(json.dumps({'modules': sorted(sys.modules)}))")
    assert loaded(out["modules"], "scipy", "networkx") == []
    # a package import names its exports; it does not import their modules
    assert loaded(out["modules"], "repro.mesh.partition", "repro.runtime.comm",
                  "repro.tune.cache", "repro.verify.lint", "repro.obs.registry") == []
    from repro.mesh import read_gmsh, read_medit, read_vtk  # noqa: F401  (still resolve)
