"""The folded tile as generated C (:mod:`repro.codegen.ctile`): one library
per equation shape, built once per process, loaded where nothing is left
behind, one foreign call per sweep, and a missing or failing compiler as
RPR142."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem, corner_source_scenario, hotspot_scenario
from repro.codegen import ctile
from repro.tune.cache import cache_scope
from repro.util.errors import CodegenError

SRC = str(Path(__file__).parents[2] / "src")


def program(kind: str, target: str = "cpu"):
    """One of the served mix's three programs (``benchmarks/e2e``), small."""
    if kind == "corner":
        scenario = corner_source_scenario(nx=16, ny=4, ndirs=4, n_freq_bands=4, nsteps=2)
    else:
        scenario = hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=4, nsteps=2)
    problem, _ = build_bte_problem(scenario)
    if target == "gpu":
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
    return problem


@pytest.fixture
def compiles(monkeypatch) -> list:
    """A process with no library built yet; the list of compiler runs."""
    runs: list = []
    start = ctile._Build.start

    def counted(build):
        start(build)
        if build.pid is not None:
            runs.append(build.path)

    monkeypatch.setattr(ctile, "_BUILDS", {})
    monkeypatch.setattr(ctile._Build, "start", counted)
    return runs


def test_three_programs_compile_once_and_a_warm_generate_compiles_nothing(compiles):
    """Hot spot on the host and on the device, corner source on the host:
    one C text, one compiler run; the warm ``generate()`` of each is a cache
    hit that compiles nothing — and the C build is no artifact build."""
    with cache_scope() as cache:
        solvers = [program(kind, target).generate()
                   for kind, target in (("hotspot", "cpu"), ("hotspot", "gpu"),
                                        ("corner", "cpu"))]
        assert solvers[1].state.device is not None  # the device kernel, really
        assert len({s.tile.text for s in solvers}) == 1 and len(compiles) == 1
        assert cache.stats.builds == 3
        for kind, target in (("hotspot", "cpu"), ("hotspot", "gpu"), ("corner", "cpu")):
            program(kind, target).generate()
        assert len(compiles) == 1 and cache.stats.builds == 3 and cache.stats.memory_hits == 3
    for solver in solvers:
        solver.run(2)
        assert np.isfinite(solver.solution()).all()


def test_the_library_leaves_nothing_behind_or_lands_in_the_cache_directory(
        compiles, tmp_path, monkeypatch):
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    with cache_scope():
        program("hotspot").generate()
    assert len(compiles) == 1 and not os.listdir(tmp_path / "tmp")
    monkeypatch.setattr(ctile, "_BUILDS", {})
    with cache_scope(cache_dir=tmp_path / "cache"):
        program("hotspot").generate()
    (library,) = (tmp_path / "cache" / "tiles").iterdir()
    assert library.suffix == ".so" and len(compiles) == 2
    # another process (a fresh memo) loads it from there: no compiler run
    monkeypatch.setattr(ctile, "_BUILDS", {})
    with cache_scope(cache_dir=tmp_path / "cache"):
        program("hotspot").solve()
    assert len(compiles) == 2 and list((tmp_path / "cache" / "tiles").iterdir()) == [library]


def test_a_folded_exact_tile_is_one_foreign_call_per_sweep():
    solver = program("hotspot").generate()
    sweep = solver.source[solver.source.index("def compute_rhs("):].split("\ndef ")[0]
    tile = sweep[sweep.index("# the tile, in C"):]
    assert tile.count("TILE(") == 1 and "np." not in tile and "kernels." not in tile
    assert "for sel, n, " not in sweep and "cell_pool" not in sweep
    calls = []
    ns = solver.namespace
    ns["TILE"] = lambda *args, _tile=ns["TILE"]: calls.append(args) or _tile(*args)
    solver.run(3)
    assert len(calls) == 3


def test_the_c_text_names_nothing_the_user_chose():
    """Identifiers are positional; sizes, coefficients and names are
    arguments: two problems of one equation shape, one text."""
    text = program("hotspot").generate().tile.text
    for name in ("Sx", "vg", "beta", "Io", "tab_", "swp_", "fold_", "tmap", "coef_"):
        assert name not in text
    assert "2304" not in text and "64" not in text.replace("int64", "")


def test_no_compiler_on_the_path_is_rpr142(compiles, monkeypatch, tmp_path):
    monkeypatch.setenv("PATH", str(tmp_path))
    with cache_scope(), pytest.raises(CodegenError, match="no C compiler") as err:
        program("hotspot").generate()
    assert err.value.code == "RPR142" and not compiles


def test_a_failing_compiler_is_rpr142(compiles, monkeypatch):
    monkeypatch.setattr(ctile, "COMPILER", "false")  # runs, exits 1
    with cache_scope(), pytest.raises(CodegenError, match="failed") as err:
        program("hotspot").generate()
    assert err.value.code == "RPR142" and len(compiles) == 1


def test_bte_without_a_compiler_exits_2_with_one_error_line(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC, "PATH": str(tmp_path)}
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bte", "--nx", "8", "--ndirs", "4", "--bands", "4",
         "--steps", "1"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    lines = [ln for ln in (proc.stdout + proc.stderr).splitlines() if "RPR142" in ln]
    assert len(lines) == 1 and lines[0].startswith("error RPR142:"), proc.stderr


def test_arrays_of_another_layout_are_refused_before_any_pointer_is_passed():
    solver = program("hotspot").generate()
    ns, state = solver.namespace, solver.state
    calls, tile = [], ns["TILE"]
    ns["TILE"] = lambda *args: calls.append(args) or tile(*args)
    solver.run(1)
    memo, scalars, euler, rows, u, out, *rest = calls[0]
    for bad in (np.asfortranarray(out), out[:, ::2], out.astype(np.float32),
                np.empty_like(out)[:-1]):
        with pytest.raises(CodegenError, match="no C-ordered float64"):
            tile({}, scalars, euler, rows, u, bad, *rest)
    with pytest.raises(CodegenError, match="out of range"):
        tile({}, scalars, euler, np.array([0, state.ncomp]), u, out, *rest)
    fold = rest[4]._replace(own=rest[4].own[:, :-1].copy())
    with pytest.raises(CodegenError, match="other cells"):
        tile({}, scalars, euler, rows, u, out, *rest[:4], fold, *rest[5:])
    entries = rest[4].entries.copy()
    entries[0, 2] += state.ncells  # an offset entry shifted past the row
    with pytest.raises(CodegenError, match="outside its arrays"):
        tile({}, scalars, euler, rows, u, out, *rest[:4], rest[4]._replace(entries=entries),
             *rest[5:])


def test_a_known_variable_over_every_index_is_read_by_its_component_map(monkeypatch):
    """``J[d,b]`` — a known variable on the unknown's own indices — is read
    in the tile, row by row through its component map: the C tile stores
    the NumPy tile's bits."""
    from tests.codegen.test_fold_selection import BTE_SHAPED, indexed_problem
    from repro.dsl.entities import CELL, VAR_ARRAY

    def problem():
        p = indexed_problem(BTE_SHAPED.replace(" - surface", " + J[d,b] * tau[b] - surface"))
        d, b = p.entities.indices["d"], p.entities.indices["b"]
        p.add_variable("J", VAR_ARRAY, CELL, index=[d, b])
        p.initial_values["J"] = np.random.default_rng(3).uniform(-1, 1, (12, 16))
        return p

    with cache_scope():
        c_tile = problem().solve()
    assert "v" in c_tile.tile.kinds and "state.fields['J'].data" in c_tile.tile.operands
    monkeypatch.setattr(ctile, "lower", lambda *args: None)
    with cache_scope():
        numpy_tile = problem().solve()
    assert numpy_tile.tile is None
    assert c_tile.solution().tobytes() == numpy_tile.solution().tobytes()
