"""Every sweep as generated C (:mod:`repro.codegen.ctile`): one library
per program shape (its unit holds a device step's finish too), built once
per process, loaded where nothing is left behind, one foreign call per sweep,
the NumPy record's bits, arguments checked before any pointer is passed,
and a missing or failing compiler as RPR142."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bte.problem import build_bte_problem, corner_source_scenario, hotspot_scenario
from repro.codegen import ctile
from repro.dsl.entities import CELL, VAR_ARRAY, Reduction
from repro.dsl.problem import Problem
from repro.fvm.boundary import BCKind
from repro.fvm.kernels import FoldedOperator
from repro.mesh.grid import structured_grid, triangulated_grid
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

    def counted(build, stats):
        start(build, stats)
        if build.pid is not None:
            runs.append(build.path)

    monkeypatch.setattr(ctile, "_BUILDS", {})
    monkeypatch.setattr(ctile._Build, "start", counted)
    return runs


def test_three_programs_compile_once_and_a_warm_generate_compiles_nothing(compiles):
    """Hot spot on the host and on the device, corner source on the host:
    one text — every unit holds the device step's finish — and one compiler
    run; the warm ``generate()`` of each is a cache hit that compiles nothing
    — and the C build is no artifact build."""
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


def test_a_device_program_is_one_library_that_holds_its_finish(compiles):
    """A cold ``generate()`` of a device-placed program with no library
    built yet runs the compiler once: the tile's unit, its boundary part and
    its ``finish_step`` are one text, and the three functions are of that
    library."""
    with cache_scope():
        problem = program("hotspot", "gpu")
        problem.extra["placement_override"] = {"finish_step": "gpu"}
        solver = problem.generate()
    (build,) = ctile._BUILDS.values()
    ns = solver.namespace
    assert len(compiles) == 1 and build.text == solver.tile.text and "int finish(" in build.text
    assert ns["TILE"].lib is ns["BOUNDARY"].lib is ns["finish_step"].lib is build
    solver.run(2)
    assert [r.kernel for r in solver.device.profiler.launches][:2] == [
        "I_interior_step", "finish_step"]


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
    tile = sweep[sweep.index("# the sweep, in C"):]
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
    memo, scalars, rows, u, out, *rest = calls[0]
    for bad in (np.asfortranarray(out), out[:, ::2], out.astype(np.float32),
                np.empty_like(out)[:-1]):
        with pytest.raises(CodegenError, match="no C-ordered float64"):
            tile({}, scalars, rows, u, bad, *rest)
    with pytest.raises(CodegenError, match="out of range"):
        tile({}, scalars, np.array([0, state.ncomp]), u, out, *rest)
    fold = rest[5]._replace(own=rest[5].own[:, :-1].copy())
    with pytest.raises(CodegenError, match="other cells"):
        tile({}, scalars, rows, u, out, *rest[:5], fold, *rest[6:])
    entries = rest[5].entries.copy()
    entries[0, 2] += state.ncells  # an offset entry shifted past the row
    with pytest.raises(CodegenError, match="outside its arrays"):
        tile({}, scalars, rows, u, out, *rest[:5], rest[5]._replace(entries=entries),
             *rest[6:])


def _faces_problem(equation: str, flux, exp: bool = False) -> Problem:
    """A two-direction, two-band problem on a 5x4 grid: FLUX on region 1,
    zero gradient elsewhere, ``equation`` (with ``exp``, a volume term that
    has no C form), on the host."""
    p = Problem("face-loops")
    p.set_domain(2)
    p.set_steps(1e-3, 2)
    p.set_mesh(structured_grid((5, 4)))
    d = p.add_index("d", (1, 2))
    b = p.add_index("b", (1, 2))
    p.add_variable("I", VAR_ARRAY, CELL, index=[d, b])
    p.add_coefficient("Sx", np.array([0.8, -0.5]), VAR_ARRAY, index=[d])
    p.add_coefficient("Sy", np.array([-0.3, 0.6]), VAR_ARRAY, index=[d])
    p.add_coefficient("vg", np.array([0.4, 1.0]), VAR_ARRAY, index=[b])
    for region in p.mesh.boundary_regions():
        p.add_boundary("I", region, BCKind.FLUX if region == 1 else BCKind.NEUMANN0,
                       flux if region == 1 else None)
    p.initial_values["I"] = np.random.default_rng(2).uniform(0.5, 1.5, (4, p.mesh.ncells))
    p.set_conservation_form("I", equation + " - 0.1 * exp(-I[d,b]) * I[d,b]" * exp)
    return p


UPWINDED = "-0.5*I[d,b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))"
CENTRAL = "-0.5*I[d,b] - surface(vg[b] * Sx[d] * average(I[d,b]))"


@pytest.mark.parametrize("equation, part", [(UPWINDED, "boundary"), (CENTRAL, "faces")],
                         ids=["boundary-part", "two-sided"])
def test_a_flux_override_replaces_its_faces_in_the_c_face_loops(equation, part):
    """A FLUX region's values replace its faces' flux in the loop over the
    faces — the boundary part's of a folded statement, the two-sided tile's
    over every face: NaN values reach exactly the cells of those faces, and
    a two-sided step keeps the interpreter's bits."""
    def nan(ctx):
        return np.full((4, ctx.nfaces), np.nan)

    solver = _faces_problem(equation, nan).generate()
    lowered = solver.tile.boundary if part == "boundary" else solver.tile
    assert lowered.shape == part and "overrides" in lowered.operands
    state = solver.state
    u = state.u.copy()
    solver.namespace["compute_rhs"](state, u, 0.0)  # one step (a NaN fails a run's check)
    geom = state.geom
    hit = np.isnan(u).any(axis=0)
    assert set(np.flatnonzero(hit)) == set(geom.owner[geom.region_faces[1]].tolist())
    if part == "faces":
        def flux(ctx):
            return 0.3 * ctx.owner_values * ctx.normals[:, 1]

        cpu = _faces_problem(equation, flux).solve()
        interp = _faces_problem(equation, flux).solve(target="interp")
        assert cpu.solution().tobytes() == interp.solution().tobytes()


@pytest.mark.parametrize("flux", ["vg[b] / Io[b] * Sx[d] * average(I[d,b])",
                                  "vg[b] * Io[b] * upwind([Sx[d];Sy[d]], I[d,b])"],
                         ids=["central", "upwind"])
def test_a_known_variable_in_a_face_loop_is_read_on_the_first_cell(flux):
    """A known variable in a two-sided face statement — its per-sweep
    definition over the faces' first cells, and in C by its component map —
    keeps the interpreter's bits."""
    from tests.codegen.test_fold_selection import indexed_problem

    equation = f"(Io[b] - I[d,b]) / tau[b] - surface({flux})"
    cpu = indexed_problem(equation).solve()
    assert cpu.tile.shape == "faces" and set(cpu.tile.kinds) & {"o", "T"}
    interp = indexed_problem(equation).solve(target="interp")
    assert cpu.solution().tobytes() == interp.solution().tobytes()


def test_what_a_sweep_reads_besides_the_unknown_is_refused_before_the_call():
    """A face loop's ghost values, its FLUX values and a value evaluated
    before the sweep are C-ordered float64 of their shape, and share no
    memory with the unknown (RPR141) or the output — else refused before
    any pointer is passed."""
    solver = _faces_problem(CENTRAL, lambda ctx: 0.3 * ctx.owner_values, exp=True).generate()
    ns, state = solver.namespace, solver.state
    calls, tile = [], ns["TILE"]
    ns["TILE"] = lambda *args: calls.append(args) or tile(*args)
    solver.run(1)
    memo, scalars, rows, u, out, *rest = calls[0]
    kinds = solver.tile.kinds
    at = {kind: 5 + kinds.index(kind) for kind in "gre"}  # (after scratch and the places)
    ghost, (faces, values), first = (rest[at[k]] for k in "gre")

    def call(kind, value):
        args = list(rest)
        args[at[kind]] = value
        tile({}, scalars, rows, u, out, *args)

    for kind, good in (("g", ghost), ("e", first)):
        for bad in (good.astype(np.float32), good[:, :-1], np.asfortranarray(good)):
            with pytest.raises(CodegenError, match="no C-ordered float64"):
                call(kind, bad)
        with pytest.raises(CodegenError, match="share memory") as err:
            call(kind, u.reshape(-1)[:good.size].reshape(good.shape))
        assert err.value.code == "RPR141"
    for bad in ((faces, values[:, :-1]), (faces, values.astype(np.float32))):
        with pytest.raises(CodegenError, match="no C-ordered float64"):
            call("r", bad)
    with pytest.raises(CodegenError, match="out of range"):
        call("r", (faces + state.geom.nfaces, values))
    with pytest.raises(CodegenError, match="share memory"):
        call("r", (faces, u.reshape(-1)[:values.size].reshape(values.shape)))
    call("r", (faces, values))  # as handed: no error


def test_the_unknown_and_the_output_are_addressed_without_the_array_interface():
    """The unknown's and the output's addresses are taken once per object
    (``ctypes``), held with the object and checked on every call: no call
    reads ``__array_interface__``, which costs a dict per read."""
    class Counting(np.ndarray):
        reads = 0

        @property
        def __array_interface__(self):
            Counting.reads += 1
            return super().__array_interface__

    for stepper in ("euler", "rk2"):  # in place; into a fresh right-hand side each call
        problem = program("hotspot")
        problem.set_stepper(stepper)
        solver = problem.generate()
        state = solver.state
        u = state.u.copy().view(Counting)
        for _ in range(3):
            solver.namespace["compute_rhs"](state, u, state.time)
    assert Counting.reads == 0


def test_a_reduction_output_is_checked_before_any_pointer_is_passed():
    """An Euler tile's reduction outputs: one per declared reduction or
    none, each C-ordered ``(rows, cells)`` float64, none sharing memory with
    the unknown or the output; a right-hand side reduces nothing."""
    solver = program("hotspot").generate()
    ns, state = solver.namespace, solver.state
    calls, tile = [], ns["TILE"]
    ns["TILE"] = lambda *args: calls.append(args) or tile(*args)
    solver.run(1)
    memo, scalars, rows, u, out, scratch, bcells, bdry, owned, reduced, *operands = calls[0]
    assert reduced is state.reduced and len(reduced) == 1

    def call(outputs):
        tile({}, scalars, rows, u, out, scratch, bcells, bdry, owned, outputs, *operands)

    with pytest.raises(CodegenError, match="no C-ordered float64"):
        call([reduced[0][:-1]])
    with pytest.raises(CodegenError, match="into its input"):
        call([u[:len(reduced[0])]])
    with pytest.raises(CodegenError, match="every declared reduction"):
        call([reduced[0], reduced[0]])
    u_before = u.copy()
    call([])  # a step that reduces nothing
    assert not np.array_equal(u, u_before)


def test_a_known_variable_over_every_index_is_read_by_its_component_map(monkeypatch):
    """``J[d,b]`` — a known variable on the unknown's own indices — is read
    in the tile, row by row through its component map: the C tile stores
    its NumPy record's bits (:func:`numpy_sweep`)."""
    from tests.codegen.test_fold_selection import BTE_SHAPED, indexed_problem
    from repro.dsl.entities import CELL, VAR_ARRAY

    def problem():
        p = indexed_problem(BTE_SHAPED.replace(" - surface", " + J[d,b] * tau[b] - surface"))
        d, b = p.entities.indices["d"], p.entities.indices["b"]
        p.add_variable("J", VAR_ARRAY, CELL, index=[d, b])
        p.initial_values["J"] = np.random.default_rng(3).uniform(-1, 1, (12, 16))
        return p

    solver = problem().generate()
    assert "v" in solver.tile.kinds and "var_J" in solver.tile.operands
    solver.run(2)
    state = solver.state
    u = state.u.copy()
    expected = numpy_sweep(solver, u, euler=True)
    solver.namespace["compute_rhs"](state, u, state.time)
    assert u.tobytes() == expected.tobytes()


def test_a_corrupt_cached_library_is_a_miss_built_again_and_replaced(compiles, tmp_path,
                                                                       monkeypatch):
    """The artifact cache's rule: an unreadable entry is a miss.  A library
    in the cache directory the loader refuses (7 bytes where it should be)
    is built again, replaced in place, and counted as a disk error.  (The
    corrupt file sits in a directory of its own: this process never loaded
    a library from that path.)"""
    with cache_scope(cache_dir=tmp_path / "good"):
        program("hotspot").generate()
    (good,) = (tmp_path / "good" / "tiles").iterdir()
    library = tmp_path / "cache" / "tiles" / good.name
    library.parent.mkdir(parents=True)
    library.write_bytes(b"corrupt")
    monkeypatch.setattr(ctile, "_BUILDS", {})  # another process
    with cache_scope(cache_dir=tmp_path / "cache") as cache:
        solver = program("hotspot").solve()
    assert np.isfinite(solver.solution()).all()
    assert cache.stats.disk_errors == 1 and len(compiles) == 2
    assert list(library.parent.iterdir()) == [library]
    assert library.read_bytes() == good.read_bytes()
    monkeypatch.setattr(ctile, "_BUILDS", {})  # ... and the next one loads it
    with cache_scope(cache_dir=tmp_path / "cache") as cache:
        program("hotspot").generate()
    assert cache.stats.disk_errors == 0 and len(compiles) == 2


def test_an_unwritable_cache_directory_builds_the_library_privately(compiles, tmp_path,
                                                                    monkeypatch):
    """A ``tiles/`` directory no library can be written into (as root, a
    ``mkdtemp`` there that fails) keeps the cache memory-only, as the
    artifact cache does: the library is built privately, nothing lands in
    the directory, and it counts as a disk error."""
    import tempfile

    mkdtemp = tempfile.mkdtemp

    def refused(*args, dir=None, **kwargs):  # noqa: A002 - mkdtemp's own name
        if dir is not None:
            raise PermissionError(13, "Permission denied", dir)
        return mkdtemp(*args, **kwargs)

    monkeypatch.setattr(tempfile, "mkdtemp", refused)
    with cache_scope(cache_dir=tmp_path / "cache") as cache:
        solver = program("hotspot").solve()
    assert np.isfinite(solver.solution()).all()
    assert cache.stats.disk_errors == 1 and len(compiles) == 1
    assert not list((tmp_path / "cache").glob("tiles/*"))


# -- the vectorized loops, bit for bit --------------------------------------------
#: (mesh, cells): structured rows whose width leaves a scalar epilogue after
#: every vector loop (one lane pair), offset entries with odd bounds among
#: them, and triangles, whose folded operators read by gather entries
WIDTHS = {
    "1": lambda: structured_grid((1, 1)),
    "2": lambda: structured_grid((2, 1)),
    "3": lambda: structured_grid((3, 1)),
    "5": lambda: structured_grid((5, 1)),
    "33": lambda: structured_grid((11, 3)),
    "triangles-6": lambda: triangulated_grid((3, 1)),
    "triangles-30": lambda: triangulated_grid((5, 3)),
}
ND, NB = 3, 2
#: where the sweep stores: in place (``u`` is ``out``), into ``u_new`` on the
#: device (finished there, so the C tile's reduction is the one handed on),
#: and an RK right-hand side
STORES = {"in-place": ("cpu", "euler"), "out-of-place": ("gpu", "euler"),
          "rk2": ("cpu", "rk2")}


def small_problem(mesh, stepper: str, handed: list) -> Problem:
    """An upwinded, relaxing, BTE-shaped problem on ``mesh`` with a band
    reduction declared for a post-step callback that keeps what it is
    handed."""
    p = Problem("vector-widths")
    p.set_domain(2)
    p.set_steps(1e-3, 3)
    p.set_stepper(stepper)
    p.set_mesh(mesh)
    d = p.add_index("d", (1, ND))
    b = p.add_index("b", (1, NB))
    p.add_variable("I", VAR_ARRAY, CELL, index=[d, b])
    p.add_coefficient("Sx", np.array([0.8, -0.5, 0.1]), VAR_ARRAY, index=[d])
    p.add_coefficient("Sy", np.array([-0.3, 0.6, -0.9]), VAR_ARRAY, index=[d])
    p.add_coefficient("vg", np.array([0.4, 1.0]), VAR_ARRAY, index=[b])
    for region, kind in zip(p.mesh.boundary_regions(), (
            BCKind.DIRICHLET, BCKind.SYMMETRY, BCKind.NEUMANN0, BCKind.DIRICHLET)):
        p.add_boundary("I", region, kind, 0.7 if kind == BCKind.DIRICHLET else None,
                       reflection_map=np.arange(ND * NB)[::-1]
                       if kind == BCKind.SYMMETRY else None)
    rng = np.random.default_rng(p.mesh.ncells)
    p.initial_values["I"] = rng.uniform(0.5, 1.5, (ND * NB, p.mesh.ncells))
    p.set_conservation_form(
        "I", "-0.5*I[d,b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))")
    bands = Reduction("bands", np.arange(ND * NB) % NB, 1.0 + np.arange(ND * NB) / 7.0, NB)
    p.add_post_step(lambda state, reduced: handed.append(reduced.tobytes()),
                    name="reader", reduce=bands)
    return p


def run_store(mesh, store: str, handed: list):
    target, stepper = STORES[store]
    problem = small_problem(mesh, stepper, handed)
    if target == "gpu":
        problem.enable_gpu()
        problem.extra.update(gpu_force_offload=True, placement_override={"finish_step": "gpu"})
    solver = problem.generate()
    solver.run()
    return solver


def numpy_sweep(solver, u, euler: bool, boundary: bool = True) -> np.ndarray:
    """What one sweep of ``solver``'s folded tile stores for the rows ``u``,
    by the statement record as NumPy (``tests.codegen.test_emit_properties``'s
    run, the folded operator through its oracle): ``u + dt * (source +
    div)`` under forward ``euler`` (else the right-hand side), the boundary
    cells' columns completed with the boundary part (``boundary``)."""
    from repro.codegen.emit import ExprEmitter
    from repro.ir.lowering import lower_conservation_form
    from tests.codegen.test_emit_properties import _numpy_tile

    state, ns = solver.state, solver.namespace
    problem, geom = state.problem, state.geom
    _, form = lower_conservation_form(problem.equation.source, problem.unknown,
                                      problem.entities, problem.operators)
    emitter = ExprEmitter(problem, form)
    surface = emitter.emit_sum(form.surface_terms, "surface")
    volume = emitter.emit_sum(form.volume_terms, "volume")
    folded = surface.folded
    tables = state.tables(ns["folded_tables"], "interior", divergence=True)
    scope = {**ns, **dict(zip([h.name for h in folded.tables + volume.tables], tables)),
             **{f"var_{n}": state.fields[n].data for n in emitter.referenced_known_variables()}}
    _, v = _numpy_tile(emitter, folded, volume, scope, u, surface.sweep)
    out = u + v * state.dt if euler else v
    if boundary:
        bdry = ns["compute_boundary_contribution"](state, u[:, geom.bowner].copy(), state.time)
        out[:, geom.bcells] += bdry * state.dt if euler else bdry
    return out


@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("width", sorted(WIDTHS))
def test_the_vectorized_tile_is_the_numpy_tile_bit_for_bit(width, store):
    """Every vector loop of the C tile — the folded operator's own and
    offset entries (odd bounds too), the gathers, the element loop in place
    and out of place, the reductions — stores the bits of its NumPy record
    (:func:`numpy_sweep`), epilogues included, and hands the callback the
    NumPy form's reduction."""
    from repro.fvm import kernels

    handed: list = []
    solver = run_store(WIDTHS[width](), store, handed)
    assert solver.tile.euler == (store != "rk2")
    state, ns = solver.state, solver.namespace
    fold, = (t for t in state.tables(ns["folded_tables"], "interior", divergence=True)
             if isinstance(t, FoldedOperator))
    if state.ncells == 33:  # one shift of the row width, odd bounds
        offsets = fold.entries[fold.entries[:, 3] < 0]
        assert (offsets[:, :2] % 2).any()
    elif width.startswith("triangles"):
        assert (fold.entries[:, 3] >= 0).any()
    # the reduction each step handed on: the NumPy form's, of the stored rows
    (reduction,) = state.reductions
    assert len(handed) == 3 and handed[-1] == kernels.reduce_rows(
        solver.solution(), reduction.group, reduction.weight, np.empty((NB, state.ncells))
    ).tobytes()
    # one more sweep, against its NumPy record
    u = solver.solution().copy()
    if store == "out-of-place":  # the device kernel, into ``u_new``
        known = [state.fields[n[4:]].data for n in ns["KERNEL_VAR_NAMES"]]
        got = np.full_like(u, np.nan)
        ns["interior_kernel"](state, u, *known, got, state.buffer)
        expected = numpy_sweep(solver, u, euler=True, boundary=False)
    elif store == "rk2":
        got = ns["compute_rhs"](state, u, state.time)
        expected = numpy_sweep(solver, u, euler=False)
    else:
        expected = numpy_sweep(solver, u.copy(), euler=True)
        ns["compute_rhs"](state, u, state.time)
        got = u
        assert state.reduced[0].tobytes() == kernels.reduce_rows(
            got, reduction.group, reduction.weight, np.empty((NB, state.ncells))).tobytes()
    assert got.tobytes() == expected.tobytes()


#: a two-sided surface statement reading a known variable per face
KNOWN_AVERAGE = "surface(vg[b] / Io[b] * Sx[d] * average(I[d,b]))"


@pytest.mark.parametrize("target, ranks, finish, fault", [
    ("gpu", 1, None, None), ("gpu", 1, "gpu", None), ("gpu_distributed", 2, None, None),
    ("gpu_distributed", 3, "gpu", None), ("gpu_distributed", 4, "gpu", None),
    ("cpu", 1, None, None), ("gpu", 1, "gpu", "kernel:device=gpu0,op=launch,at=3"),
    ("known-average-cpu", 1, None, None), ("known-average-gpu", 1, "gpu", None),
    ("known-average-gpu", 1, "gpu", "kernel:device=gpu0,op=launch,at=3")],
    ids=["gpu-None", "gpu-gpu", "gpu_distributed-None", "gpu_distributed3-gpu",
         "gpu_distributed4-gpu", "rk2-None", "gpu-gpu-kernel-fault", "known-average-cpu",
         "known-average-gpu", "known-average-gpu-kernel-fault"])
def test_a_device_step_resolves_its_arguments_once_per_buffer(target, ranks, finish, fault,
                                                              monkeypatch):
    """The tile and the finish resolve their arguments once per state and
    call site, not once per step, per half of the double buffer or per RK
    stage: a band rank's are held in its own state, never evicted by its
    peers'.  A step a device fault degrades runs over the host's arrays and
    resolves once each way, onto them and back.  A known variable's
    per-sweep definition over the faces (``known-average``, on the host and
    in the device kernel) is written into the same array every step, one
    per sweep: a degraded step's interior leaves the boundary part's be."""
    from repro.runtime.faults import fault_run
    from repro.util.context import current
    from tests.codegen.test_fold_selection import indexed_problem

    resolved: list = []
    monkeypatch.setattr(ctile.Tile, "_pointers", lambda self, *args, _resolve=ctile.Tile._pointers:
                        resolved.append(self.symbol) or _resolve(self, *args))
    if target.startswith("known-average"):
        problem = indexed_problem(KNOWN_AVERAGE)
        if target.endswith("gpu"):
            problem.enable_gpu()
            problem.extra["gpu_force_offload"] = True
            problem.extra["placement_override"] = {"finish_step": finish}
        with fault_run(fault):
            solver = problem.generate()
            assert solver.tile.shape == "faces" and "swp_s0" in solver.tile.operands
            solver.run(8)
            assert len(current().resilience.degraded) == bool(fault)
        degraded = 2 if fault else 0  # onto the host's arrays, and back
        assert resolved.count("tile") == 1 + degraded
        assert resolved.count("boundary") == target.endswith("gpu")
        assert resolved.count("finish") == (1 + degraded) * target.endswith("gpu")
        return
    scenario = hotspot_scenario(nx=8, ny=8, ndirs=4, n_freq_bands=4, nsteps=30)
    problem, _ = build_bte_problem(scenario)
    if target == "cpu":
        problem.set_stepper("rk2")
    else:
        problem.enable_gpu()
        problem.extra["gpu_force_offload"] = True
    if finish is not None:
        problem.extra["placement_override"] = {"finish_step": finish}
    if target == "gpu_distributed":
        problem.set_partitioning("bands", ranks, index="b")
    with fault_run(fault):
        solver = problem.generate()
        solver.run(30 if fault is None else 10)
        assert len(current().resilience.degraded) == bool(fault)
    degraded = 2 if fault else 0  # onto the host's arrays, and back
    assert 0 < resolved.count("tile") <= ranks + degraded
    # the boundary part runs on the host's arrays, degraded or not
    assert 0 < resolved.count("boundary") <= ranks
    assert resolved.count("finish") <= (0 if target == "cpu" else ranks + degraded)
    if target != "cpu":
        assert resolved.count("finish") > 0
