"""What a sweep is handed and how it is cut are invisible in the results,
bit for bit.

Every target sweeps its rows with one C call (:mod:`repro.codegen.ctile`):
all operations of a row are elementwise, the divergence is per column and
the folded upwind operator per table row, so neither the rows a call is
handed (a band rank's, a device launch's) nor the target changes a single
bit of the solution — the surface statement of the BTE being folded through
the divergence on every target alike.  The one blocked loop left, the
temperature closure's, solves its cells in blocks of ``TILE_BYTES``
(:mod:`repro.bte.equilibrium`), each cell on its own.  The property suite
solves one small BTE hotspot problem (FLUX-override walls top and bottom,
symmetry ghosts left and right) under randomly drawn configurations —
target (band ranks sweep index-array ``rows``, device ranks launch row
blocks), ``assemblyLoops`` order, ``flux_order``, an injected device fault
— at four block heights and demands equal digests:

* one cell per block,
* the derived height (``TILE_BYTES`` as shipped),
* a single block holding every cell,
* a height that leaves a ragged last block.

The explicit tests pin the row-restriction contract: band-partitioned
ranks and multi-GPU launches read and write only the rows they own, what is
evaluated in NumPy before the call included.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bte import equilibrium
from repro.bte.problem import build_bte_problem, hotspot_scenario
from repro.fvm import kernels
from repro.runtime.faults import fault_run
from repro.util.context import current
from tests.fvm.folded_oracle import apply_folded

# CI runs with a pinned derandomised profile so failures reproduce
settings.register_profile("ci", derandomize=True, max_examples=60)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

NX = 6
NBANDS = 4  # (polarised) bands of the scenario's 3 frequency bands


def scenario():
    return hotspot_scenario(nx=NX, ny=NX, ndirs=4, n_freq_bands=3,
                            dt=1e-12, nsteps=3)


def build_problem(equation=None):
    """The hotspot problem from a rough initial state: direction-dependent
    from the first step, so the symmetry ghosts differ from their owners
    (its ``equation`` another one)."""
    sc = scenario()
    if equation is not None:
        sc.equation = equation
    problem, _ = build_bte_problem(sc)
    base = np.asarray(problem.initial_values["I"])
    rough = 1.0 + 0.2 * np.random.default_rng(7).random((len(base), NX * NX))
    problem.set_initial("I", base[:, None] * rough)
    return problem


def use_gpu(problem):
    problem.enable_gpu()
    problem.extra["gpu_force_offload"] = True


def use_gpu_multi(problem):
    use_gpu(problem)
    problem.set_partitioning("bands", 2, index="b")


#: name -> (configure, takes flux_order(2), device whose launch can fault)
TARGETS = {
    "cpu": (lambda p: None, True, None),
    "cells": (lambda p: p.set_partitioning("cells", 2), True, None),
    "bands": (lambda p: p.set_partitioning("bands", 2, index="b"), True, None),
    "gpu": (use_gpu, False, "gpu0"),
    "gpu_multi": (use_gpu_multi, False, "gpu1"),
}
LOOPS = (None, ("b", "cells", "d"), ("d", "cells", "b"), ("d", "b", "cells"))


def digest(solver) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(solver.solution()).tobytes())
    h.update(np.ascontiguousarray(solver.state.extra["T"]).tobytes())
    return h.hexdigest()


def solve(monkeypatch, rows, target, loops=None, order=1, fault=False):
    """One solve with closure blocks of ``rows`` cells (None: as shipped)."""
    configure, _, device = TARGETS[target]
    problem = build_problem()
    configure(problem)
    if loops is not None:
        problem.set_assembly_loops(list(loops))
    if order == 2:
        problem.set_flux_order(2)
    with monkeypatch.context() as patch:
        if rows is not None:
            patch.setattr(equilibrium, "TILE_BYTES", 8 * NBANDS * rows)
        spec = f"oom:device={device},op=launch,at=1" if fault else None
        with fault_run(spec, seed=5):
            solver = problem.solve()
            log = current().resilience
        if fault:  # the step re-ran the same sweep on the host
            assert log.injected == {"oom": 1}
            assert log.degraded and log.degraded[0]["to"] == "cpu"
    return solver


@settings(max_examples=20, deadline=None)
@given(
    target=st.sampled_from(sorted(TARGETS)),
    loops=st.sampled_from(LOOPS),
    order=st.sampled_from((1, 2)),
    fault=st.booleans(),
    ragged=st.integers(min_value=2, max_value=7),
)
def test_tile_height_never_changes_a_bit(target, loops, order, fault, ragged):
    _, second_order, device = TARGETS[target]
    order = order if second_order else 1
    fault = fault and device is not None
    with pytest.MonkeyPatch.context() as monkeypatch:
        def run(rows):
            return solve(monkeypatch, rows, target, loops, order, fault)

        whole = run(10_000)  # one block: the unblocked evaluation
        assert whole.state.problem.extra["bte_model"].bands.nbands == NBANDS
        ncells = whole.state.ncells
        if ncells % ragged == 0:
            ragged += 1
        expected = digest(whole)
        for rows in (1, None, ragged):
            assert digest(run(rows)) == expected, (
                f"blocks of {rows} cells changed the result on {target} "
                f"(loops={loops}, order={order}, fault={fault})"
            )


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_faulted_ragged_tiles_match_whole_blocks(monkeypatch, target):
    """The corner the property suite may not draw: ragged blocks + the
    degraded CPU re-execution on device targets, non-trivial
    ``assemblyLoops``."""
    fault = TARGETS[target][2] is not None
    args = dict(target=target, loops=("b", "cells", "d"), fault=fault)
    assert (digest(solve(monkeypatch, 3, **args))
            == digest(solve(monkeypatch, 10_000, **args)))


@pytest.mark.parametrize("target", ["cpu", "gpu"])
def test_derived_height_on_a_mesh_that_needs_tiles(monkeypatch, target):
    """``TILE_BYTES`` as shipped, on a mesh wide enough that the closure's
    derived block splits the cells into several blocks with a ragged last
    one."""
    sc = hotspot_scenario(nx=130, ny=130, ndirs=4, n_freq_bands=3, dt=1e-12, nsteps=2)

    def run(tile_bytes):
        problem, _ = build_bte_problem(sc)
        TARGETS[target][0](problem)
        with monkeypatch.context() as patch:
            if tile_bytes is not None:
                patch.setattr(equilibrium, "TILE_BYTES", tile_bytes)
            return problem.solve()

    derived = run(None)
    ncells = derived.state.ncells
    width = equilibrium.TILE_BYTES // (8 * NBANDS)
    assert 1 < width < ncells and ncells % width
    assert digest(derived) == digest(run(1 << 40))


def test_all_euler_targets_are_bit_identical_at_every_tile_height(monkeypatch):
    """One step shape on every target — the folded interior sweep plus the
    one ``compute_boundary_contribution``, combined as ``u + (du_bdry * dt)``
    — so the serial, cell- and band-partitioned, hybrid and multi-device
    solves of one problem (nx=16, 8 directions x 11 bands, 8 steps) agree to
    the last bit, whatever the closure's block height."""
    sc = hotspot_scenario(nx=16, ny=16, ndirs=8, n_freq_bands=8, dt=1e-12, nsteps=8)

    def run(target, cells=None):
        problem, _ = build_bte_problem(sc)
        TARGETS[target][0](problem)
        with monkeypatch.context() as patch:
            if cells is not None:  # closure blocks of ``cells`` cells
                patch.setattr(equilibrium, "TILE_BYTES", 8 * 11 * cells)
            return problem.solve()

    serial = run("cpu")
    assert serial.state.ncomp == 88 and serial.tile.folds == 1
    assert serial.tile.boundary.shape == "boundary"
    expected = digest(serial)
    for target in sorted(TARGETS):
        assert digest(run(target)) == expected, target
        assert digest(run(target, cells=5)) == expected, f"{target}, blocks of 5 cells"


# --------------------------------------------------------------------------
# row restriction: a rank / launch touches only its own rows
# --------------------------------------------------------------------------

class _RecordingRows(np.ndarray):
    """An array that remembers the row keys it was indexed with (it, not
    the tiles taken from it: those index their own rows)."""

    def __array_finalize__(self, obj):
        self.keys = None if isinstance(obj, _RecordingRows) else []

    def __getitem__(self, key):
        if self.keys is not None:
            self.keys.append(key)
        return super().__getitem__(key)

    def take(self, indices, axis=None, **kwargs):  # ``np.take(u, rows, axis=0)``
        if self.keys is not None and axis == 0:
            self.keys.append(indices)
        return super().take(indices, axis=axis, **kwargs)


def _rows_of(keys, ncomp):
    return set().union(*(np.arange(ncomp)[k].ravel().tolist() for k in keys))


def test_band_ranks_sweep_only_their_own_rows():
    """The C tile of a band rank is called over its own rows of its own
    unknown, once per step (the boundary part reads the owner values of
    every row, and is not what this pins)."""
    problem = build_problem()
    problem.set_partitioning("bands", 2, index="b")
    solver = problem.generate()
    ns = solver.namespace
    make_rank_state, tile = ns["make_rank_state"], ns["TILE"]
    swept: dict[int, list] = {}
    rank_of: dict[int, int] = {}  # id of a rank's unknown -> the rank

    def recording_rank_state(rank):
        state = make_rank_state(rank)
        rank_of[id(state.host_u)] = rank, state.owned_comps
        return state

    def recording_tile(memo, scalars, rows, u, *rest):
        swept.setdefault(rank_of[id(u)][0], []).append(rows)
        assert rows is rank_of[id(u)][1]
        return tile(memo, scalars, rows, u, *rest)

    ns["make_rank_state"], ns["TILE"] = recording_rank_state, recording_tile
    solver.run(2)
    assert {rank: len(calls) for rank, calls in swept.items()} == {0: 2, 1: 2}


def test_cell_ranks_sweep_only_their_piece():
    """The C tile of a cell rank is called over every row of its own
    unknown, once per step: the columns of its piece of the mesh (its owned
    cells and their halo), fewer than the mesh's."""
    problem = build_problem()
    problem.set_partitioning("cells", 2)
    solver = problem.generate()
    ns = solver.namespace
    make_rank_state, tile = ns["make_rank_state"], ns["TILE"]
    swept: dict[int, list] = {}
    rank_of: dict[int, tuple] = {}  # id of a rank's unknown -> the rank, its piece

    def recording_rank_state(rank):
        state = make_rank_state(rank)
        rank_of[id(state.host_u)] = rank, state.piece
        return state

    def recording_tile(memo, scalars, rows, u, *rest):
        rank, piece = rank_of[id(u)]
        swept.setdefault(rank, []).append(u.shape[1])
        assert rows is None and u.shape[1] == len(piece.cells) == piece.mesh.ncells
        return tile(memo, scalars, rows, u, *rest)

    ns["make_rank_state"], ns["TILE"] = recording_rank_state, recording_tile
    solver.run(2)
    assert {rank: len(calls) for rank, calls in swept.items()} == {0: 2, 1: 2}
    assert all(n < solver.state.ncells for calls in swept.values() for n in calls)


#: the hotspot's equation with a term that has no C form (an ``exp`` of the
#: unknown, evaluated in NumPy over the sweep's rows before the call)
EXP_EQUATION = ("(Io[b] - I[d,b]) / beta[b] - 1e-3 * exp(-I[d,b] / Io[b]) * I[d,b]"
                " - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))")


def test_band_ranks_gather_only_their_own_rows():
    """What a band rank evaluates in NumPy before its C call — an ``exp``
    volume term, the MUSCL limiter of ``flux_order(2)`` with the sides it
    reads — takes only its own rows of its unknown (the rank's sweep is
    called over them; the FLUX callbacks, which read the owner values of
    every row, are not what this pins)."""
    problem = build_problem(EXP_EQUATION)
    problem.set_flux_order(2)
    problem.set_partitioning("bands", 2, index="b")
    solver = problem.generate()
    ns = solver.namespace
    make_rank_state = ns["make_rank_state"]
    unknowns: dict[int, _RecordingRows] = {}
    owned: dict[int, np.ndarray] = {}

    def recording_rank_state(rank):
        state = make_rank_state(rank)
        field = state.fields["I"]
        field.data = unknowns[rank] = field.data.view(_RecordingRows)
        owned[rank] = state.owned_comps
        return state

    ns["make_rank_state"] = recording_rank_state
    assert "kernels.muscl_flux(" in solver.source and "np.exp(" in solver.source
    assert {"e", "E"} <= set(solver.tile.kinds)  # a cell- and a face-shaped operand
    solver.run(2)
    ncomp = solver.state.ncomp
    assert set(unknowns) == {0, 1}
    for rank, u in unknowns.items():
        rows = [k for k in u.keys if not isinstance(k, tuple)]  # (``u[..., cells]``: a callback's)
        assert len(rows) >= 2  # the sides, the limiter, the exp term
        assert _rows_of(rows, ncomp) == set(owned[rank].tolist())


LAUNCH_ROWS = [
    np.array([1, 2, 3, 11, 12, 13]),  # a band block's strided rows
    np.arange(5, 10),                 # a contiguous block of rows
]


@pytest.mark.parametrize("rows", LAUNCH_ROWS)
def test_kernel_launch_touches_only_selected_rows(monkeypatch, rows):
    """The C tile of a launch over ``rows`` writes those rows, as a launch
    over every row writes them, and no other."""
    assert_launch_touches_only(rows, recorded=False)


@pytest.mark.parametrize("rows", LAUNCH_ROWS)
def test_numpy_kernel_launch_gathers_only_selected_rows(monkeypatch, rows):
    """What such a launch evaluates in NumPy first (an ``exp`` volume term)
    reads only those rows."""
    assert_launch_touches_only(rows, recorded=True)


def assert_launch_touches_only(rows, recorded: bool) -> None:
    problem = build_problem(EXP_EQUATION if recorded else None)
    use_gpu(problem)
    solver = problem.generate()
    state, ns = solver.state, solver.namespace
    known = [state.fields[n.replace("var_", "")].data for n in ns["KERNEL_VAR_NAMES"]]

    full = np.full_like(state.u, np.nan)
    ns["interior_kernel"](state, state.u, *known, full, state.buffer)
    u = state.u.copy().view(_RecordingRows)
    part = np.full_like(state.u, np.nan)
    ns["interior_kernel"](state, u, *known, part, state.buffer, rows)

    others = np.setdiff1d(np.arange(state.ncomp), rows)
    assert np.array_equal(part[rows], full[rows])
    assert np.isnan(part[others]).all()
    # (C reads the rows it is given: only what NumPy evaluates first is recorded)
    assert _rows_of(u.keys, state.ncomp) == (set(rows.tolist()) if recorded else set())


def test_surface_statement_without_a_row_leaf_fills_the_tile():
    """``surface(k)`` evaluates to a scalar (passed by value); the face
    loop still stores it on every face, for the overrides and the
    divergence."""
    from repro.dsl.problem import Problem
    from repro.fvm.boundary import BCKind
    from repro.mesh.grid import structured_grid

    def solve(target):
        p = Problem("rowless")
        p.set_domain(2)
        p.set_steps(1e-3, 3)
        p.set_mesh(structured_grid((4, 4)))
        p.add_variable("u")
        p.add_coefficient("k", 2.0)
        for region in (1, 2, 3, 4):
            p.add_boundary("u", region, BCKind.NEUMANN0)
        p.set_initial("u", 1.0)
        p.set_conservation_form("u", "-k*u - surface(k)")
        return p.solve(target=target)

    generated = solve("cpu")
    assert generated.tile.shape == "faces" and "fl[f] = s1;" in generated.tile.text
    np.testing.assert_allclose(generated.solution(), solve("interp").solution(),
                               rtol=1e-13)


# --------------------------------------------------------------------------
# the folded upwind operator, and the row locality the in-place store relies on
# --------------------------------------------------------------------------

@pytest.mark.parametrize("rows", [
    slice(2, 9),                        # straddles three direction rows
    slice(7, 8),                        # one row
    np.array([0, 1, 4, 5, 6, 13, 14]),  # a band rank's strided rows
    None,                               # every row
])
def test_upwind_gather_equals_the_select_of_two_gathers(rows):
    """What a folded tile computes from its own rows — own-cell coefficient
    plus one gather per inflow face — against the body it replaced: both
    sides gathered onto the interior faces, the upwind one selected, scaled
    by the table and taken through the divergence.  To rounding: the fold
    re-associates the products."""
    solver = build_problem().generate()
    solver.run(2)  # direction-dependent values on both sides
    state, ns = solver.state, solver.namespace
    geom, u = state.geom, state.u
    faces = geom.interior_faces
    tables = [geom.normal[faces], geom.face_dist[faces], geom.owner[faces],
              geom.neighbor_column[faces]]
    mask, projected, columns = ns["invariant_tables"](*tables)
    fold = kernels.fold_upwind(geom.divergence_rows(faces=faces), projected, columns)
    # the operator the C tile reads is this one
    (held,) = state.tables(ns["folded_tables"], "interior", divergence=True)
    assert all(map(np.array_equal, held, fold))
    table_rows = ns["tmap_d"] if rows is None else ns["tmap_d"][rows]
    assert rows is None or isinstance(rows, slice) or len(set(table_rows)) > 1
    u1, u2 = (side[:, faces] for side in geom.gather_sides(u, None, rows))
    flux = np.where(mask[table_rows], u1, u2) * projected[table_rows]
    expected = (geom.divergence[:, faces] @ flux.T).T
    us = u[slice(None) if rows is None else rows]
    # into scratch taller than the tile, as the kernel bodies call it
    n = len(expected)
    out, work = np.full((2, n + 3, geom.ncells), np.nan)
    got = apply_folded(fold, us, kernels.table_runs(table_rows), out[:n], work[:n])
    assert np.shares_memory(got, out) and np.isnan(out[n:]).all()
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
    # every row on its own: the tile's rows are the whole sweep's, bit for bit
    whole = apply_folded(fold, u, kernels.table_runs(ns["tmap_d"]),
                         np.empty_like(u), np.empty_like(u))
    assert got.tobytes() == whole[slice(None) if rows is None else rows].tobytes()
    # the upwind choice reads no ghost slot among the interior faces
    assert (columns >= 0).all()


@pytest.mark.parametrize("equation", [
    "(Io[b] - I[d,1]) / tau[b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))",
    "(Io[b] - I[d,b]) / tau[b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[2,b]))",
])
@pytest.mark.parametrize("configure", [lambda p: None, use_gpu], ids=["cpu", "gpu"])
def test_statement_reading_the_unknown_outside_its_tile_is_rejected(equation, configure):
    """Rows are swept independently and forward Euler stores in place: a
    statement may read the unknown only at the component it computes.
    ``I[d,1]`` (band 1 for every ``b``) would read another tile's rows, and
    fails at generation with the catalogued code."""
    from repro.util.errors import CodegenError
    from tests.codegen.test_interpreter_oracle import build_indexed_problem

    problem = build_indexed_problem(3, 2, seed=1, equation=equation)
    configure(problem)
    with pytest.raises(CodegenError, match="outside the tile's own rows") as err:
        problem.generate()
    assert err.value.code == "RPR141"


def test_boundary_values_sharing_memory_with_the_unknown_are_rejected():
    """In a two-sided sweep (here: a central flux, which does not fold) the
    ghost values are read after earlier rows were stored: the C call refuses
    them as a view of ``u`` when it resolves its arguments, once per state
    (the FLUX values are the boundary set's own array).  A folded
    sweep evaluates the whole boundary part, from a copy of the owner
    values, before its first store."""
    from repro.util.errors import CodegenError

    def central():
        return build_problem("(Io[b] - I[d,b]) / beta[b]"
                             " - surface(vg[b] * Sx[d] * average(I[d,b]))").generate()

    solver = central()
    assert "g" in solver.tile.kinds  # the second sides: ghost values on the boundary
    state = solver.state
    nb = len(state.geom.bfaces)
    buffer = state.buffer  # the ghost values formed in a view of ``u``
    state.buffer = lambda name, shape: state.u[:, :nb] if name == "ghost" else buffer(name, shape)
    with pytest.raises(CodegenError, match="share memory") as err:
        solver.run(1)
    assert err.value.code == "RPR141"
    clean = central()
    clean.run(1)
    assert np.isfinite(clean.solution()).all()


def test_rk_stages_store_from_the_same_tile_body(monkeypatch):
    """An RK stage stores the next stage's input into the buffer it is
    handed and leaves ``u`` alone, with no NumPy step around it; the
    temperature closure blocks like the rest."""
    def solve(rows):
        problem = build_problem()
        problem.set_stepper("rk2")
        with monkeypatch.context() as patch:
            patch.setattr(equilibrium, "TILE_BYTES", 8 * NBANDS * rows)
            return problem.solve()

    solver = solve(10_000)
    assert "return sweep(state.plans, (s,), rows, u, out," in solver.source
    # (no NumPy step around the sweeps: no errstate, no stepper object)
    assert "errstate" not in solver.source and "stepper" not in solver.namespace
    state, ns = solver.state, solver.namespace
    before = state.u.copy()
    y = np.full_like(before, np.nan)
    assert ns["compute_rhs"](state, state.u, state.time, ns["STAGE1"], 0.5 * state.dt, y) == 0
    assert np.array_equal(state.u, before) and np.isfinite(y).all()
    assert digest(solve(3)) == digest(solver)
