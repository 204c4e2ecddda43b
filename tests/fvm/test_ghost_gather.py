"""``BoundarySet.ghost_values`` as one gather: the same bits as region by region.

Every SYMMETRY and DIRICHLET entry of the ghost array is one flat gather and
one scatter of a plan built per ``where`` object; GHOST_CALLBACK regions keep
their masked put.  The oracle here is the region-by-region form: the ghost
array starts as the owner values, and each region in turn puts its values
(a SYMMETRY region's read from the array at the mirrored rows, before it
writes them), where ``where`` is true if a mask is given.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fvm.boundary import BCKind, BoundaryCondition, BoundarySet
from repro.fvm.geometry import FVGeometry
from repro.mesh.grid import structured_grid

# CI runs with a pinned derandomised profile so failures reproduce
settings.register_profile("ci", derandomize=True, max_examples=60)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

KINDS = list(BCKind)


def ghost_callback(ctx):
    """A ghost callback of the owner values and the time."""
    return ctx.owner_values * -0.5 + ctx.time


def flux_callback(ctx):
    return np.zeros_like(ctx.owner_values)


def oracle(bset: BoundarySet, owner_values, time, out, where) -> np.ndarray:
    """The ghost array region by region, as the set formed it before the plan."""
    ghost = owner_values.copy() if out is None else out
    if out is not None and out is not owner_values:
        ghost[...] = owner_values
    for region, bc in bset.conditions.items():
        slots = bset.geom.region_slots[region]
        if bc.kind == BCKind.DIRICHLET:
            value = np.asarray(bc.value, dtype=np.float64)
            values = value[:, None] if value.ndim else float(value)
        elif bc.kind == BCKind.SYMMETRY:
            values = ghost[np.asarray(bc.reflection_map)[:, None], slots]
        elif bc.kind == BCKind.GHOST_CALLBACK:
            values = owner_values[:, slots] * -0.5 + time
        else:
            continue
        if where is not None:
            held = ghost[:, slots]
            np.copyto(held, values, where=where[:, slots])
            values = held
        ghost[:, slots] = values
    return ghost


def condition(region: int, kind: BCKind, ncomp: int, draw) -> BoundaryCondition:
    if kind == BCKind.DIRICHLET:
        finite = st.floats(-1e6, 1e6, width=64)
        value = draw(st.one_of(finite, st.lists(finite, min_size=ncomp, max_size=ncomp)))
        return BoundaryCondition(region, kind, value=np.asarray(value) if isinstance(
            value, list) else value)
    if kind == BCKind.SYMMETRY:  # any map: fixed points, and rows read twice
        mirror = draw(st.lists(st.integers(0, ncomp - 1), min_size=ncomp, max_size=ncomp))
        return BoundaryCondition(region, kind, reflection_map=np.array(mirror))
    if kind == BCKind.FLUX:
        return BoundaryCondition(region, kind, callback=flux_callback)
    if kind == BCKind.GHOST_CALLBACK:
        return BoundaryCondition(region, kind, callback=ghost_callback)
    return BoundaryCondition(region, kind)


@st.composite
def cases(draw):
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    ncomp = draw(st.integers(1, 6))
    geom = FVGeometry(structured_grid((nx, ny)))
    bset = BoundarySet(geom, ncomp)
    for region in draw(st.permutations([1, 2, 3, 4])):
        bset.add(condition(region, draw(st.sampled_from(KINDS)), ncomp, draw))
    seed = draw(st.integers(0, 2**32 - 1))
    outs = ["none", "self", "other", "other, Fortran order"]
    return bset, seed, draw(st.booleans()), draw(st.sampled_from(outs))


def call(bset: BoundarySet, form, values, time, out_kind, where):
    """``form(bset, owner_values, time, out, where)`` on fresh copies."""
    owner_values = values.copy()
    out = {"none": None, "self": owner_values, "other": np.full_like(values, np.nan),
           "other, Fortran order": np.full_like(values, np.nan, order="F")}[out_kind]
    got = form(bset, owner_values, time, out, where)
    if out is not None:
        assert got is out
    return got


def plan_form(bset, owner_values, time, out, where):
    return bset.ghost_values(owner_values, time, 0.1, None, out, where=where)


@given(case=cases())
def test_the_gather_gives_the_region_by_region_bits(case):
    bset, seed, masked, out_kind = case
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((bset.ncomp, len(bset.geom.bfaces)))
    where = rng.random(values.shape) > 0.5 if masked else None
    for time in (0.0, 0.3):  # cold, then from the kept plan
        expected = call(bset, oracle, values, time, out_kind, where)
        got = call(bset, plan_form, values, time, out_kind, where)
        assert got.tobytes() == expected.tobytes()


def test_a_new_mask_object_rebuilds_the_plan():
    geom = FVGeometry(structured_grid((4, 4)))
    bset = BoundarySet(geom, 3)
    bset.add(BoundaryCondition(1, BCKind.SYMMETRY, reflection_map=np.array([2, 1, 0])))
    bset.add(BoundaryCondition(2, BCKind.DIRICHLET, value=4.0))
    values = np.random.default_rng(0).random((3, len(geom.bfaces)))
    where = values > 0.5
    bset.ghost_values(values, 0.0, 0.0, None, where=where)
    plan = bset._gathers[False]
    bset.ghost_values(values, 0.0, 0.0, None, where=where)
    assert bset._gathers[False] is plan
    equal = where.copy()  # equal contents, another object
    got = bset.ghost_values(values, 0.0, 0.0, None, where=equal)
    assert bset._gathers[False] is not plan and bset._gathers[False].where is equal
    assert got.tobytes() == oracle(bset, values, 0.0, None, where).tobytes()
    unmasked = bset._gathers.get(True)
    bset.ghost_values(values, 0.0, 0.0, None)  # the unmasked plan is another
    assert unmasked is None and bset._gathers[True] is not bset._gathers[False]


def test_a_later_add_rebuilds_the_plan():
    geom = FVGeometry(structured_grid((4, 4)))
    bset = BoundarySet(geom, 2)
    bset.add(BoundaryCondition(1, BCKind.DIRICHLET, value=np.array([1.0, 2.0])))
    values = np.random.default_rng(1).random((2, len(geom.bfaces)))
    bset.ghost_values(values, 0.0, 0.0, None)
    assert bset._gathers
    bset.add(BoundaryCondition(3, BCKind.SYMMETRY, reflection_map=np.array([1, 1])))
    assert not bset._gathers
    got = bset.ghost_values(values, 0.0, 0.0, None)
    assert got.tobytes() == oracle(bset, values, 0.0, None, None).tobytes()
    assert len(bset._gathers[True].dst) == 2 * (len(geom.region_slots[1])
                                                + len(geom.region_slots[3]))


@pytest.mark.parametrize("ncomp,index", [(16, np.uint8), (17, np.uint16)])
def test_the_indices_take_the_narrowest_type_that_holds_the_array(ncomp, index):
    """16 boundary faces of 4 x 4 cells: 16 rows end at flat position 255."""
    geom = FVGeometry(structured_grid((4, 4)))
    bset = BoundarySet(geom, ncomp)
    bset.add(BoundaryCondition(4, BCKind.SYMMETRY, reflection_map=np.arange(ncomp)[::-1]))
    values = np.random.default_rng(2).random((ncomp, len(geom.bfaces)))
    got = bset.ghost_values(values, 0.0, 0.0, None)
    plan = bset._gathers[True]
    assert plan.src.dtype == plan.dst.dtype == index
    assert got.tobytes() == oracle(bset, values, 0.0, None, None).tobytes()
