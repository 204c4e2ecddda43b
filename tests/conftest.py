"""Shared fixtures: small meshes, entity tables, reduced BTE scenarios."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bte.angular import uniform_directions_2d
from repro.bte.dispersion import silicon_bands
from repro.bte.model import BTEModel
from repro.bte.problem import BTEScenario, hotspot_scenario
from repro.dsl.entities import (
    CELL,
    VAR_ARRAY,
    Coefficient,
    EntityTable,
    Index,
    Variable,
)
from repro.fvm.geometry import FVGeometry
from repro.mesh.grid import structured_grid


@pytest.fixture
def mesh2d():
    """8x6 uniform quad mesh on [0,2]x[0,1.5]."""
    return structured_grid((8, 6), [(0.0, 2.0), (0.0, 1.5)])


@pytest.fixture
def mesh2d_square():
    return structured_grid((10, 10))


@pytest.fixture
def mesh1d():
    return structured_grid((12,), [(0.0, 1.0)])


@pytest.fixture
def mesh3d():
    return structured_grid((4, 3, 2), [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)])


@pytest.fixture
def geom2d(mesh2d):
    return FVGeometry(mesh2d)


@pytest.fixture
def scalar_entities():
    """Entity table of the paper's Sec. II example: -k*u - surface(upwind(b, u))."""
    ents = EntityTable()
    u = ents.add_variable(Variable("u"))
    ents.add_coefficient(Coefficient("k", 2.0))
    ents.add_coefficient(Coefficient("b", 1.0))
    return ents, u


@pytest.fixture
def bte_entities():
    """Entity table shaped like the BTE deck (small index ranges)."""
    ents = EntityTable()
    d = ents.add_index(Index("d", 1, 4))
    b = ents.add_index(Index("b", 1, 3))
    I = ents.add_variable(Variable("I", VAR_ARRAY, CELL, (d, b)))
    ents.add_variable(Variable("Io", VAR_ARRAY, CELL, (b,)))
    ents.add_variable(Variable("beta", VAR_ARRAY, CELL, (b,)))
    ents.add_coefficient(Coefficient("Sx", np.linspace(-1, 1, 4), VAR_ARRAY, (d,)))
    ents.add_coefficient(Coefficient("Sy", np.linspace(1, -1, 4), VAR_ARRAY, (d,)))
    ents.add_coefficient(Coefficient("vg", np.array([1.0, 2.0, 3.0]), VAR_ARRAY, (b,)))
    return ents, I


@pytest.fixture
def tiny_scenario() -> BTEScenario:
    """A BTE configuration small enough for per-test solves (<1 s)."""
    return hotspot_scenario(nx=8, ny=8, ndirs=8, n_freq_bands=5, dt=1e-12, nsteps=5)


@pytest.fixture
def small_model() -> BTEModel:
    return BTEModel(bands=silicon_bands(5), directions=uniform_directions_2d(8))


@pytest.fixture
def paper_bands():
    """The full 40-frequency-band silicon discretisation (session-cached)."""
    return silicon_bands(40)
