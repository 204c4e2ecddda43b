"""The array mesh builder against the per-cell loop it replaced.

``tests/mesh/reference_build.py`` holds the retired builder; it is the
specification.  Every array of the resulting :class:`Mesh` must be equal in
dtype, shape and bytes — face numbering follows the order a traversal of the
cells first meets each face, and every per-face table downstream (geometry,
invariant tables, slot lists, goldens) is indexed by it — and a mesh the
reference rejects must be rejected with the same text.
"""

from __future__ import annotations

import io
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mesh import gmsh_io, medit_io, vtk_io
from repro.mesh.grid import (
    _default_marker,
    perturbed_grid,
    structured_grid,
    triangulated_grid,
)
from repro.mesh.mesh import Mesh, build_mesh
from repro.util.errors import MeshError
from tests.mesh import reference_build as ref

# CI pins the examples (HYPOTHESIS_PROFILE=ci): a red run names a reproducible input
settings.register_profile("ci", derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

ARRAYS = [
    "nodes", "cell_node_offsets", "cell_node_indices", "face_node_offsets",
    "face_node_indices", "face_cells", "face_normals", "face_areas", "face_centers",
    "face_region", "cell_volumes", "cell_centroids", "cell_face_offsets",
    "cell_face_indices", "cell_face_signs",
]


def assert_same_mesh(got: Mesh, expected: Mesh) -> None:
    assert (got.dim, got.name) == (expected.dim, expected.name)
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def outcome(builder, *args, **kwargs):
    """The mesh a builder returns, or the text of the MeshError it raises."""
    try:
        return builder(*args, **kwargs)
    except MeshError as exc:
        return str(exc)


def assert_same_outcome(nodes, cells, **kwargs) -> None:
    expected = outcome(ref.build_mesh, nodes, cells, **kwargs)
    inputs = [cells]
    if len({len(c) for c in cells}) == 1:
        inputs.append(np.array(cells))  # the same cells as one id array
    for given_cells in inputs:
        got = outcome(build_mesh, nodes, given_cells, **kwargs)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert isinstance(got, Mesh), got
            assert_same_mesh(got, expected)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def gradings():
    return st.sampled_from([None, lambda s: s ** 2, lambda s: np.sqrt(s),
                            lambda s: 0.5 * (s + s ** 3)])


@st.composite
def boxes(draw):
    """Three axes of ``(cells, lower bound, width, grading)``; a test in
    ``dim`` dimensions takes the first ``dim`` (see :func:`box_of`)."""
    return [(draw(st.integers(1, 5)), draw(st.floats(-3.0, 3.0)),
             draw(st.floats(1e-6, 7.0)), draw(gradings())) for _ in range(3)]


def box_of(axes, dim):
    axes = axes[:dim]
    shape = tuple(n if dim < 3 else min(n, 3) for n, _, _, _ in axes)
    bounds = [(lo, lo + width) for _, lo, width, _ in axes]
    return shape, bounds, [g for _, _, _, g in axes]


def axes_of(shape, bounds, grading):
    axes = []
    for n, (lo, hi), g in zip(shape, bounds, grading):
        s = np.linspace(0.0, 1.0, n + 1)
        axes.append(lo + (hi - lo) * (s if g is None else np.asarray(g(s), dtype=np.float64)))
    return axes


# ---------------------------------------------------------------------------
# generators: same nodes and cells as the list comprehensions, same mesh
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=25, deadline=None)
@given(axes=boxes())
# a 1e-6-wide cell at offset 1: coordinates ~1, area 1e-12, the shoelace
# centroid cancels and *both* builders reject the mesh with the same text
# (hypothesis found the draw once in a full run; see docs/architecture.md)
@example(axes=[(1, 1.0, 1e-6, None)] * 3)
def test_structured_grids_incl_graded_and_one_cell_wide(dim, axes):
    shape, bounds, grading = box_of(axes, dim)
    nodes, cells = ref.tensor_grid_lists(axes_of(shape, bounds, grading))
    marker = _default_marker(*np.array(bounds, dtype=np.float64).T, dim)
    expected = outcome(ref.build_mesh, nodes, cells, dim=dim,
                       boundary_marker=marker, name="box")
    got = outcome(structured_grid, shape, bounds, grading=grading, name="box")
    if isinstance(expected, str):
        assert got == expected
    else:
        assert_same_mesh(got, expected)
    assert_same_outcome(nodes, cells, dim=dim, boundary_marker=marker)


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
       amplitude=st.floats(0.0, 0.49))
def test_triangulated_and_perturbed_grids(nx, ny, seed, amplitude):
    bounds = [(0.0, 2.0), (-1.0, 0.5)]
    axes = [np.linspace(lo, hi, n + 1) for n, (lo, hi) in zip((nx, ny), bounds)]
    nodes, quads = ref.tensor_grid_lists(axes)
    marker = _default_marker(np.array([0.0, -1.0]), np.array([2.0, 0.5]), 2)
    tri = triangulated_grid((nx, ny), bounds)
    assert_same_mesh(tri, ref.build_mesh(nodes, ref.triangle_lists(nx, ny), name=tri.name,
                                         boundary_marker=marker))
    # amplitudes near 0.5 fold a quad now and then: then both must say so
    nodes, quads = ref.tensor_grid_lists(axes_of((nx, ny), bounds, [None, None]))
    jittered = ref.perturbed_nodes(nodes, nx, ny, np.array([2.0, 1.5]) / np.array([nx, ny]),
                                   amplitude, seed)
    expected = outcome(ref.build_mesh, jittered, quads, boundary_marker=marker,
                       name=f"perturbed{nx}x{ny}")
    bent = outcome(perturbed_grid, (nx, ny), bounds, amplitude=amplitude, seed=seed)
    if isinstance(expected, str):
        assert bent == expected
    else:
        assert_same_mesh(bent, expected)


# ---------------------------------------------------------------------------
# ragged input: mixed cells, flipped and permuted
# ---------------------------------------------------------------------------

@st.composite
def mixed_meshes(draw):
    """A jittered quad grid where some quads are split into two triangles,
    some cells are listed clockwise and the cell order is shuffled."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    axes = [np.linspace(0.0, 1.0 + nx, nx + 1), np.linspace(0.0, 0.5 * ny, ny + 1)]
    nodes, quads = ref.tensor_grid_lists(axes)
    seed = draw(st.integers(0, 2 ** 16))
    nodes = ref.perturbed_nodes(nodes, nx, ny, np.array([1.0, 0.5]), 0.3, seed)
    cells = []
    for quad in quads:
        if draw(st.booleans()):
            a, b, c, d = quad
            cells += [[a, b, c], [a, c, d]]
        else:
            cells.append(quad)
    cells = [c[::-1] if draw(st.booleans()) else c for c in cells]
    return nodes, draw(st.permutations(cells))


@settings(max_examples=60, deadline=None)
@given(mixed_meshes())
def test_mixed_flipped_and_permuted_cells(mesh):
    nodes, cells = mesh
    assert_same_outcome(nodes, cells)
    assert_same_outcome(nodes, cells, boundary_marker=lambda c, n: 2 + int(n[0] > 0))


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 12), st.integers(0, 2 ** 16))
def test_polygons_of_any_size_sum_in_numpy_order(k, seed):
    """np.sum switches to an unrolled pairwise order at 8 terms; the batched
    shoelace must switch with it."""
    rng = np.random.default_rng(seed)
    angle = np.sort(rng.random(k)) * 2 * np.pi
    ring = np.stack([np.cos(angle), np.sin(angle)], axis=1) * (1 + rng.random((k, 1)))
    nodes = np.concatenate([ring, ring + [5.0, 0.0]])
    assert_same_outcome(nodes, [list(range(k)), list(range(k, 2 * k))[::-1]])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 16))
def test_skewed_hexahedra(seed):
    """Non-axis-aligned bricks: Newell normals and the divergence-theorem
    volume go through BLAS dots, whose rounding a plain sum does not share."""
    rng = np.random.default_rng(seed)
    axes = [np.linspace(0, 1, 3), np.linspace(0, 2, 3), np.linspace(0, 1, 2)]
    nodes, cells = ref.tensor_grid_lists(axes)
    shear = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    cells = [c[4:] + c[:4] if rng.random() < 0.3 else c for c in cells]  # upside down
    assert_same_outcome(nodes @ shear, cells, validate=False)
    assert_same_outcome(nodes @ shear, cells)


# ---------------------------------------------------------------------------
# rejected input: same text
# ---------------------------------------------------------------------------

SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1]], dtype=float)


@pytest.mark.parametrize("nodes, cells, text", [
    (SQUARE, [[0, 1, 2, 3], [1, 4, 5, 2], [2, 1, 4]], "shared by more than two cells (0, 1, 2)"),
    (SQUARE, [[1, 4, 5, 2], [0, 1, 2, 3], [1, 2, 3], [2, 1, 5]], "face (1, 2) shared"),
    (SQUARE, [[0, 1, 1, 2]], "degenerate edge (zero length)"),
    (np.array([[0, 0], [1, 0], [2, 0.0]]), [[0, 1, 2]], "degenerate polygon (zero area)"),
    (np.array([[0, 0], [1, 0], [2, 0.0]]), [[0, 1]], "degenerate polygon (zero area)"),
    (np.array([0.0, 1.0, 2.0]), [[0, 1], [1, 2], [1, 0]], "face (1,) shared by more"),
    (np.array([0.0, 1.0, 2.0]), [[0, 1, 2]], "1-D cells must have exactly 2 nodes"),
    (np.zeros((8, 3)), [[0, 1, 2, 3]], "3-D cells must be 8-node hexahedra"),
    (np.zeros((8, 3)), [list(range(8))], "degenerate 3-D face (zero area)"),
    (np.array([0.0, 1.0, 1.0]), [[0, 1], [1, 2]], "non-positive volume in cell 1"),
])
def test_rejected_meshes_raise_the_reference_text(nodes, cells, text):
    with pytest.raises(MeshError) as expected:
        ref.build_mesh(nodes, cells)
    assert text in str(expected.value)
    assert_same_outcome(nodes, cells)


def test_a_marker_returning_zero_names_the_same_face():
    nodes, cells = ref.tensor_grid_lists([np.linspace(0, 1, 4), np.linspace(0, 1, 3)])
    marker = lambda c, n: 0 if (n[1] > 0.5 and c[0] > 0.5) else 3
    with pytest.raises(MeshError, match="non-positive region for face 1[0-9]"):
        build_mesh(nodes, cells, boundary_marker=marker)
    assert_same_outcome(nodes, cells, boundary_marker=marker)


# ---------------------------------------------------------------------------
# the three readers (explicit boundary_face_regions)
# ---------------------------------------------------------------------------

def written(writer, mesh) -> str:
    buf = io.StringIO()
    writer(mesh, buf)
    return buf.getvalue()


@pytest.mark.parametrize("module, reader, text", [
    (gmsh_io, gmsh_io.read_gmsh, "gmsh-minimal"),
    (gmsh_io, gmsh_io.read_gmsh, "gmsh-grid"),
    (gmsh_io, gmsh_io.read_gmsh, "gmsh-bricks"),
    (medit_io, medit_io.read_medit, "medit-minimal"),
    (medit_io, medit_io.read_medit, "medit-triangles"),
    (vtk_io, vtk_io.read_vtk, "vtk-grid"),
    (vtk_io, vtk_io.read_vtk, "vtk-line"),
])
def test_readers_build_the_reference_mesh(module, reader, text, monkeypatch):
    from tests.mesh.test_gmsh_io import MINIMAL_MSH
    from tests.mesh.test_medit_io import MINIMAL

    marker = lambda c, n: 7 if n[0] > 0.5 else 9
    grid = structured_grid((4, 3), [(0, 2.0), (0, 1.0)], boundary_marker=marker)
    source = {
        "gmsh-minimal": lambda: MINIMAL_MSH,
        "gmsh-grid": lambda: written(gmsh_io.write_gmsh, grid),
        "gmsh-bricks": lambda: written(gmsh_io.write_gmsh, structured_grid((2, 2, 2))),
        "medit-minimal": lambda: MINIMAL,
        "medit-triangles": lambda: written(medit_io.write_medit, triangulated_grid((3, 2))),
        "vtk-grid": lambda: written(vtk_io.write_vtk, grid),
        "vtk-line": lambda: written(vtk_io.write_vtk, structured_grid((5,))),
    }[text]()
    got = reader(io.StringIO(source))
    monkeypatch.setattr(module, "build_mesh", ref.build_mesh)
    assert_same_mesh(got, reader(io.StringIO(source)))
    assert len(got.boundary_regions()) >= 1
