"""Property-based tests on the FV kernels and the divergence operator."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fvm.geometry import FVGeometry
from repro.mesh.grid import structured_grid

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(
    shape=st.tuples(st.integers(min_value=2, max_value=7),
                    st.integers(min_value=2, max_value=7)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_divergence_telescopes_to_boundary_flux(shape, seed):
    """Volume-weighted divergence sums telescope: interior contributions
    cancel in pairs, leaving exactly the boundary flux (the discrete Gauss
    theorem the conservative update relies on)."""
    mesh = structured_grid(shape)
    geom = FVGeometry(mesh)
    rng = np.random.default_rng(seed)
    flux = rng.standard_normal(geom.nfaces)
    div = geom.surface_divergence(flux)
    total = float(div @ geom.volume)
    boundary = float((geom.area[geom.bfaces] * flux[geom.bfaces]).sum())
    assert np.isclose(total, boundary, rtol=1e-10, atol=1e-10)


@given(
    shape=st.tuples(st.integers(min_value=2, max_value=6),
                    st.integers(min_value=2, max_value=6)),
    a=finite,
    b=finite,
)
@settings(max_examples=25, deadline=None)
def test_divergence_is_linear(shape, a, b):
    mesh = structured_grid(shape)
    geom = FVGeometry(mesh)
    rng = np.random.default_rng(0)
    f1 = rng.standard_normal(geom.nfaces)
    f2 = rng.standard_normal(geom.nfaces)
    lhs = geom.surface_divergence(a * f1 + b * f2)
    rhs = a * geom.surface_divergence(f1) + b * geom.surface_divergence(f2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_face_dist_positive_everywhere(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(2, 8)), int(rng.integers(2, 8)))
    geom = FVGeometry(structured_grid(shape))
    assert np.all(geom.face_dist > 0)
    # interior: exactly the centroid spacing of a uniform grid
    h = 1.0 / shape[0]
    inter_x = geom.interior_mask & (np.abs(geom.normal[:, 0]) > 0.5)
    assert np.allclose(geom.face_dist[inter_x], h, rtol=1e-12)
