"""Property-based tests on the FV kernels and the divergence operator."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fvm import kernels
from repro.fvm.geometry import FVGeometry
from repro.mesh.grid import structured_grid

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(
    vn=st.lists(finite, min_size=4, max_size=12),
    u1=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                min_size=4, max_size=12),
    u2=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                min_size=4, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_upwind_flux_selects_upstream_value(vn, u1, u2):
    n = min(len(vn), len(u1), len(u2))
    vn, u1, u2 = (np.array(v[:n]) for v in (vn, u1, u2))
    flux = kernels.upwind_flux(vn, u1, u2)
    for i in range(n):
        expected = vn[i] * (u1[i] if vn[i] > 0 else u2[i])
        assert flux[i] == expected


@given(
    vn=st.lists(finite, min_size=4, max_size=12),
    u=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
               min_size=4, max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_upwind_consistency_with_uniform_state(vn, u):
    """With u1 == u2 == u the upwind flux is ``vn * u``, the central
    flux (flux consistency of the reconstruction)."""
    n = min(len(vn), len(u))
    vn, u = np.array(vn[:n]), np.array(u[:n])
    # atol covers denormal rounding (0.5 * denormal underflows to zero)
    np.testing.assert_allclose(
        kernels.upwind_flux(vn, u, u),
        vn * u,
        rtol=1e-14,
        atol=1e-300,
    )


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
