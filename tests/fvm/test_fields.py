"""Index spaces and cell fields (incl. hypothesis round-trips)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fvm.fields import CellField, IndexSpace
from repro.util.errors import DSLError


class TestIndexSpace:
    def test_ncomp(self):
        sp = IndexSpace(("d", "b"), (4, 3))
        assert sp.ncomp == 12

    def test_scalar_space(self):
        sp = IndexSpace.scalar()
        assert sp.ncomp == 1
        assert sp.flatten(()) == 0

    def test_flatten_row_major(self):
        sp = IndexSpace(("d", "b"), (4, 3))
        assert sp.flatten((0, 0)) == 0
        assert sp.flatten((0, 2)) == 2
        assert sp.flatten((1, 0)) == 3
        assert sp.flatten((3, 2)) == 11

    def test_unflatten(self):
        sp = IndexSpace(("d", "b"), (4, 3))
        assert sp.unflatten(7) == (2, 1)

    def test_axis_values(self):
        sp = IndexSpace(("d", "b"), (2, 3))
        assert sp.axis_values("b").tolist() == [0, 1, 2, 0, 1, 2]
        assert sp.axis_values("d").tolist() == [0, 0, 0, 1, 1, 1]

    def test_position_and_size(self):
        sp = IndexSpace(("d", "b"), (4, 3))
        assert sp.position("b") == 1
        assert sp.size("d") == 4
        with pytest.raises(DSLError):
            sp.position("q")

    @pytest.mark.parametrize(
        "names,sizes",
        [(("a", "a"), (2, 2)), (("a",), (0,)), (("a", "b"), (2,))],
    )
    def test_invalid_construction(self, names, sizes):
        with pytest.raises(DSLError):
            IndexSpace(names, sizes)

    def test_out_of_range(self):
        sp = IndexSpace(("d",), (3,))
        with pytest.raises(DSLError):
            sp.flatten((3,))
        with pytest.raises(DSLError):
            sp.unflatten(3)
        with pytest.raises(DSLError):
            sp.flatten((0, 0))


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_flatten_unflatten_roundtrip(sizes, data):
    names = tuple(f"i{k}" for k in range(len(sizes)))
    sp = IndexSpace(names, tuple(sizes))
    flat = data.draw(st.integers(min_value=0, max_value=sp.ncomp - 1))
    assert sp.flatten(sp.unflatten(flat)) == flat


@given(sizes=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_axis_values_consistent_with_unflatten(sizes):
    names = tuple(f"i{k}" for k in range(len(sizes)))
    sp = IndexSpace(names, tuple(sizes))
    for name in names:
        pos = sp.position(name)
        vals = sp.axis_values(name)
        for flat in range(sp.ncomp):
            assert vals[flat] == sp.unflatten(flat)[pos]


class TestCellField:
    def test_shape_and_layout(self):
        f = CellField("I", IndexSpace(("d", "b"), (2, 3)), 10)
        assert f.data.shape == (6, 10)
        assert f.data.flags["C_CONTIGUOUS"]

    def test_scalar_field_has_leading_axis(self):
        f = CellField("u", IndexSpace.scalar(), 5)
        assert f.data.shape == (1, 5)
        assert f.component().shape == (5,)

    def test_component_view_is_view(self):
        f = CellField("I", IndexSpace(("d",), (3,)), 4)
        f.component(1)[:] = 9.0
        assert np.allclose(f.data[1], 9.0)

    def test_data_shape_check(self):
        with pytest.raises(DSLError):
            CellField("I", IndexSpace(("d",), (3,)), 4, data=np.zeros((2, 4)))

    def test_copy_independent(self):
        f = CellField("u", IndexSpace.scalar(), 3)
        g = f.copy()
        g.fill(1.0)
        assert np.allclose(f.data, 0.0)

    def test_nbytes(self):
        f = CellField("u", IndexSpace(("d",), (2,)), 8)
        assert f.nbytes() == 2 * 8 * 8
