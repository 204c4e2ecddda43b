"""Malformed mesh input must raise MeshError with its format code — never a
bare IndexError/ValueError escaping the parser internals."""

import io

import numpy as np
import pytest

from repro.mesh.gmsh_io import read_gmsh, write_gmsh
from repro.mesh.grid import structured_grid
from repro.mesh.medit_io import read_medit, write_medit
from repro.mesh.vtk_io import read_vtk, write_vtk
from repro.util.errors import MeshError


def reread(reader, text, name="bad"):
    return reader(io.StringIO(text), name=name)


class TestGmsh:
    def test_truncated_nodes_section(self):
        text = "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n10\n1 0 0 0\n"
        with pytest.raises(MeshError) as ei:
            reread(read_gmsh, text)
        assert ei.value.code == "RPR501"

    def test_garbage_tokens(self):
        text = ("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
                "$Nodes\n1\n1 zero zero zero\n$EndNodes\n")
        with pytest.raises(MeshError) as ei:
            reread(read_gmsh, text)
        assert ei.value.code == "RPR501"

    def test_missing_section(self):
        with pytest.raises(MeshError) as ei:
            reread(read_gmsh, "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        assert ei.value.code == "RPR501"

    def test_dangling_node_reference(self):
        text = ("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
                "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"
                "$Elements\n1\n1 2 1 0 1 2 99\n$EndElements\n")
        with pytest.raises(MeshError) as ei:
            reread(read_gmsh, text)
        assert ei.value.code == "RPR501"

    def test_empty_file(self):
        with pytest.raises(MeshError) as ei:
            reread(read_gmsh, "")
        assert ei.value.code == "RPR501"

    def test_round_trip_still_works(self):
        mesh = structured_grid((4, 4))
        buf = io.StringIO()
        write_gmsh(mesh, buf)
        back = reread(read_gmsh, buf.getvalue(), name="rt")
        assert back.ncells == mesh.ncells
        assert back.nnodes == mesh.nnodes


class TestMedit:
    def test_truncated_vertices(self):
        text = "MeshVersionFormatted 2\nDimension 2\nVertices\n10\n0 0 0\n"
        with pytest.raises(MeshError) as ei:
            reread(read_medit, text)
        assert ei.value.code == "RPR502"

    def test_garbage_count(self):
        text = "MeshVersionFormatted 2\nDimension 2\nVertices\nmany\n"
        with pytest.raises(MeshError) as ei:
            reread(read_medit, text)
        assert ei.value.code == "RPR502"

    def test_unknown_section(self):
        text = "MeshVersionFormatted 2\nDimension 2\nTetrahedra\n0\nEnd\n"
        with pytest.raises(MeshError) as ei:
            reread(read_medit, text)
        assert ei.value.code == "RPR502"

    def test_empty_file(self):
        with pytest.raises(MeshError) as ei:
            reread(read_medit, "")
        assert ei.value.code == "RPR502"

    def test_round_trip_still_works(self):
        mesh = structured_grid((3, 5))
        buf = io.StringIO()
        write_medit(mesh, buf)
        back = reread(read_medit, buf.getvalue(), name="rt")
        assert back.ncells == mesh.ncells


class TestVtk:
    def test_not_a_vtk_file(self):
        with pytest.raises(MeshError) as ei:
            reread(read_vtk, "hello\nworld\n")
        assert ei.value.code == "RPR503"

    def test_truncated_points(self):
        text = ("# vtk DataFile Version 3.0\nt\nASCII\n"
                "DATASET UNSTRUCTURED_GRID\nPOINTS 9 double\n0 0 0\n")
        with pytest.raises(MeshError) as ei:
            reread(read_vtk, text)
        assert ei.value.code == "RPR503"

    def test_garbage_coordinates(self):
        text = ("# vtk DataFile Version 3.0\nt\nASCII\n"
                "DATASET UNSTRUCTURED_GRID\nPOINTS 1 double\nx y z\n")
        with pytest.raises(MeshError) as ei:
            reread(read_vtk, text)
        assert ei.value.code == "RPR503"

    def test_cell_node_out_of_range(self):
        text = ("# vtk DataFile Version 3.0\nt\nASCII\n"
                "DATASET UNSTRUCTURED_GRID\n"
                "POINTS 3 double\n0 0 0\n1 0 0\n0 1 0\n"
                "CELLS 1 4\n3 0 1 99\n"
                "CELL_TYPES 1\n5\n")
        with pytest.raises(MeshError) as ei:
            reread(read_vtk, text)
        assert ei.value.code == "RPR503"

    def test_unknown_cell_type(self):
        text = ("# vtk DataFile Version 3.0\nt\nASCII\n"
                "DATASET UNSTRUCTURED_GRID\n"
                "POINTS 3 double\n0 0 0\n1 0 0\n0 1 0\n"
                "CELLS 1 4\n3 0 1 2\n"
                "CELL_TYPES 1\n42\n")
        with pytest.raises(MeshError) as ei:
            reread(read_vtk, text)
        assert ei.value.code == "RPR503"

    def test_binary_dialect_rejected(self):
        text = ("# vtk DataFile Version 3.0\nt\nBINARY\n"
                "DATASET UNSTRUCTURED_GRID\n")
        with pytest.raises(MeshError) as ei:
            reread(read_vtk, text)
        assert ei.value.code == "RPR503"

    def test_round_trip_still_works(self):
        mesh = structured_grid((4, 4))
        buf = io.StringIO()
        write_vtk(mesh, buf, cell_data={"T": np.arange(mesh.ncells, dtype=float)})
        back = reread(read_vtk, buf.getvalue(), name="rt")
        assert back.ncells == mesh.ncells
        assert back.dim == 2


class TestNonFiniteCoordinates:
    """``float("nan")`` parses, so a ``nan`` token used to come back as a
    mesh with NaN volumes that passed ``validate()``; the builder now rejects
    it (RPR504) whichever reader it came through."""

    @pytest.mark.parametrize("reader, writer", [
        (read_gmsh, write_gmsh), (read_medit, write_medit), (read_vtk, write_vtk)])
    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_every_reader_rejects_a_nan_token(self, reader, writer, token):
        buf = io.StringIO()
        writer(structured_grid((2, 2), [(0.0, 1.0), (0.0, 1.0)]), buf)
        text = buf.getvalue()
        assert " 0.5 " in text.replace("\n", " ")
        bad = text.replace("0.5", token, 1)
        with pytest.raises(MeshError, match="non-finite coordinate") as ei:
            reread(reader, bad)
        assert ei.value.code == "RPR504"
