"""Misc helpers and the error hierarchy."""

import numpy as np
import pytest

from repro.util.errors import (
    CodegenError,
    ConfigError,
    DSLError,
    MeshError,
    ReproError,
    SolverError,
)
from repro.util.logging import get_logger, set_verbosity
from repro.util.misc import check_finite, human_bytes, ordered_unique, pairwise


class TestOrderedUnique:
    def test_preserves_first_seen_order(self):
        assert ordered_unique([3, 1, 3, 2, 1]) == [3, 1, 2]

    def test_empty(self):
        assert ordered_unique([]) == []

    def test_strings(self):
        assert ordered_unique("abcab") == ["a", "b", "c"]


class TestPairwise:
    def test_pairs(self):
        assert list(pairwise([1, 2, 3])) == [(1, 2), (2, 3)]

    def test_short_sequences(self):
        assert list(pairwise([1])) == []
        assert list(pairwise([])) == []


class TestHumanFormatting:
    @pytest.mark.parametrize(
        "n,expect",
        [(12, "12 B"), (3.2e3, "3.20 kB"), (3.2e9, "3.20 GB"), (1.5e13, "15.00 TB")],
    )
    def test_bytes(self, n, expect):
        assert human_bytes(n) == expect


class TestCheckFinite:
    def test_passes_finite(self):
        arr = np.ones((2, 3))
        assert check_finite("x", arr) is arr

    def test_reports_nan_location(self):
        arr = np.zeros((2, 3))
        arr[1, 2] = np.nan
        with pytest.raises(SolverError, match=r"'u' at index \(1, 2\)"):
            check_finite("u", arr)

    def test_reports_inf(self):
        with pytest.raises(SolverError):
            check_finite("x", np.array([np.inf]))


class TestErrors:
    @pytest.mark.parametrize(
        "cls", [DSLError, CodegenError, MeshError, SolverError, ConfigError]
    )
    def test_all_subclass_root(self, cls):
        assert issubclass(cls, ReproError)
        with pytest.raises(ReproError):
            raise cls("boom")


class TestLogging:
    def test_namespaced_logger(self):
        assert get_logger("codegen").name == "repro.codegen"
        assert get_logger("repro.mesh").name == "repro.mesh"

    def test_set_verbosity_accepts_names(self):
        set_verbosity("DEBUG")
        import logging

        assert logging.getLogger("repro").level == logging.DEBUG
        set_verbosity(logging.WARNING)
