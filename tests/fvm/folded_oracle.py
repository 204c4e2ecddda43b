"""The folded operator's NumPy oracle.

:func:`apply_folded` is what a generated C loop over the cells computes for
one :class:`repro.fvm.kernels.FoldedOperator`, written as NumPy over whole
rows: the tests hold the C tile to it, and it to the CSR product it folds.
"""

from __future__ import annotations

import numpy as np

from repro.fvm.kernels import FoldedOperator


def apply_folded(op: FoldedOperator, us: np.ndarray, runs: list[tuple[int, int, int]],
                 out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``out[i] = own[r] * us[i] + the entries of row r`` for every ``(lo,
    hi, r)`` of ``runs`` and ``lo <= i < hi``: the operator on rows of the
    unknown, per run of equal table rows (their
    :func:`repro.fvm.kernels.table_runs`) and in entry order, each row on
    its own.  An offset entry multiplies a shifted view of the rows; a
    gather entry takes its columns first.  ``work`` is scratch of ``out``'s
    shape."""
    own, begin, entries, weights, indices = op
    for lo, hi, r in runs:
        rows, acc, work_rows = us[lo:hi], out[lo:hi], work[lo:hi]
        np.multiply(rows, own[r], out=acc)
        for a, b, shift, gather, w in entries[begin[r]:begin[r + 1]].tolist():
            term, into, wt = work_rows[:, a:b], acc[:, a:b], weights[w:w + b - a]
            if gather < 0:
                np.multiply(rows[:, a + shift:b + shift], wt, out=term)
            else:
                rows.take(indices[gather:gather + b - a], axis=1, out=term, mode="clip")
                np.multiply(term, wt, out=term)
            np.add(into, term, out=into)
    return out
