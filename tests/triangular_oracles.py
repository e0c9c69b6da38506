"""Sequential loop oracles for the pattern-based triangular solves.

``oracle_lower_unit_columns`` and ``oracle_lower_unit_rows`` are the
per-column / per-row Python loops that ``repro.linalg.triangular`` ran
before the solves were lowered to level plans, moved here verbatim.
``oracle_upper_unit_transpose`` is the loop the ``Lᵀ`` solve is now
defined by: a pure-Python ascending left fold per column (the previous
body reduced each column with ``np.dot``, a BLAS kernel whose rounding
is machine-dependent and therefore not a fixed oracle — it stays here
as ``blas_upper_unit_transpose`` for tolerance comparisons only).
"""

from __future__ import annotations

import numpy as np

from repro.linalg import LDLFactor, SymbolicFactor


def oracle_lower_unit_columns(
    sym: SymbolicFactor, l_data: np.ndarray, b: np.ndarray
) -> np.ndarray:
    x = np.array(b, dtype=np.float64, copy=True)
    for j in range(sym.n):
        xj = x[j]
        if xj != 0.0:
            lo, hi = sym.l_indptr[j], sym.l_indptr[j + 1]
            x[sym.l_indices[lo:hi]] -= l_data[lo:hi] * xj
    return x


def oracle_lower_unit_rows(
    sym: SymbolicFactor, l_data: np.ndarray, b: np.ndarray
) -> np.ndarray:
    n = sym.n
    x = np.array(b, dtype=np.float64, copy=True)
    cursor = sym.l_indptr[:-1].copy()  # next unread entry per column
    for i in range(n):
        acc = 0.0
        for j in sym.row_pattern(i).tolist():
            # The cursor of column j points at the entry for row i,
            # because rows are consumed in ascending order.
            p = cursor[j]
            acc += l_data[p] * x[j]
            cursor[j] = p + 1
        x[i] -= acc
    return x


def oracle_upper_unit_transpose(
    sym: SymbolicFactor, l_data: np.ndarray, b: np.ndarray
) -> np.ndarray:
    x = np.array(b, dtype=np.float64, copy=True)
    for j in range(sym.n - 1, -1, -1):
        acc = 0.0
        for p in range(int(sym.l_indptr[j]), int(sym.l_indptr[j + 1])):
            acc += l_data[p] * x[sym.l_indices[p]]
        x[j] -= acc
    return x


def blas_upper_unit_transpose(
    sym: SymbolicFactor, l_data: np.ndarray, b: np.ndarray
) -> np.ndarray:
    x = np.array(b, dtype=np.float64, copy=True)
    for j in range(sym.n - 1, -1, -1):
        lo, hi = sym.l_indptr[j], sym.l_indptr[j + 1]
        idx = sym.l_indices[lo:hi]
        x[j] -= float(np.dot(l_data[lo:hi], x[idx]))
    return x


def oracle_factor_solve(
    factor: LDLFactor, b: np.ndarray, *, lower_method: str = "column"
) -> np.ndarray:
    """``LDLFactor.solve`` on the loop oracles (monkeypatch target)."""
    b = np.asarray(b, dtype=np.float64)
    lower = {
        "column": oracle_lower_unit_columns,
        "row": oracle_lower_unit_rows,
    }[lower_method]
    y = lower(factor.symbolic, factor.l_data, b) / factor.d
    return oracle_upper_unit_transpose(factor.symbolic, factor.l_data, y)
