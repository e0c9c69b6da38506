"""Sparse triangular solves.

Section II-C of the paper describes two substitution strategies for the
unit lower-triangular systems that dominate the direct variant:

* **row-based** (eq. (7)): ``x_i = b_i − Σ_j l_ij · x_j`` — a sequence of
  sparse dot products, i.e. *multiply-accumulate* (MAC) work;
* **column-based** (eqs. (8)–(12)): once ``x_j`` is known, eliminate it
  from every later equation — *column elimination* work.

Both are implemented here against the symbolic LDLᵀ pattern (the layout
the factorization produces) as well as against a generic CSC matrix.
The backward solve with ``Lᵀ`` consumes columns of ``L`` directly, since
a column of ``L`` is a row of ``Lᵀ``.

The pattern-based solves replay the symbolic factor's level schedule
(:class:`~repro.linalg.symbolic.LevelPlan`): one numpy gather-multiply
and one ordered commit per dependency level instead of one Python
iteration per column.  The two strategies differ only in the commit.
"""

from __future__ import annotations

import numpy as np

from .csc import CSCMatrix
from .symbolic import LevelPlan, SymbolicFactor

__all__ = [
    "solve_lower_unit_columns",
    "solve_lower_unit_rows",
    "solve_upper_unit_transpose",
    "solve_lower_csc",
    "solve_upper_csc",
]


def _execute_level(
    x: np.ndarray,
    acc: np.ndarray | None,
    sources: np.ndarray,
    targets: np.ndarray,
    owners: np.ndarray,
    coeffs: np.ndarray,
) -> None:
    """Run one level: gather-multiply every entry, then one ordered commit.

    ``ufunc.at`` applies duplicate indices one after another in array
    order, so each target receives its products as a sequential left
    fold, the order trace replay's duplicate-index commits rely on.
    With ``acc`` absent the fold runs in place on ``x`` (column
    elimination); otherwise it runs from zero in ``acc`` and the
    finished sums are subtracted once per target (MAC).
    """
    products = coeffs * x[sources]
    if acc is None:
        np.subtract.at(x, targets, products)
    else:
        np.add.at(acc, targets, products)
        np.subtract.at(x, owners, acc[owners])


def _run_plan(
    plan: LevelPlan, l_data: np.ndarray, b: np.ndarray, *, fold_from_zero: bool
) -> np.ndarray:
    """Replay a level schedule; all scratch is private to the call."""
    x = np.array(b, dtype=np.float64, copy=True)
    coeffs = l_data[plan.entries]
    acc = np.zeros(x.size, dtype=np.float64) if fold_from_zero else None
    bounds = plan.bounds
    for k in range(plan.depth):
        _execute_level(
            x,
            acc,
            plan.sources[k],
            plan.targets[k],
            plan.owners[k],
            coeffs[bounds[k] : bounds[k + 1]],
        )
    return x


def solve_lower_unit_columns(
    sym: SymbolicFactor, l_data: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Column-based forward substitution ``L x = b`` (unit diagonal).

    After ``x[j]`` is final, its contribution is eliminated from all
    later entries using column ``j`` of ``L`` — the column-elimination
    primitive of the architecture.  Each ``x[i]`` therefore receives
    ``x[i] -= l_ij · x_j`` in ascending ``j``, starting from ``b[i]``;
    the forward level plan commits exactly that fold in place.
    """
    return _run_plan(sym.solve_plan.forward, l_data, b, fold_from_zero=False)


def solve_lower_unit_rows(
    sym: SymbolicFactor, l_data: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Row-based forward substitution ``L x = b`` (unit diagonal).

    Each step is a sparse dot product of row ``i`` of ``L`` with the
    already-computed prefix of ``x`` — the MAC primitive: the products
    ``l_ij · x_j`` are summed from zero in ascending ``j`` and the sum
    is subtracted from ``b[i]`` (eq. (7)).
    """
    return _run_plan(sym.solve_plan.forward, l_data, b, fold_from_zero=True)


def solve_upper_unit_transpose(
    sym: SymbolicFactor, l_data: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Backward substitution ``Lᵀ x = b`` (unit diagonal).

    Processes rows of ``Lᵀ`` from the bottom up; row ``j`` of ``Lᵀ`` is
    column ``j`` of ``L``, so the CSC layout is consumed directly as a
    sequence of sparse dot products (MAC work), each summed from zero
    in the column's storage order (ascending row).
    """
    return _run_plan(sym.solve_plan.backward, l_data, b, fold_from_zero=True)


def solve_lower_csc(
    l: CSCMatrix, b: np.ndarray, *, unit_diagonal: bool = False
) -> np.ndarray:
    """Forward substitution with a general lower-triangular CSC matrix.

    Column-based; the diagonal entry of each column must be its first
    stored entry unless ``unit_diagonal`` is set.
    """
    n = l.ncols
    if l.nrows != n:
        raise ValueError("matrix must be square")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError("right-hand side length mismatch")
    x = b.copy()
    for j in range(n):
        rows, vals = l.col(j)
        k = 0
        if not unit_diagonal:
            if rows.size == 0 or rows[0] != j:
                raise ValueError(f"missing diagonal in column {j}")
            x[j] /= vals[0]
            k = 1
        elif rows.size and rows[0] == j:
            k = 1  # tolerate an explicitly stored unit diagonal
        xj = x[j]
        if xj != 0.0 and k < rows.size:
            x[rows[k:]] -= vals[k:] * xj
    return x


def solve_upper_csc(
    u: CSCMatrix, b: np.ndarray, *, unit_diagonal: bool = False
) -> np.ndarray:
    """Backward substitution with a general upper-triangular CSC matrix.

    Column-based, processing columns from last to first; the diagonal of
    each column must be its last stored entry unless ``unit_diagonal``.
    """
    n = u.ncols
    if u.nrows != n:
        raise ValueError("matrix must be square")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError("right-hand side length mismatch")
    x = b.copy()
    for j in range(n - 1, -1, -1):
        rows, vals = u.col(j)
        k = rows.size
        if not unit_diagonal:
            if rows.size == 0 or rows[-1] != j:
                raise ValueError(f"missing diagonal in column {j}")
            x[j] /= vals[-1]
            k = rows.size - 1
        elif rows.size and rows[-1] == j:
            k = rows.size - 1
        xj = x[j]
        if xj != 0.0 and k > 0:
            x[rows[:k]] -= vals[:k] * xj
    return x
