"""Numeric up-looking LDLᵀ factorization (QDLDL-style).

Implements the recursion of eq. (5) in the paper: ``L`` is grown row by
row; computing row ``k`` amounts to solving the triangular system
``L[0:k, 0:k] · l = K[0:k, k]`` restricted to the symbolic row pattern,
followed by the diagonal update ``d_k = k_kk − Σ l²·d``.

The KKT matrix of OSQP is symmetric *quasi-definite*, so ``D`` contains
both positive and negative entries; the factorization only fails when a
``d_k`` is exactly (numerically) zero, which the σ/ρ regularization
prevents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csc import CSCMatrix
from .symbolic import SymbolicFactor, symbolic_factor
from .triangular import (
    solve_lower_unit_columns,
    solve_lower_unit_rows,
    solve_upper_unit_transpose,
)

__all__ = ["LDLFactor", "ldl_factor", "ldl_refactor", "FactorizationError"]


class FactorizationError(RuntimeError):
    """Raised when a zero pivot makes the factorization break down."""


@dataclass
class LDLFactor:
    """The result ``K = L·D·Lᵀ`` of a sparse LDLᵀ factorization.

    ``L`` is unit lower triangular; only its strictly-lower entries are
    stored (CSC pattern from the symbolic factor, values in ``l_data``).
    ``d`` is the diagonal of ``D``.
    """

    symbolic: SymbolicFactor
    l_data: np.ndarray
    d: np.ndarray

    @property
    def n(self) -> int:
        return self.symbolic.n

    def l_matrix(self, *, include_diagonal: bool = False) -> CSCMatrix:
        """Materialize ``L`` as a CSC matrix (mostly for tests/inspection)."""
        n = self.n
        sym = self.symbolic
        if not include_diagonal:
            return CSCMatrix(
                (n, n), sym.l_indptr, sym.l_indices, self.l_data, check=False
            )
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for j in range(n):
            indices.append(j)
            data.append(1.0)
            lo, hi = sym.l_indptr[j], sym.l_indptr[j + 1]
            indices.extend(sym.l_indices[lo:hi].tolist())
            data.extend(self.l_data[lo:hi].tolist())
            indptr.append(len(indices))
        return CSCMatrix((n, n), indptr, indices, data, check=False)

    def solve(self, b: np.ndarray, *, lower_method: str = "column") -> np.ndarray:
        """Solve ``K x = b`` by forward/diagonal/backward substitution.

        ``lower_method`` selects the row-based (MAC-dominated) or
        column-based (column-elimination-dominated) forward solve — the
        two strategies of Section II-C.  All three substitutions replay
        the symbolic factor's level plan; the two forward strategies
        are its two commit kinds.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise ValueError(f"b has shape {b.shape}, expected ({self.n},)")
        sym = self.symbolic
        if lower_method == "column":
            y = solve_lower_unit_columns(sym, self.l_data, b)
        elif lower_method == "row":
            y = solve_lower_unit_rows(sym, self.l_data, b)
        else:
            raise ValueError(f"unknown lower_method {lower_method!r}")
        y = y / self.d
        return solve_upper_unit_transpose(sym, self.l_data, y)


def ldl_factor(
    k_upper: CSCMatrix, symbolic: SymbolicFactor | None = None
) -> LDLFactor:
    """Factor a symmetric matrix given by its upper triangle.

    Parameters
    ----------
    k_upper:
        Upper triangle (with diagonal) of the matrix, CSC.
    symbolic:
        Reuse a previously computed symbolic factorization (the pattern
        must match); computed fresh when omitted.
    """
    if symbolic is None:
        symbolic = symbolic_factor(k_upper)
    factor = LDLFactor(
        symbolic=symbolic,
        l_data=np.zeros(symbolic.l_nnz, dtype=np.float64),
        d=np.zeros(symbolic.n, dtype=np.float64),
    )
    ldl_refactor(k_upper, factor)
    return factor


def ldl_refactor(k_upper: CSCMatrix, factor: LDLFactor) -> None:
    """Recompute numeric values in place, reusing the symbolic pattern.

    This is the operation triggered by a ρ update in the ADMM loop: the
    pattern of ``K`` is unchanged, only values along the lower-right
    diagonal block differ.
    """
    sym = factor.symbolic
    n = sym.n
    if k_upper.shape != (n, n):
        raise ValueError("matrix shape does not match symbolic factor")
    l_data = factor.l_data
    d = factor.d
    # Next write slot per column of L; entries land in ascending-row order
    # because rows k are processed in ascending order.
    fill = sym.l_indptr[:-1].copy()
    y = np.zeros(n, dtype=np.float64)  # sparse accumulator for row k

    for k in range(n):
        # Scatter column k of the upper triangle of K into y.
        rows, vals = k_upper.col(k)
        diag = 0.0
        touched: list[int] = []
        for i, v in zip(rows.tolist(), vals.tolist()):
            if i == k:
                diag = v
            elif i < k:
                y[i] = v
                touched.append(i)
            else:
                raise ValueError("k_upper contains entries below the diagonal")
        # Solve the triangular system along the symbolic row pattern.
        pattern = sym.row_pattern(k)
        for j in pattern.tolist():
            yj = y[j]
            y[j] = 0.0
            # Apply previously computed entries of column j of L to y.
            lo = sym.l_indptr[j]
            hi = fill[j]
            idx = sym.l_indices[lo:hi]
            y[idx] -= l_data[lo:hi] * yj
            # y[k] update belongs to the diagonal; idx never contains k
            # until this very row, so handle it via the ljk term below.
            ljk = yj / d[j]
            diag -= yj * ljk
            l_data[fill[j]] = ljk
            fill[j] += 1
        if diag == 0.0 or not np.isfinite(diag):
            raise FactorizationError(f"zero or non-finite pivot at column {k}")
        d[k] = diag
        # Reset any residual scatter values (entries not in the pattern
        # were already zeroed through the pattern loop; stray values can
        # remain only if the pattern missed an input entry, which would
        # be a symbolic bug — clear defensively all touched slots).
        for i in touched:
            y[i] = 0.0
