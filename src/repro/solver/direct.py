"""OSQP-direct KKT backend: LDLᵀ factorization (Section II-C).

Solves the KKT linear system of eq. (2) by factoring the quasi-definite
matrix ``K`` once per ρ value: AMD fill-reducing ordering, symbolic
factorization (both done once per *sparsity pattern*), then numeric
factorization and two triangular solves per ADMM iteration.
"""

from __future__ import annotations

import numpy as np

from ..linalg import (
    CSCMatrix,
    LDLFactor,
    Permutation,
    amd_order,
    ldl_factor,
    ldl_refactor,
    symbolic_factor,
)
from .kkt import KKTMatrix, assemble_kkt
from .problem import QPProblem
from .results import OpTrace, Primitive

__all__ = ["DirectKKTSolver", "factorization_flops", "triangular_solve_flops"]


def factorization_flops(l_col_counts: np.ndarray) -> float:
    """FLOPs of one numeric LDLᵀ refactorization.

    For a column with ``c`` strictly-lower entries the up-looking sweep
    performs ``c(c−1)`` multiply/subtract work across row updates plus
    ``3c`` for the scaling and diagonal updates.
    """
    c = l_col_counts.astype(np.float64)
    return float(np.sum(c * (c - 1.0) + 3.0 * c))


def triangular_solve_flops(l_nnz: int, n: int) -> float:
    """FLOPs of one L (or Lᵀ) solve: a multiply+add per stored entry."""
    return 2.0 * l_nnz + n


class DirectKKTSolver:
    """Factorization-based solver for the KKT system.

    Parameters
    ----------
    problem:
        The (scaled) QP; only its sparsity pattern and values are read.
    sigma, rho_vec:
        ADMM regularization parameters entering ``K``.
    ordering:
        ``"amd"`` (default) or ``"natural"``.
    lower_method:
        Forward-substitution strategy, ``"column"`` or ``"row"``
        (Section II-C's two variants).
    """

    def __init__(
        self,
        problem: QPProblem,
        sigma: float,
        rho_vec: np.ndarray,
        *,
        ordering: str = "amd",
        lower_method: str = "column",
    ) -> None:
        if ordering not in ("amd", "natural"):
            raise ValueError(f"unknown ordering {ordering!r}")
        if lower_method not in ("column", "row"):
            raise ValueError(f"unknown lower_method {lower_method!r}")
        self.problem = problem
        self.sigma = float(sigma)
        self.lower_method = lower_method
        self.kkt: KKTMatrix = assemble_kkt(problem, sigma, rho_vec)
        kmat = self.kkt.matrix
        if ordering == "amd":
            self.perm: Permutation = amd_order(kmat)
        else:
            self.perm = Permutation.identity(problem.n + problem.m)
        # Symmetrize -> permute -> upper triangle only moves values, so
        # route the entry positions through it once per pattern; every
        # refactorization is then one gather into the same matrix.
        positions = CSCMatrix(
            kmat.shape,
            kmat.indptr,
            kmat.indices,
            np.arange(kmat.nnz, dtype=np.float64),
            check=False,
        )
        self._permuted_upper = self.perm.permute_symmetric(
            positions.symmetrize_from_upper()
        ).upper_triangle()
        self.permuted_positions = self._permuted_upper.data.astype(np.int64)
        self._permuted_upper.data = kmat.data[self.permuted_positions]
        self.symbolic = symbolic_factor(self._permuted_upper)
        self.factor: LDLFactor = ldl_factor(self._permuted_upper, self.symbolic)
        self.num_factorizations = 1

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.problem.n + self.problem.m

    @property
    def l_nnz(self) -> int:
        """Fill of the factor (drives per-iteration cost)."""
        return self.symbolic.l_nnz

    def update_rho(self, rho_vec: np.ndarray, trace: OpTrace | None = None) -> None:
        """Install a new ρ vector and refactor numerically."""
        self.kkt.update_rho(rho_vec)
        self._refactor(trace)

    def update_values(
        self, problem: QPProblem, trace: OpTrace | None = None
    ) -> None:
        """Install new P/A values (same pattern) and refactor.

        The parametric-problem path: symbolic factorization, ordering
        and every compiled schedule stay valid; only numeric work runs.
        """
        if not problem.a.pattern_equal(self.problem.a) or not (
            problem.p_upper.pattern_equal(self.problem.p_upper)
        ):
            raise ValueError("update_values requires an identical pattern")
        self.problem = problem
        self.kkt.update_values(problem.p_upper, problem.a)
        self._refactor(trace)

    def _refactor(self, trace: OpTrace | None) -> None:
        np.take(
            self.kkt.matrix.data,
            self.permuted_positions,
            out=self._permuted_upper.data,
        )
        ldl_refactor(self._permuted_upper, self.factor)
        self.num_factorizations += 1
        if trace is not None:
            counts = np.diff(self.symbolic.l_indptr)
            trace.add(
                "factorization", Primitive.COLUMN_ELIM, factorization_flops(counts)
            )

    def solve(self, rhs: np.ndarray, trace: OpTrace | None = None) -> np.ndarray:
        """Solve ``K s = rhs`` and return ``s`` (length n + m)."""
        permuted = self.perm.apply(rhs)
        solution = self.factor.solve(permuted, lower_method=self.lower_method)
        out = self.perm.apply_inverse(solution)
        if trace is not None:
            n = self.dim
            tri = triangular_solve_flops(self.l_nnz, n)
            # Forward solve: MAC work for the row method, column
            # elimination for the column method; backward solve
            # consumes columns of L as rows of Lᵀ (MAC either way).
            forward = (
                Primitive.MAC
                if self.lower_method == "row"
                else Primitive.COLUMN_ELIM
            )
            trace.add("triangular_solve_L", forward, tri)
            trace.add("triangular_solve_Lt", Primitive.MAC, tri)
            trace.add("diagonal_solve", Primitive.ELEMENTWISE, float(n))
            trace.add("permute_rhs", Primitive.PERMUTE, float(n))
            trace.add("inverse_permute", Primitive.PERMUTE, float(n))
        return out

    def initial_factor_trace(self, trace: OpTrace) -> None:
        """Attribute the setup factorization to the trace."""
        counts = np.diff(self.symbolic.l_indptr)
        trace.add(
            "factorization", Primitive.COLUMN_ELIM, factorization_flops(counts)
        )
