"""OSQP-indirect KKT backend: preconditioned conjugate gradient.

Reduces the quasi-definite KKT system of eq. (2) to the positive
definite system ``S x̃ = b`` with ``S = P + σI + Aᵀ diag(ρ) A``
(Section II-D).  ``S`` is never formed; its action is computed
incrementally as ``P·v + σ·v + Aᵀ(ρ·(A·v))``, and a Jacobi (diagonal)
preconditioner built from the same pieces is used — matching
Algorithm 2 of the paper.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .problem import QPProblem
from .results import OpTrace, Primitive

__all__ = ["IndirectKKTSolver", "CGDiagnostics", "pcg"]


def pcg(
    apply_s: Callable[[np.ndarray], np.ndarray],
    m_inv: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    *,
    tol: float,
    max_iter: int,
    trace: OpTrace | None = None,
) -> tuple[np.ndarray, int, bool]:
    """Algorithm 2: Jacobi-preconditioned CG on ``S x = b`` from ``x0``.

    ``apply_s`` computes ``S·v`` wherever S lives (host numpy, or the
    network's ``apply_s`` kernel); the scalar λ/μ control runs here.
    The stopping rule is ``‖r‖ < tol·‖b‖`` (line 10).  Returns the
    solution, the CG iteration count and whether the rule was met.
    """
    n = b.size
    x = x0.astype(np.float64, copy=True)
    r = apply_s(x) - b
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n), 0, True
    d = m_inv * r
    p = -d
    rd = float(r @ d)
    iterations = 0
    converged = float(np.linalg.norm(r)) < tol * b_norm
    while not converged and iterations < max_iter:
        sp = apply_s(p)
        denom = float(p @ sp)
        if denom <= 0.0:
            # Numerical breakdown; S is PD so this only happens at
            # round-off level — accept the current iterate.
            break
        lam = rd / denom
        x += lam * p
        r += lam * sp
        d = m_inv * r
        rd_new = float(r @ d)
        p = -d + (rd_new / rd) * p
        rd = rd_new
        iterations += 1
        if trace is not None:
            trace.add("cg_vector_ops", Primitive.ELEMENTWISE, 10.0 * n)
        converged = float(np.linalg.norm(r)) < tol * b_norm
    return x, iterations, converged


class CGDiagnostics:
    """PCG calls and iterations over the solver's life
    (``MIBSolver.solve`` prices one solve's share of them)."""

    def __init__(self) -> None:
        self.total_iterations = 0
        self.calls = 0

    def record(self, iterations: int) -> None:
        self.total_iterations += iterations
        self.calls += 1


class IndirectKKTSolver:
    """Matrix-free PCG solver for the reduced KKT system.

    The ADMM loop calls :meth:`solve_reduced` with the right-hand side
    ``b = σx − q + Aᵀ(ρz − y)`` and warm-starts from the previous x̃.
    """

    def __init__(
        self,
        problem: QPProblem,
        sigma: float,
        rho_vec: np.ndarray,
        *,
        max_iter: int = 2000,
        tol: float = 1e-7,
    ) -> None:
        self.problem = problem
        self.sigma = float(sigma)
        self.rho_vec = np.asarray(rho_vec, dtype=np.float64).copy()
        self.max_iter = max_iter
        self.tol = tol
        self.diagnostics = CGDiagnostics()
        self._p_full = problem.p_full
        self._a = problem.a
        self._rebuild_preconditioner()

    # ------------------------------------------------------------------
    def _rebuild_preconditioner(self) -> None:
        """Jacobi preconditioner: diag(P) + σ + Σ_i ρ_i A_ij²."""
        a = self._a
        col_sq = np.zeros(a.ncols, dtype=np.float64)
        for j in range(a.ncols):
            rows, vals = a.col(j)
            col_sq[j] = np.dot(self.rho_vec[rows], vals * vals)
        self._m_inv = 1.0 / (self._p_full.diagonal() + self.sigma + col_sq)

    def update_rho(self, rho_vec: np.ndarray, trace: OpTrace | None = None) -> None:
        """Install a new ρ vector (cheap: only the preconditioner moves)."""
        self.rho_vec = np.asarray(rho_vec, dtype=np.float64).copy()
        self._rebuild_preconditioner()
        if trace is not None:
            trace.add(
                "preconditioner_update", Primitive.ELEMENTWISE, 2.0 * self._a.nnz
            )

    def update_values(
        self, problem: QPProblem, trace: OpTrace | None = None
    ) -> None:
        """Install new P/A values (same pattern) — matrix-free, so only
        the stored references and the Jacobi preconditioner move."""
        if not problem.a.pattern_equal(self.problem.a) or not (
            problem.p_upper.pattern_equal(self.problem.p_upper)
        ):
            raise ValueError("update_values requires an identical pattern")
        self.problem = problem
        self._p_full = problem.p_full
        self._a = problem.a
        self._rebuild_preconditioner()
        if trace is not None:
            trace.add(
                "preconditioner_update", Primitive.ELEMENTWISE, 2.0 * self._a.nnz
            )

    def apply_s(self, v: np.ndarray, trace: OpTrace | None = None) -> np.ndarray:
        """Compute ``S v`` without forming ``S``.

        ``A·v`` streams A column-by-column (MAC primitive on the MIB);
        ``Aᵀ·w`` streams the same storage as column elimination (the
        paper issues Aᵀ multiplications as column-elimination
        instructions, Section IV-B).
        """
        av = self._a.matvec(v)
        at_rho_av = self._a.rmatvec(self.rho_vec * av)
        pv = self._p_full.matvec(v)
        if trace is not None:
            trace.add("spmv_A", Primitive.MAC, 2.0 * self._a.nnz)
            trace.add("spmv_At", Primitive.COLUMN_ELIM, 2.0 * self._a.nnz)
            trace.add("spmv_P", Primitive.MAC, 2.0 * self._p_full.nnz)
            trace.add(
                "s_assembly", Primitive.ELEMENTWISE, 3.0 * v.size + self.rho_vec.size
            )
        return pv + self.sigma * v + at_rho_av

    def solve_reduced(
        self,
        b: np.ndarray,
        x0: np.ndarray,
        *,
        tol: float | None = None,
        trace: OpTrace | None = None,
    ) -> tuple[np.ndarray, int]:
        """Run PCG on ``S x = b`` from warm start ``x0``.

        Returns the solution and the number of CG iterations
        (:func:`pcg` over the host's ``S`` product).
        """
        tol = self.tol if tol is None else tol
        x, iterations, _ = pcg(
            lambda v: self.apply_s(v, trace), self._m_inv, b, x0,
            tol=tol, max_iter=self.max_iter, trace=trace,
        )
        self.diagnostics.record(iterations)
        return x, iterations
