"""Modified Ruiz equilibration (problem scaling).

OSQP scales the problem data before running ADMM so that the KKT matrix
rows/columns have comparable norms; this dramatically improves the
convergence of the operator splitting.  The scaled problem is

    P̄ = c·D P D,  q̄ = c·D q,  Ā = E A D,  l̄ = E l,  ū = E u

with diagonal ``D`` (n), ``E`` (m) and scalar cost scaling ``c``.  The
iteration matches OSQP's ``scale_data``: each pass divides by the square
root of the infinity norm of each column of the stacked KKT-like matrix
``[[P, Aᵀ], [A, 0]]``, followed by a cost-normalization step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg import CSCMatrix
from .problem import QPProblem

__all__ = ["Scaling", "ruiz_scale", "identity_scaling"]

_MIN_SCALING = 1e-4
_MAX_SCALING = 1e4


@dataclass
class Scaling:
    """Diagonal scaling of a QP and its inverse mappings.

    ``d``/``e`` are the diagonals of ``D``/``E``; ``c`` the cost scaling.
    ``*_inv`` are cached reciprocals used on every residual computation.
    """

    d: np.ndarray
    e: np.ndarray
    c: float
    scaled: QPProblem

    @property
    def d_inv(self) -> np.ndarray:
        cached = getattr(self, "_d_inv", None)
        if cached is None:
            cached = 1.0 / self.d
            self._d_inv = cached
        return cached

    @property
    def e_inv(self) -> np.ndarray:
        cached = getattr(self, "_e_inv", None)
        if cached is None:
            cached = 1.0 / self.e
            self._e_inv = cached
        return cached

    def apply(self, problem: QPProblem) -> QPProblem:
        """Scale a raw instance in one shot with this equilibration.

        The one path from raw data to a scaled QP: :func:`ruiz_scale`
        builds its ``scaled`` instance with it, and every rebind
        (:meth:`repro.solver.OSQPSolver.update_values`, as OSQP's
        ``update`` API) rescales new values with it, so the first
        instance and every later one are scaled by the same arithmetic.
        """
        d, e, c = self.d, self.e, self.c
        q, l, u = self.apply_vectors(problem)
        return QPProblem(
            p=problem.p_full.scale_rows_cols(d, d).scale(c),
            q=q,
            a=problem.a.scale_rows_cols(e, d),
            l=l,
            u=u,
            name=problem.name,
        )

    def apply_vectors(
        self, problem: QPProblem
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(q̄, l̄, ū)`` of a raw instance: the vector half of
        :meth:`apply`, which a vectors-only rebind
        (:meth:`repro.solver.OSQPSolver.update_vectors`) reuses so that
        it stays bitwise a full rebind."""
        c, d, e = self.c, self.d, self.e
        return c * d * problem.q, e * problem.l, e * problem.u

    def unscale_x(self, x: np.ndarray) -> np.ndarray:
        """Recover original-space decision variables."""
        return self.d * x

    def unscale_z(self, z: np.ndarray) -> np.ndarray:
        """Recover original-space constraint values."""
        return self.e_inv * z

    def unscale_y(self, y: np.ndarray) -> np.ndarray:
        """Recover original-space dual variables."""
        return self.e * y / self.c


def _col_inf_norms(mat: CSCMatrix) -> np.ndarray:
    """Infinity norm of every column (0 for empty columns)."""
    out = np.zeros(mat.ncols, dtype=np.float64)
    for j in range(mat.ncols):
        _, vals = mat.col(j)
        if vals.size:
            out[j] = np.abs(vals).max()
    return out


def _row_inf_norms(mat: CSCMatrix) -> np.ndarray:
    """Infinity norm of every row (0 for empty rows)."""
    out = np.zeros(mat.nrows, dtype=np.float64)
    rows, _, vals = mat.to_coo()
    if rows.size:
        np.maximum.at(out, rows, np.abs(vals))
    return out


def _limit(v: np.ndarray) -> np.ndarray:
    """Clamp scalings away from 0/∞; unit scaling for empty rows/cols."""
    v = np.where(v < _MIN_SCALING, 1.0, v)
    return np.minimum(v, _MAX_SCALING)


def ruiz_scale(problem: QPProblem, *, iterations: int = 10) -> Scaling:
    """Equilibrate a QP with modified Ruiz scaling.

    The passes only compute ``(d, e, c)``; the scaled instance is
    :meth:`Scaling.apply` of the raw problem, bitwise what a rebind to
    the same values computes.

    Parameters
    ----------
    problem:
        The original (unscaled) problem.
    iterations:
        Number of Ruiz passes (OSQP default 10).
    """
    n, m = problem.n, problem.m
    d = np.ones(n)
    e = np.ones(m)
    c = 1.0

    p = problem.p_full
    a = problem.a
    q = problem.q.copy()

    for _ in range(iterations):
        # Column norms of the stacked [[P, Aᵀ], [A, 0]] matrix.
        delta_d = _limit(
            np.sqrt(_limit(np.maximum(_col_inf_norms(p), _col_inf_norms(a))))
        )
        delta_e = _limit(np.sqrt(_limit(_row_inf_norms(a))))
        inv_d = 1.0 / delta_d
        inv_e = 1.0 / delta_e
        p = p.scale_rows_cols(inv_d, inv_d)
        a = a.scale_rows_cols(inv_e, inv_d)
        q = q * inv_d
        d *= inv_d
        e *= inv_e

        # Cost normalization.
        p_col_norms = _col_inf_norms(p)
        mean_p = p_col_norms.mean() if n else 1.0
        q_norm = np.abs(q).max() if q.size else 0.0
        gamma = max(mean_p, q_norm)
        if gamma > _MIN_SCALING:
            gamma = 1.0 / min(gamma, _MAX_SCALING)
            p = p.scale(gamma)
            q = q * gamma
            c *= gamma

    scaling = Scaling(d=d, e=e, c=c, scaled=problem)
    scaling.scaled = scaling.apply(problem)
    return scaling


def identity_scaling(problem: QPProblem) -> Scaling:
    """A no-op scaling (``scaling=0`` in OSQP settings)."""
    return Scaling(
        d=np.ones(problem.n), e=np.ones(problem.m), c=1.0, scaled=problem
    )
