"""Quadratic program representation.

The standard form of eq. (1) in the paper:

    minimize    (1/2) xᵀ P x + qᵀ x
    subject to  l ≤ A x ≤ u

with ``P`` positive semidefinite.  Equality constraints are expressed as
``l_i == u_i``; one-sided constraints use ±∞ bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..linalg import CSCMatrix

__all__ = ["QPProblem", "OSQP_INFTY"]

# OSQP treats bounds beyond this magnitude as infinite.
OSQP_INFTY = 1e30


@dataclass
class QPProblem:
    """A convex QP in OSQP standard form.

    Attributes
    ----------
    p:
        Objective matrix ``P`` (n x n, positive semidefinite).  Only its
        upper triangle is consulted; the stored matrix may be either the
        full symmetric matrix or just the upper triangle.
    q:
        Linear objective vector (n).
    a:
        Constraint matrix ``A`` (m x n).
    l, u:
        Lower/upper constraint bounds (m); ``±OSQP_INFTY`` encodes
        one-sided constraints.
    name:
        Optional label (used in benchmark reports).
    """

    p: CSCMatrix
    q: np.ndarray
    a: CSCMatrix
    l: np.ndarray
    u: np.ndarray
    name: str = field(default="qp")

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=np.float64)
        self.l = np.asarray(self.l, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)
        n, m = self.n, self.m
        if self.p.shape != (n, n):
            raise ValueError(f"P must be {n}x{n}, got {self.p.shape}")
        if self.a.shape != (m, n):
            raise ValueError(f"A shape {self.a.shape} inconsistent with bounds")
        if self.l.shape != (m,) or self.u.shape != (m,):
            raise ValueError("bound vectors must both have length m")
        if np.any(self.l > self.u):
            raise ValueError("every lower bound must be <= its upper bound")
        if np.isnan(self.q).any() or np.isnan(self.l).any() or np.isnan(self.u).any():
            raise ValueError("NaN in problem data")

    @property
    def n(self) -> int:
        """Number of decision variables."""
        return int(self.q.shape[0])

    @property
    def m(self) -> int:
        """Number of constraints."""
        return int(self.l.shape[0])

    @property
    def nnz(self) -> int:
        """Total non-zeros in P (upper triangle) and A — the paper's
        problem-scale measure."""
        return self.p_upper.nnz + self.a.nnz

    @property
    def p_upper(self) -> CSCMatrix:
        """Upper triangle of P (cached)."""
        cached = getattr(self, "_p_upper", None)
        if cached is None:
            cached = self.p.upper_triangle()
            object.__setattr__(self, "_p_upper", cached)
        return cached

    @property
    def p_full(self) -> CSCMatrix:
        """Full symmetric P (cached), regardless of storage convention."""
        cached = getattr(self, "_p_full", None)
        if cached is None:
            cached = self.p_upper.symmetrize_from_upper()
            object.__setattr__(self, "_p_full", cached)
        return cached

    def adopt_p_forms(
        self,
        *,
        p_upper: CSCMatrix | None = None,
        p_full: CSCMatrix | None = None,
    ) -> "QPProblem":
        """Install already-built forms of ``P`` as this instance's
        :attr:`p_upper` / :attr:`p_full` caches; returns ``self``.

        The caller vouches that each is bitwise what the property would
        build from ``self.p`` — e.g. the forms of another instance whose
        ``P`` was just proven equal (pattern and upper-triangle values),
        or ``self.p`` itself as ``p_upper`` when it is a canonical CSC
        matrix with no entry below the diagonal.  Only then is skipping
        the rebuild invisible in every number.
        """
        if p_upper is not None:
            object.__setattr__(self, "_p_upper", p_upper)
        if p_full is not None:
            object.__setattr__(self, "_p_full", p_full)
        return self

    def objective(self, x: np.ndarray) -> float:
        """Evaluate ``(1/2) xᵀPx + qᵀx``."""
        x = np.asarray(x, dtype=np.float64)
        return float(0.5 * x @ self.p_full.matvec(x) + self.q @ x)

    def eq_constraint_mask(self) -> np.ndarray:
        """Boolean mask of equality constraints (``l == u``)."""
        return self.l == self.u

    def loose_constraint_mask(self) -> np.ndarray:
        """Constraints with both bounds infinite (effectively absent)."""
        return (self.l <= -OSQP_INFTY) & (self.u >= OSQP_INFTY)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QPProblem(name={self.name!r}, n={self.n}, m={self.m}, "
            f"nnz={self.nnz})"
        )
