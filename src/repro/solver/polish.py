"""Solution polishing (the OSQP post-processing step).

After ADMM terminates at moderate accuracy, OSQP optionally *polishes*
the solution: it guesses the active set from the signs of the dual
variables, forms the equality-constrained QP restricted to those
constraints, and solves its (regularized) KKT system with iterative
refinement.  When the active-set guess is right this recovers a
solution accurate to machine precision at the cost of one extra
factorization.

The reproduction includes polishing for solver completeness (the paper
benchmarks OSQP with default settings, where polishing is off).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg import CSCMatrix, ldl_factor
from .problem import QPProblem
from .results import Settings
from .scaling import Scaling

__all__ = ["PolishResult", "polish"]


@dataclass(frozen=True)
class PolishResult:
    """Outcome of a polish attempt."""

    success: bool
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    primal_residual: float
    dual_residual: float
    n_active_lower: int
    n_active_upper: int


def unscaled_residuals(
    problem: QPProblem, x: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """Original-space feasibility/stationarity norms (the polish gate)."""
    ax = problem.a.matvec(x)
    prim = float(
        np.maximum(ax - problem.u, 0.0).max(initial=0.0)
        + np.maximum(problem.l - ax, 0.0).max(initial=0.0)
    )
    dual = float(
        np.abs(problem.p_full.matvec(x) + problem.q + problem.a.rmatvec(y)).max()
    )
    return prim, dual


def polish(
    problem: QPProblem,
    scaling: Scaling,
    settings: Settings,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
) -> PolishResult | None:
    """Attempt to polish an (unscaled) ADMM solution.

    Returns ``None`` when polishing is not applicable (no active
    constraints recovered, singular reduced system) and a
    :class:`PolishResult` otherwise.  The caller decides whether to
    adopt the polished triple (only when it improves both residuals).
    """
    m, n = problem.m, problem.n
    # Active-set guess from the dual signs (OSQP's rule): a negative
    # multiplier marks an active lower bound, a positive one an active
    # upper bound.
    active_lower = (y < -1e-12) & (problem.l > -np.inf)
    active_upper = (y > 1e-12) & (problem.u < np.inf)
    lower_idx = np.nonzero(active_lower)[0]
    upper_idx = np.nonzero(active_upper)[0]
    n_act = lower_idx.size + upper_idx.size
    if n_act == 0:
        return None

    # Reduced constraint matrix and right-hand side.
    rows_l, cols_l, vals_l = [], [], []
    ar, ac, av = problem.a.to_coo()
    sel = {int(i): k for k, i in enumerate(np.concatenate([lower_idx, upper_idx]))}
    for r, c, v in zip(ar.tolist(), ac.tolist(), av.tolist()):
        if r in sel:
            rows_l.append(sel[r])
            cols_l.append(c)
            vals_l.append(v)
    a_red = CSCMatrix.from_coo(
        (n_act, n), rows_l, cols_l, vals_l, sum_duplicates=False
    )
    b_red = np.concatenate([problem.l[lower_idx], problem.u[upper_idx]])

    # Regularized KKT of the equality-constrained QP.
    delta = settings.polish_delta
    dim = n + n_act
    pr, pc, pv = problem.p_upper.to_coo()
    rows = [pr, np.arange(n)]
    cols = [pc, np.arange(n)]
    vals = [pv, np.full(n, delta)]
    arr, arc, arv = a_red.to_coo()
    rows.append(arc)
    cols.append(arr + n)
    vals.append(arv)
    rows.append(np.arange(n, dim))
    cols.append(np.arange(n, dim))
    vals.append(np.full(n_act, -delta))
    k_reg = CSCMatrix.from_coo(
        (dim, dim),
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )
    try:
        factor = ldl_factor(k_reg)
    except Exception:
        return None

    rhs = np.concatenate([-problem.q, b_red])

    def apply_true(s: np.ndarray) -> np.ndarray:
        xs, ys = s[:n], s[n:]
        top = problem.p_full.matvec(xs) + a_red.rmatvec(ys)
        bot = a_red.matvec(xs)
        return np.concatenate([top, bot])

    # Solve with iterative refinement against the *unregularized* KKT.
    s = factor.solve(rhs)
    for _ in range(settings.polish_refine_iters):
        r = rhs - apply_true(s)
        s = s + factor.solve(r)

    x_pol = s[:n]
    y_act = s[n:]
    y_pol = np.zeros(m)
    y_pol[lower_idx] = y_act[: lower_idx.size]
    y_pol[upper_idx] = y_act[lower_idx.size :]
    z_pol = problem.a.matvec(x_pol)
    prim, dual = unscaled_residuals(problem, x_pol, y_pol)
    return PolishResult(
        success=bool(np.isfinite(prim) and np.isfinite(dual)),
        x=x_pol,
        y=y_pol,
        z=z_pol,
        primal_residual=prim,
        dual_residual=dual,
        n_active_lower=int(lower_idx.size),
        n_active_upper=int(upper_idx.size),
    )
