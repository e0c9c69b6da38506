"""Streaming solve sessions: pinned solver, carried iterate, carried ρ.

The paper's flagship workloads are parametric *sequences* — receding-
horizon MPC, lasso regularization paths, portfolio backtests — where
consecutive instances share one sparsity pattern and differ only in
values.  A :class:`SolveSession` pins one pattern-compiled
:class:`~repro.backends.mib.MIBSolver` and carries ``(x, y, ρ)`` across
re-solves so every step after the first starts from the previous
solution with the previously adapted penalty, and rebinds through the
delta fast path (:meth:`~repro.backends.mib.MIBSolver.bind_values`)
when only ``q``/``l``/``u`` changed.

Carried state is **continuation-scoped**: it survives only while the
stream stays a vectors-only (delta) continuation of the session's own
previous instance.  A step whose matrix values differ is a *regime
change* — a new market day's covariances, a re-linearized plant — and
the previous trajectory's iterate and duals are stale there; carrying
them measurably *hurts* (stale duals cost more iterations than a cold
start).  Such steps therefore solve cold (fresh iterate, configured
initial ρ) and start a new continuation.

Continuation is classified against the *session's own* last instance,
not against whatever values happen to be bound to the shared solver —
interleaved sessions on one resident solver rebind it constantly, and
classifying against solver state would make one session's trajectory
(and results) depend on another's timing.

Determinism contract (DESIGN.md §5.8): step *i* of a session is
bitwise identical to a solo solve of the same instance on a
same-lineage solver given the session state entering the step —

    twin.bind_instance(problem_i, rho0=rho_{i-1})
    twin.solve(x0=x_{i-1}, y0=y_{i-1})

where ``(x_{i-1}, y_{i-1}, rho_{i-1})`` is the carried state
(``(None, None, settings.rho)`` for step 0 and for every regime-change
step).  The fast paths only skip recomputation of values that are
bitwise unchanged, so they cannot perturb the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..solver import QPProblem
from .mib import MIBSolveReport, MIBSolver

__all__ = ["SessionStep", "SolveSession"]


@dataclass(frozen=True)
class SessionStep:
    """One session step: the solve report plus how the bind was served."""

    report: MIBSolveReport
    index: int  # 0-based step number within the session
    # "delta": vectors-only continuation of the session's previous
    # instance (carried state applies); "full": first step or regime
    # change (matrix values differ — solved cold).
    bind: str
    refactorized: bool  # the step paid a numeric KKT refactorization
    warm: bool  # started from a carried iterate (False for step 0)

    @property
    def delta_bind(self) -> bool:
        return self.bind == "delta"


class SolveSession:
    """Carry ``(x, y, ρ)`` across re-solves of one compiled solver.

    The session does not own the solver.  A serve-pool entry lends its
    resident solver to a stored session for the span of one request and
    takes it back afterwards (``solver`` is ``None`` in between; see
    :mod:`repro.serve.session`), so one session may step on several
    same-pattern solvers over its life.  :meth:`step` is strictly
    sequential — the caller serializes concurrent use.
    """

    def __init__(self, solver: MIBSolver | None = None) -> None:
        self.solver = solver
        self.x: np.ndarray | None = None
        self.y: np.ndarray | None = None
        # None until the first step, which is a regime change and so
        # starts from the configured initial ρ — the same starting point
        # as bind_instance(), not wherever a previous tenant of a shared
        # solver left its adaptation.
        self.rho: float | None = None
        # Matrix values of the session's own previous instance — the
        # continuation classifier (NOT the solver's bound values).
        self.last_a_data: np.ndarray | None = None
        self.last_p_data: np.ndarray | None = None
        self.steps = 0
        self.delta_binds = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop carried state; the next step is a cold start."""
        self.x = None
        self.y = None
        self.rho = float(self.solver.reference.settings.rho)
        self.last_a_data = None
        self.last_p_data = None

    # ------------------------------------------------------------------
    def _continues(self, problem: QPProblem) -> bool:
        """Is ``problem`` a vectors-only continuation of this stream?"""
        return (
            self.last_a_data is not None
            and np.array_equal(problem.a.data, self.last_a_data)
            and np.array_equal(problem.p_upper.data, self.last_p_data)
        )

    def step(self, problem: QPProblem) -> SessionStep:
        """Bind the next instance of the stream and solve it.

        Vectors-only continuations ride the delta bind (no matrix
        rescale, no refactorization) and start from the carried state;
        the carried ρ is installed through
        :meth:`~repro.backends.mib.MIBSolver.bind_rho`, which
        refactorizes only when the per-constraint vector changed.
        Regime changes (matrix values differ) drop the carried state
        and solve cold.
        """
        continuation = self._continues(problem)
        if not continuation:
            # Regime change: the previous trajectory is stale here.
            self.reset()
        warm = self.x is not None
        # The solver-level bind may still be a full rebind on a session
        # continuation (an interleaved session rebound the shared
        # solver); that changes cost, never results — both bind paths
        # are bitwise equivalent.
        solver_bind = self.solver.bind_values(problem)
        rho_refactorized = self.solver.bind_rho(self.rho)
        report = self.solver.solve(x0=self.x, y0=self.y)
        result = report.result
        self.x = np.array(result.x, dtype=np.float64, copy=True)
        self.y = np.array(result.y, dtype=np.float64, copy=True)
        # Adaptation inside solve() mutates the solver's ρ persistently;
        # carry it so the next step resumes where this one ended.
        self.rho = float(self.solver.reference.rho)
        self.last_a_data = problem.a.data
        self.last_p_data = problem.p_upper.data
        index = self.steps
        self.steps += 1
        if continuation:
            self.delta_binds += 1
        return SessionStep(
            report=report,
            index=index,
            bind="delta" if continuation else "full",
            refactorized=rho_refactorized or solver_bind == "full",
            warm=warm,
        )
