"""Differential tests for :class:`repro.backends.session.SolveSession`.

The session is an amortization layer, not an approximation: every step
must be bitwise identical to a solo solve of the same instance on a
same-lineage solver given the carried state entering the step (the
DESIGN.md §5.8 contract).  These tests replay parametric streams twice
— once through a session, once through a twin oracle running the
contract verbatim — and compare with ``np.array_equal``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import MIBSolver
from repro.backends.session import SolveSession
from repro.problems import lasso_problem, portfolio_problem
from repro.solver import Settings

FAST = Settings(eps_abs=1e-3, eps_rel=1e-3, max_iter=4000)


def lasso_stream(n_steps: int = 5) -> list:
    """Vectors-only stream: one pattern, only ``q`` moves with λ."""
    fractions = np.geomspace(0.9, 0.1, n_steps)
    return [
        lasso_problem(12, n_samples=36, lam_fraction=float(f), seed=0)
        for f in fractions
    ]


def day_major_stream() -> list:
    """Two regimes: matrix values change at the day boundary."""
    return [
        portfolio_problem(10, gamma=g, seed=day)
        for day in (0, 1)
        for g in (1.0, 1.3, 1.7)
    ]


def oracle_replay(problems: list) -> list:
    """The §5.8 contract verbatim, on a same-lineage twin solver."""
    twin = MIBSolver(problems[0], variant="direct", c=8, settings=FAST)
    x = y = None
    rho = FAST.rho
    last_a = last_p = None
    results = []
    for problem in problems:
        continuation = last_a is not None and (
            np.array_equal(problem.a.data, last_a)
            and np.array_equal(problem.p_upper.data, last_p)
        )
        if not continuation:
            x = y = None
            rho = FAST.rho
        twin.bind_instance(problem, rho0=rho)
        result = twin.solve(x0=x, y0=y).result
        results.append(result)
        x, y = result.x, result.y
        rho = float(twin.reference.rho)
        last_a, last_p = problem.a.data, problem.p_upper.data
    return results


class TestContinuation:
    def test_vectors_only_stream_rides_the_delta_bind(self):
        problems = lasso_stream()
        solver = MIBSolver(problems[0], variant="direct", c=8, settings=FAST)
        session = SolveSession(solver)
        steps = [session.step(p) for p in problems]
        assert steps[0].bind == "full" and not steps[0].warm
        assert all(s.bind == "delta" for s in steps[1:])
        assert all(s.warm for s in steps[1:])
        assert session.delta_binds == len(problems) - 1

    def test_session_matches_twin_oracle_bitwise(self):
        problems = lasso_stream()
        solver = MIBSolver(problems[0], variant="direct", c=8, settings=FAST)
        session = SolveSession(solver)
        served = [session.step(p).report.result for p in problems]
        for mine, ref in zip(served, oracle_replay(problems)):
            assert np.array_equal(mine.x, ref.x)
            assert np.array_equal(mine.y, ref.y)
            assert mine.iterations == ref.iterations

    def test_warm_continuation_converges_faster_than_cold(self):
        """The point of carrying state: fewer iterations per step."""
        problems = lasso_stream(8)
        solver = MIBSolver(problems[0], variant="direct", c=8, settings=FAST)
        session = SolveSession(solver)
        warm_iters = sum(
            session.step(p).report.result.iterations for p in problems
        )
        cold = MIBSolver(problems[0], variant="direct", c=8, settings=FAST)
        cold_iters = 0
        for p in problems:
            cold.bind_instance(p, rho0=FAST.rho)
            cold_iters += cold.solve().result.iterations
        assert warm_iters < cold_iters


class TestRegimeChange:
    def test_matrix_change_drops_carried_state(self):
        problems = day_major_stream()
        solver = MIBSolver(problems[0], variant="direct", c=8, settings=FAST)
        session = SolveSession(solver)
        steps = [session.step(p) for p in problems]
        # Day boundary (index 3): new covariance values → cold step.
        assert steps[3].bind == "full" and not steps[3].warm
        # Intraday γ moves are vectors-only continuations.
        for i in (1, 2, 4, 5):
            assert steps[i].bind == "delta" and steps[i].warm

    def test_regime_change_step_equals_cold_solo_solve(self):
        problems = day_major_stream()
        solver = MIBSolver(problems[0], variant="direct", c=8, settings=FAST)
        session = SolveSession(solver)
        served = [session.step(p).report.result for p in problems]
        for mine, ref in zip(served, oracle_replay(problems)):
            assert np.array_equal(mine.x, ref.x)
            assert np.array_equal(mine.y, ref.y)


class TestStateManagement:
    def test_classifier_proves_continuation_on_another_solver(self):
        problems = lasso_stream(3)
        solver = MIBSolver(problems[0], variant="direct", c=8, settings=FAST)
        session = SolveSession(solver)
        session.step(problems[0])

        # The session is the stream's whole state: lent another
        # same-lineage solver, it continues the stream where it left it.
        session.solver = MIBSolver(
            problems[0], variant="direct", c=8, settings=FAST
        )
        step = session.step(problems[1])
        assert step.bind == "delta" and step.warm

        # Without the classifier the state cannot prove continuation:
        # the step solves cold (never a wrong warm start).
        session.last_a_data = None
        step = session.step(problems[2])
        assert step.bind == "full" and not step.warm

    def test_reset_forces_a_cold_next_step(self):
        problems = lasso_stream(3)
        solver = MIBSolver(problems[0], variant="direct", c=8, settings=FAST)
        session = SolveSession(solver)
        session.step(problems[0])
        session.reset()
        assert session.x is None and session.y is None
        assert session.rho == pytest.approx(FAST.rho)
        step = session.step(problems[1])
        assert step.bind == "full" and not step.warm

    def test_adapted_rho_is_carried_between_steps(self):
        problems = lasso_stream(3)
        solver = MIBSolver(problems[0], variant="direct", c=8, settings=FAST)
        session = SolveSession(solver)
        session.step(problems[0])
        assert session.rho == float(solver.reference.rho)


class TestInterleaveInvariance:
    def test_interleaved_sessions_match_their_solo_runs(self):
        """One session's results never depend on another's timing.

        Continuation is classified against the session's own last
        instance, so two streams interleaved on one shared resident
        solver must each produce exactly the trajectory they produce
        when run alone on a solver of the same lineage.  (Lineage
        matters: equilibration is computed once at construction and
        reused by every rebind — OSQP's ``update`` semantics — so the
        twin must be constructed from the same instance the shared
        resident solver was.)
        """
        from repro.solver import QPProblem

        stream_a = lasso_stream(4)
        # Same pattern (a shared resident solver requires it), distinct
        # values: stream B walks the λ path at half of A's penalties.
        stream_b = [
            QPProblem(
                p=p.p, q=p.q * 0.5, a=p.a, l=p.l, u=p.u, name=p.name
            )
            for p in stream_a
        ]
        lineage = stream_a[0]

        def run_solo(stream):
            solver = MIBSolver(lineage, variant="direct", c=8, settings=FAST)
            session = SolveSession(solver)
            return [session.step(p).report.result for p in stream]

        solo_a = run_solo(stream_a)
        solo_b = run_solo(stream_b)

        shared = MIBSolver(stream_a[0], variant="direct", c=8, settings=FAST)
        sess_a = SolveSession(shared)
        sess_b = SolveSession(shared)
        inter_a, inter_b = [], []
        for pa, pb in zip(stream_a, stream_b):
            inter_a.append(sess_a.step(pa).report.result)
            inter_b.append(sess_b.step(pb).report.result)

        for mine, ref in zip(inter_a, solo_a):
            assert np.array_equal(mine.x, ref.x)
            assert np.array_equal(mine.y, ref.y)
        for mine, ref in zip(inter_b, solo_b):
            assert np.array_equal(mine.x, ref.x)
            assert np.array_equal(mine.y, ref.y)
