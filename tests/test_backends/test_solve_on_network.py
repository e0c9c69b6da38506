"""The flagship integration test: whole ADMM solves executed on the
cycle-level network simulator, compared against the host reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import MIBSolver
from repro.linalg import CSCMatrix, eye
from repro.problems import mpc_problem, portfolio_problem, svm_problem
from repro.solver import QPProblem, Settings, SolverStatus, solve
from repro.solver.problem import OSQP_INFTY

FAST = Settings(eps_abs=1e-3, eps_rel=1e-3)


# Primal infeasible: x0 >= 1 and x0 <= -1 at once (x1 keeps A's
# pattern non-trivial).  Dual infeasible: min x0 + x1 with both
# unbounded below.
def primal_infeasible_problem() -> QPProblem:
    return QPProblem(
        p=eye(2),
        q=np.zeros(2),
        a=CSCMatrix.from_dense(
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ),
        l=np.array([1.0, -OSQP_INFTY, -1.0]),
        u=np.array([OSQP_INFTY, -1.0, 1.0]),
    )


def dual_infeasible_problem() -> QPProblem:
    return QPProblem(
        p=eye(2, 0.0),
        q=np.array([1.0, 1.0]),
        a=eye(2),
        l=np.array([-OSQP_INFTY, -OSQP_INFTY]),
        u=np.array([5.0, 5.0]),
    )


ADAPTING = Settings(rho=1e-3, eps_abs=1e-4, eps_rel=1e-4, max_iter=4000)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: (portfolio_problem(10), FAST),
        lambda: (mpc_problem(3, horizon=4), FAST),
        lambda: (svm_problem(5, n_samples=15), FAST),
        lambda: (
            mpc_problem(3, horizon=4),
            Settings(eps_abs=1e-3, eps_rel=1e-3, check_interval=5),
        ),
        lambda: (portfolio_problem(10), ADAPTING),
        lambda: (primal_infeasible_problem(), FAST),
        lambda: (dual_infeasible_problem(), FAST),
    ],
)
def test_network_solve_matches_reference(factory):
    """The independent oracle of the one network loop: the host
    reference.  (The lane differentials compare the loop with itself
    over two storages.)  Both execution modes also agree bit for bit
    with each other."""
    problem, settings = factory()
    ref = solve(problem, variant="direct", settings=settings)
    reports = {}
    for execution in ("replay", "interpret"):
        solver = MIBSolver(
            problem, variant="direct", c=16, settings=settings,
            execution=execution,
        )
        net = reports[execution] = solver.solve_on_network()
        # Identical algorithm trajectory: same status, iterations and
        # rho updates, same solution to simulator round-off.
        assert net.status is ref.status, execution
        assert net.iterations == ref.iterations, execution
        assert net.rho_updates == ref.rho_updates, execution
        np.testing.assert_allclose(net.x, ref.x, atol=1e-9)
        np.testing.assert_allclose(net.y, ref.y, atol=1e-9)
        assert net.objective == pytest.approx(ref.objective, rel=1e-9)
        for got, want in (
            (
                net.primal_infeasibility_certificate,
                ref.primal_infeasibility_certificate,
            ),
            (
                net.dual_infeasibility_certificate,
                ref.dual_infeasibility_certificate,
            ),
        ):
            assert (got is None) == (want is None), execution
            if want is not None:
                np.testing.assert_allclose(got, want, atol=1e-9)
    replay, interpret = reports["replay"], reports["interpret"]
    for name in ("status", "iterations", "cycles", "rho_updates"):
        assert getattr(replay, name) == getattr(interpret, name), name
    for name in ("x", "y", "z", "primal_residual", "dual_residual",
                 "objective"):
        assert np.array_equal(
            getattr(replay, name), getattr(interpret, name), equal_nan=True
        ), name


def test_reference_cases_cover_every_exit():
    """The widened matrix above means something only if its cases
    reach a ρ update and both certificates on the reference."""
    assert solve(portfolio_problem(10), settings=ADAPTING).rho_updates >= 1
    assert (
        solve(primal_infeasible_problem(), settings=FAST).status
        is SolverStatus.PRIMAL_INFEASIBLE
    )
    assert (
        solve(dual_infeasible_problem(), settings=FAST).status
        is SolverStatus.DUAL_INFEASIBLE
    )


def test_network_solve_counts_cycles():
    problem = portfolio_problem(10)
    solver = MIBSolver(problem, variant="direct", c=16, settings=FAST)
    net = solver.solve_on_network(max_iter=1000)
    assert net.cycles > 0
    # Cycle accounting consistency: the executed cycles must include at
    # least the per-iteration kernels times the iteration count.
    per_iter = (
        solver.kernels.cycles("iter_pre")
        + solver.kernels.cycles("kkt_solve")
        + solver.kernels.cycles("iter_post")
    )
    assert net.cycles >= net.iterations * per_iter


def test_reduced_system_pcg_on_network():
    """Indirect variant: the full PCG solve with every S-product on the
    simulator reproduces the host PCG solution."""
    problem = portfolio_problem(12)
    solver = MIBSolver(problem, variant="indirect", c=16, settings=FAST)
    kkt = solver.reference.kkt_solver
    rng = np.random.default_rng(5)
    b = rng.standard_normal(solver.reference.scaling.scaled.n)
    x_net, iters = solver.solve_reduced_on_network(b, tol=1e-10)
    x_host, _ = kkt.solve_reduced(b, np.zeros_like(b), tol=1e-10)
    assert iters > 0
    np.testing.assert_allclose(x_net, x_host, atol=1e-7)
    # And against the definition of S directly.
    s_x = kkt.apply_s(x_net)
    np.testing.assert_allclose(s_x, b, atol=1e-6)


def test_reduced_system_rejects_direct():
    problem = portfolio_problem(10)
    solver = MIBSolver(problem, variant="direct", c=16, settings=FAST)
    with pytest.raises(ValueError):
        solver.solve_reduced_on_network(np.zeros(3))


def test_network_solve_rejects_indirect():
    problem = portfolio_problem(10)
    solver = MIBSolver(problem, variant="indirect", c=16, settings=FAST)
    with pytest.raises(ValueError):
        solver.solve_on_network()


def test_network_solve_max_iter_respected():
    problem = portfolio_problem(10)
    solver = MIBSolver(problem, variant="direct", c=16, settings=FAST)
    net = solver.solve_on_network(max_iter=3)
    assert net.iterations == 3
    assert net.status is SolverStatus.MAX_ITERATIONS


def test_network_solve_with_rho_refactorization():
    """A solve whose ρ adapts exercises on-network refactorization."""
    problem = portfolio_problem(10)
    settings = Settings(
        rho=1e-3, eps_abs=1e-4, eps_rel=1e-4, max_iter=4000
    )
    solver = MIBSolver(problem, variant="direct", c=16, settings=settings)
    net = solver.solve_on_network()
    assert net.rho_updates >= 1
    assert net.status is SolverStatus.SOLVED
    ref = solve(problem, variant="direct", settings=settings)
    assert net.objective == pytest.approx(ref.objective, rel=1e-6)
