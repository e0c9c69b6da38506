"""End-to-end tests of the ADMM solver (both variants).

Solutions are validated against KKT optimality conditions and, for
small problems, against an independent dense active-set reference via
scipy.optimize.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from scipy import optimize

from repro.linalg import CSCMatrix, eye
from repro.solver import (
    OSQP_INFTY,
    OSQPSolver,
    Primitive,
    QPProblem,
    Settings,
    SolverStatus,
    solve,
)

TIGHT = Settings(eps_abs=1e-6, eps_rel=1e-6, max_iter=20000)


def reference_solution(prob: QPProblem) -> np.ndarray:
    """Independent reference via scipy SLSQP on the dense problem."""
    p = prob.p_full.to_dense()
    a = prob.a.to_dense()

    def fun(x):
        return 0.5 * x @ p @ x + prob.q @ x

    def jac(x):
        return p @ x + prob.q

    constraints = []
    for i in range(prob.m):
        row = a[i]
        if prob.u[i] < OSQP_INFTY:
            constraints.append(
                {"type": "ineq", "fun": lambda x, r=row, ui=prob.u[i]: ui - r @ x}
            )
        if prob.l[i] > -OSQP_INFTY:
            constraints.append(
                {"type": "ineq", "fun": lambda x, r=row, li=prob.l[i]: r @ x - li}
            )
    res = optimize.minimize(
        fun,
        np.zeros(prob.n),
        jac=jac,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    assert res.success, res.message
    return res.x


def check_kkt(prob: QPProblem, x, y, z, tol=1e-3):
    """Assert the (x, y, z) triple satisfies the KKT conditions."""
    ax = prob.a.matvec(x)
    np.testing.assert_allclose(ax, z, atol=tol * 10)
    assert np.all(z <= prob.u + tol)
    assert np.all(z >= prob.l - tol)
    stationarity = prob.p_full.matvec(x) + prob.q + prob.a.rmatvec(y)
    scale = max(1.0, float(np.abs(prob.q).max()))
    assert np.abs(stationarity).max() <= tol * 10 * scale
    # Dual feasibility / complementary slackness.
    for i in range(prob.m):
        if y[i] > tol:  # active at upper
            assert z[i] >= prob.u[i] - 10 * tol
        elif y[i] < -tol:  # active at lower
            assert z[i] <= prob.l[i] + 10 * tol


def random_qp(seed: int, n: int = 8, m: int = 12) -> QPProblem:
    rng = np.random.default_rng(seed)
    b = np.where(rng.random((n, n)) < 0.4, rng.standard_normal((n, n)), 0.0)
    p = CSCMatrix.from_dense(b @ b.T + 0.1 * np.eye(n))
    a_dense = np.where(
        rng.random((m, n)) < 0.4, rng.standard_normal((m, n)), 0.0
    )
    # Guarantee every variable appears in some constraint.
    for j in range(n):
        if not a_dense[:, j].any():
            a_dense[rng.integers(m), j] = 1.0
    center = a_dense @ rng.standard_normal(n)
    width = rng.random(m) + 0.5
    return QPProblem(
        p=p,
        q=rng.standard_normal(n),
        a=CSCMatrix.from_dense(a_dense),
        l=center - width,
        u=center + width,
        name=f"random-{seed}",
    )


class TestBasicProblems:
    def test_unconstrained_minimum_inside_box(self):
        # min (x-1)^2 + (y+2)^2 within a large box.
        prob = QPProblem(
            p=eye(2, 2.0),
            q=np.array([-2.0, 4.0]),
            a=eye(2),
            l=np.array([-10.0, -10.0]),
            u=np.array([10.0, 10.0]),
        )
        res = solve(prob, settings=TIGHT)
        assert res.status is SolverStatus.SOLVED
        np.testing.assert_allclose(res.x, [1.0, -2.0], atol=1e-4)

    def test_active_box_constraint(self):
        prob = QPProblem(
            p=eye(1, 2.0),
            q=np.array([-10.0]),  # unconstrained min at x=5
            a=eye(1),
            l=np.array([0.0]),
            u=np.array([2.0]),
        )
        res = solve(prob, settings=TIGHT)
        assert res.status is SolverStatus.SOLVED
        np.testing.assert_allclose(res.x, [2.0], atol=1e-4)
        assert res.y[0] > 0  # upper bound active

    def test_equality_constrained(self):
        # min x^2 + y^2 s.t. x + y = 1 -> x = y = 0.5.
        prob = QPProblem(
            p=eye(2, 2.0),
            q=np.zeros(2),
            a=CSCMatrix.from_dense(np.array([[1.0, 1.0]])),
            l=np.array([1.0]),
            u=np.array([1.0]),
        )
        res = solve(prob, settings=TIGHT)
        assert res.status is SolverStatus.SOLVED
        np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-4)

    @pytest.mark.parametrize("variant", ["direct", "indirect"])
    def test_matches_scipy_reference(self, variant):
        prob = random_qp(7)
        res = solve(prob, variant=variant, settings=TIGHT)
        assert res.status is SolverStatus.SOLVED
        x_ref = reference_solution(prob)
        assert prob.objective(res.x) <= prob.objective(x_ref) + 1e-3

    @pytest.mark.parametrize("variant", ["direct", "indirect"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_kkt_conditions_random(self, variant, seed):
        prob = random_qp(seed)
        res = solve(prob, variant=variant, settings=TIGHT)
        assert res.status is SolverStatus.SOLVED
        check_kkt(prob, res.x, res.y, res.z)

    def test_variants_agree(self):
        prob = random_qp(42)
        res_d = solve(prob, variant="direct", settings=TIGHT)
        res_i = solve(prob, variant="indirect", settings=TIGHT)
        assert res_d.objective == pytest.approx(res_i.objective, abs=1e-3)

    def test_row_and_column_forward_solves_agree(self):
        prob = random_qp(11)
        res_c = solve(prob, settings=TIGHT, lower_method="column")
        res_r = solve(prob, settings=TIGHT, lower_method="row")
        np.testing.assert_allclose(res_c.x, res_r.x, atol=1e-8)

    def test_natural_ordering_still_solves(self):
        prob = random_qp(13)
        res = solve(prob, settings=TIGHT, ordering="amd")
        res_nat = solve(prob, settings=TIGHT, ordering="natural")
        assert res_nat.objective == pytest.approx(res.objective, abs=1e-4)


class TestInfeasibility:
    def test_primal_infeasible(self):
        # x <= -1 and x >= 1 simultaneously.
        prob = QPProblem(
            p=eye(1),
            q=np.zeros(1),
            a=CSCMatrix.from_dense(np.array([[1.0], [1.0]])),
            l=np.array([1.0, -OSQP_INFTY]),
            u=np.array([OSQP_INFTY, -1.0]),
        )
        res = solve(prob)
        assert res.status is SolverStatus.PRIMAL_INFEASIBLE
        assert res.primal_infeasibility_certificate is not None

    def test_dual_infeasible_unbounded(self):
        # min x with x unbounded below.
        prob = QPProblem(
            p=CSCMatrix.zeros((1, 1)),
            q=np.array([1.0]),
            a=eye(1),
            l=np.array([-OSQP_INFTY]),
            u=np.array([5.0]),
        )
        res = solve(prob)
        assert res.status is SolverStatus.DUAL_INFEASIBLE
        assert res.dual_infeasibility_certificate is not None

    def test_feasible_problem_not_flagged(self):
        prob = random_qp(3)
        res = solve(prob, settings=TIGHT)
        assert res.status is SolverStatus.SOLVED


class TestSolverBehaviour:
    def test_max_iterations(self):
        prob = random_qp(5)
        res = solve(prob, settings=Settings(max_iter=2, check_interval=1))
        assert res.status is SolverStatus.MAX_ITERATIONS
        assert res.iterations == 2

    def test_warm_start_reduces_iterations(self):
        prob = random_qp(9)
        solver = OSQPSolver(prob, settings=TIGHT)
        cold = solver.solve()
        warm = solver.solve(x0=cold.x, y0=cold.y)
        assert warm.iterations <= cold.iterations

    def test_trace_records_work(self):
        prob = random_qp(1)
        res = solve(prob, variant="direct", settings=TIGHT)
        tr = res.trace
        assert tr.total_flops > 0
        assert tr.by_primitive[Primitive.COLUMN_ELIM] > 0  # factorization
        assert tr.by_primitive[Primitive.MAC] > 0  # Lt solve + residuals
        assert tr.by_primitive[Primitive.PERMUTE] > 0
        assert tr.by_primitive[Primitive.ELEMENTWISE] > 0
        assert abs(sum(tr.fraction(p) for p in Primitive) - 1.0) < 1e-12

    def test_indirect_trace_dominated_by_spmv(self):
        prob = random_qp(2)
        res = solve(prob, variant="indirect", settings=TIGHT)
        ops = res.trace.by_operation
        assert ops["spmv_A"] > 0 and ops["spmv_At"] > 0 and ops["spmv_P"] > 0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            solve(random_qp(0), variant="magic")

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            Settings(alpha=2.5)
        with pytest.raises(ValueError):
            Settings(rho=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("check_interval", 0),
            ("check_interval", -5),
            ("adaptive_rho_interval", 0),
            ("max_iter", -1),
        ],
    )
    def test_cadence_that_would_crash_a_solve_rejected(self, field, value):
        """A zero cadence used to pass construction and then raise
        ZeroDivisionError inside ``solve()``."""
        with pytest.raises(ValueError, match=field):
            Settings(**{field: value})

    def test_no_scaling_still_solves(self):
        prob = random_qp(21)
        res = solve(prob, scale=False, settings=TIGHT)
        assert res.status is SolverStatus.SOLVED
        check_kkt(prob, res.x, res.y, res.z)

    def test_badly_scaled_problem_solves_with_scaling(self):
        p = CSCMatrix.from_dense(np.diag([1e5, 1e-3]))
        prob = QPProblem(
            p=p,
            q=np.array([1e3, -1e-2]),
            a=eye(2),
            l=np.array([-1.0, -100.0]),
            u=np.array([1.0, 100.0]),
        )
        res = solve(prob, settings=TIGHT)
        assert res.status is SolverStatus.SOLVED
        check_kkt(prob, res.x, res.y, res.z, tol=1e-2)

    def test_rho_adaptation_happens_on_hard_problem(self):
        # A problem engineered so the initial rho is far from balanced.
        prob = random_qp(33, n=10, m=20)
        res = solve(
            prob,
            settings=Settings(
                rho=1e-4, eps_abs=1e-7, eps_rel=1e-7, max_iter=20000
            ),
        )
        assert res.status is SolverStatus.SOLVED
        assert res.rho_updates >= 1


class TestProperties:
    @given(st.integers(0, 500))
    @hyp_settings(max_examples=15, deadline=None)
    def test_random_qps_solve_and_satisfy_kkt(self, seed):
        prob = random_qp(seed, n=6, m=9)
        res = solve(prob, settings=TIGHT)
        assert res.status is SolverStatus.SOLVED
        check_kkt(prob, res.x, res.y, res.z, tol=5e-3)
