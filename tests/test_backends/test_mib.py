"""Tests for the MIB compiled backend: compilation, cycle accounting,
and network-executed validation of the core kernels."""

from __future__ import annotations

import gc
import sys
import threading

import numpy as np
import pytest

from repro.backends import MIBSolver
from repro.problems import mpc_problem, portfolio_problem, svm_problem
from repro.solver import Settings, SolverStatus

FAST = Settings(eps_abs=1e-3, eps_rel=1e-3, max_iter=4000)


@pytest.fixture(scope="module")
def small_problem():
    return portfolio_problem(16)


@pytest.fixture(scope="module")
def direct_solver(small_problem):
    return MIBSolver(small_problem, variant="direct", c=16, settings=FAST)


@pytest.fixture(scope="module")
def indirect_solver(small_problem):
    return MIBSolver(small_problem, variant="indirect", c=16, settings=FAST)


class TestCompilation:
    def test_direct_kernel_set(self, direct_solver):
        for name in ("factor", "kkt_solve", "admm_vector", "residuals"):
            assert name in direct_solver.kernels

    def test_indirect_kernel_set(self, indirect_solver):
        for name in ("apply_s", "cg_vector", "admm_vector", "residuals"):
            assert name in indirect_solver.kernels

    def test_kernel_cycles_positive(self, direct_solver):
        for name, sched in direct_solver.kernels.schedules.items():
            assert sched.cycles > 0, name

    def test_compile_time_recorded(self, direct_solver):
        assert direct_solver.compile_seconds > 0

    def test_compilation_is_pattern_specific(self):
        """Same pattern (different values) compiles to identical
        schedules — the paper's amortization argument."""
        s0 = MIBSolver(portfolio_problem(16, seed=0), c=16, settings=FAST)
        s1 = MIBSolver(portfolio_problem(16, seed=7), c=16, settings=FAST)
        for name in s0.kernels.schedules:
            assert (
                s0.kernels.cycles(name) == s1.kernels.cycles(name)
            ), name

    def test_concurrent_compiles_leave_the_collector_as_found(
        self, small_problem
    ):
        """The compile pauses the cyclic collector without a lock; any
        interleaving of compiles must hand it back enabled — and a
        caller that had it disabled must get it back disabled."""
        errors = []

        def compile_one():
            try:
                for seed in range(3):
                    MIBSolver(portfolio_problem(16, seed=seed), c=8, settings=FAST)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert gc.isenabled()
            threads = [threading.Thread(target=compile_one) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert gc.isenabled()
            gc.disable()
            MIBSolver(small_problem, c=8, settings=FAST)
            assert not gc.isenabled()
        finally:
            gc.enable()
            sys.setswitchinterval(interval)

    def test_clock_depends_on_width(self, small_problem):
        s16 = MIBSolver(small_problem, c=16, settings=FAST)
        s32 = MIBSolver(small_problem, c=32, settings=FAST)
        assert s16.clock_hz > s32.clock_hz


class TestSolve:
    def test_direct_solves(self, direct_solver):
        report = direct_solver.solve()
        assert report.result.status is SolverStatus.SOLVED
        assert report.cycles > 0
        assert report.runtime_seconds > report.transfer_seconds

    def test_indirect_solves(self, small_problem):
        solver = MIBSolver(
            small_problem, variant="indirect", c=16, settings=FAST
        )
        report = solver.solve()
        assert report.result.status is SolverStatus.SOLVED
        assert report.kernel_invocations["apply_s"] > 0

    def test_cycle_accounting_composition(self, small_problem):
        solver = MIBSolver(small_problem, variant="direct", c=16, settings=FAST)
        report = solver.solve()
        iters = report.result.iterations
        expected = solver.data_load_cycles()
        expected += iters * solver.kernels.cycles("admm_vector")
        expected += iters * solver.kernels.cycles("kkt_solve")
        expected += (
            1 + report.result.rho_updates
        ) * solver.kernels.cycles("factor")
        checks = iters // FAST.check_interval + 1
        expected += checks * solver.kernels.cycles("residuals")
        assert report.cycles == expected

    def test_runtime_is_deterministic(self, small_problem):
        reports = [
            MIBSolver(small_problem, variant="direct", c=16, settings=FAST).solve()
            for _ in range(2)
        ]
        assert reports[0].cycles == reports[1].cycles
        assert reports[0].runtime_seconds == reports[1].runtime_seconds

    def test_matches_reference_solution(self, small_problem):
        # A fresh backend runs the identical algorithm from the same
        # initial state; the objective must match the reference exactly.
        report = MIBSolver(
            small_problem, variant="direct", c=16, settings=FAST
        ).solve()
        from repro.solver import solve as ref_solve

        ref = ref_solve(small_problem, variant="direct", settings=FAST)
        assert report.result.objective == pytest.approx(ref.objective, rel=1e-9)


class TestNetworkValidation:
    def test_kkt_solve_on_network(self, direct_solver):
        dim = direct_solver._kkt_dim
        rhs = np.random.default_rng(3).standard_normal(dim)
        x_net = direct_solver.solve_kkt_on_network(rhs)
        x_ref = direct_solver.reference.kkt_solver.solve(rhs)
        np.testing.assert_allclose(x_net, x_ref, atol=1e-9)

    def test_apply_s_on_network(self, indirect_solver, small_problem):
        v = np.random.default_rng(4).standard_normal(small_problem.n)
        sv_net = indirect_solver.apply_s_on_network(v)
        sv_ref = indirect_solver.reference.kkt_solver.apply_s(v)
        np.testing.assert_allclose(sv_net, sv_ref, atol=1e-9)

    def test_kkt_network_path_rejects_wrong_variant(self, indirect_solver):
        with pytest.raises(ValueError):
            indirect_solver.solve_kkt_on_network(np.zeros(3))

    def test_apply_s_rejects_wrong_variant(self, direct_solver):
        with pytest.raises(ValueError):
            direct_solver.apply_s_on_network(np.zeros(3))

    @pytest.mark.parametrize(
        "factory", [lambda: mpc_problem(3, horizon=4), lambda: svm_problem(5, n_samples=12)]
    )
    def test_kkt_network_solve_other_domains(self, factory):
        prob = factory()
        solver = MIBSolver(prob, variant="direct", c=16, settings=FAST)
        rhs = np.random.default_rng(0).standard_normal(solver._kkt_dim)
        np.testing.assert_allclose(
            solver.solve_kkt_on_network(rhs),
            solver.reference.kkt_solver.solve(rhs),
            atol=1e-8,
        )


class TestSchedulingAblation:
    def test_multi_issue_reduces_solve_cycles(self, small_problem):
        base = MIBSolver(
            small_problem, c=16, settings=FAST, multi_issue=False, prefetch=False
        )
        packed = MIBSolver(small_problem, c=16, settings=FAST)
        assert packed.iteration_cycles() < base.iteration_cycles()

    def test_wider_network_fewer_cycles(self):
        prob = svm_problem(12, n_samples=48)
        c16 = MIBSolver(prob, c=16, settings=FAST)
        c32 = MIBSolver(prob, c=32, settings=FAST)
        assert c32.iteration_cycles() <= c16.iteration_cycles()
