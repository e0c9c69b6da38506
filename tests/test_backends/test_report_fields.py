"""Smaller backend contract tests: report fields, data-load pricing,
per-solve CG pricing, clock behaviour of the super-pipelined
configuration."""

from __future__ import annotations

import pytest

from repro.backends import MIBSolver
from repro.problems import huber_problem, portfolio_problem
from repro.solver import Settings

FAST = Settings(eps_abs=1e-3, eps_rel=1e-3)


@pytest.fixture(scope="module")
def solver():
    return MIBSolver(portfolio_problem(12), c=16, settings=FAST)


class TestReportFields:
    def test_solve_seconds_excludes_transfer(self, solver):
        report = solver.solve()
        assert report.solve_seconds == report.cycles / report.clock_hz
        assert report.runtime_seconds > report.solve_seconds

    def test_data_load_cycles_scale_with_nnz(self):
        small = MIBSolver(portfolio_problem(10), c=16, settings=FAST)
        large = MIBSolver(portfolio_problem(60), c=16, settings=FAST)
        assert large.data_load_cycles() > small.data_load_cycles()

    def test_kernel_invocations_reported(self, solver):
        report = solver.solve()
        assert report.kernel_invocations["kkt_solve"] == report.result.iterations
        assert report.kernel_invocations["factor"] == 1 + report.result.rho_updates


class TestIndirectPricing:
    def test_repeated_solve_is_billed_only_its_own_cg_work(self):
        """The PCG counters run over the solver's life; each solve is
        priced from its own share, so identical solves cost the same."""
        problem = huber_problem(10, n_samples=30)
        solver = MIBSolver(problem, variant="indirect", c=8)
        first, second = solver.solve(), solver.solve()
        assert first.result.iterations == second.result.iterations
        assert first.kernel_invocations == second.kernel_invocations
        assert first.cycles == second.cycles


class TestSuperPipelined:
    def test_clock_gain_and_latency(self):
        base = MIBSolver(portfolio_problem(12), c=16, settings=FAST)
        deep = MIBSolver(
            portfolio_problem(12), c=16, settings=FAST, super_pipelined=True
        )
        assert deep.clock_hz == pytest.approx(base.clock_hz * 1.4)
        # Deeper pipeline -> every kernel at least as many cycles.
        for name in base.kernels.schedules:
            assert deep.kernels.cycles(name) >= base.kernels.cycles(name)

    def test_super_pipelined_still_correct(self):
        import numpy as np

        deep = MIBSolver(
            portfolio_problem(10), c=16, settings=FAST, super_pipelined=True
        )
        rhs = np.random.default_rng(0).standard_normal(deep._kkt_dim)
        # Functional execution honours the longer latency.
        from repro.arch import NetworkSimulator, StreamBuffers

        kkt = deep.reference.kkt_solver
        sim = NetworkSimulator(
            deep.c, depth=1 << 24, extra_latency=deep.options.extra_latency
        )
        streams = StreamBuffers()
        streams.bind("K", kkt._permuted_upper.data)
        sim.rf.load_vector(deep.builder.alloc.get("kkt_b"), rhs)
        sim.run(deep.kernels.schedules["factor"].slots, streams)
        sym = kkt.symbolic
        streams.bind(
            "L", np.array([sim.lbuf.get(p, 0.0) for p in range(sym.l_nnz)])
        )
        streams.bind(
            "Dinv", sim.rf.read_vector(deep.builder.alloc.get("factor_dinv"))
        )
        sim.run(deep.kernels.schedules["kkt_solve"].slots, streams)
        x_net = sim.rf.read_vector(deep.builder.alloc.get("kkt_b"))
        np.testing.assert_allclose(x_net, kkt.solve(rhs), atol=1e-9)
