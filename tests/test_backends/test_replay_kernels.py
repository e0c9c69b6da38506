"""Replay-mode kernels must be bit-identical to the interpretive mode.

Every simulator-executed entry point of :class:`MIBSolver` is run twice
— ``execution="interpret"`` (the oracle) and ``execution="replay"``
(trace-compiled) — and the results compared exactly, not to tolerance.
Also covers the amortization contract: traces survive
:meth:`update_values`, and a cache-restored solver hazard-checks every
schedule it lowers, whatever the artifact says about it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backends.mib import MIBSolver
from repro.compiler import ScheduleCache
from repro.problems import mpc_problem
from repro.solver import Settings

C = 8


@pytest.fixture(scope="module")
def problem():
    return mpc_problem(2, horizon=3, seed=5)


@pytest.fixture(scope="module")
def settings():
    return Settings(max_iter=30, check_interval=10, adaptive_rho=True)


@pytest.fixture(scope="module")
def direct_pair(problem, settings):
    return (
        MIBSolver(problem, variant="direct", c=C, settings=settings,
                  execution="interpret"),
        MIBSolver(problem, variant="direct", c=C, settings=settings,
                  execution="replay"),
    )


@pytest.fixture(scope="module")
def indirect_pair(problem, settings):
    return (
        MIBSolver(problem, variant="indirect", c=C, settings=settings,
                  execution="interpret"),
        MIBSolver(problem, variant="indirect", c=C, settings=settings,
                  execution="replay"),
    )


def report_key(r):
    """Every field of a network solve report, exactly."""
    return (
        r.status,
        r.iterations,
        r.cycles,
        r.rho_updates,
        r.x.tobytes(),
        r.z.tobytes(),
        r.y.tobytes(),
        r.primal_residual,
        r.dual_residual,
        r.objective,
    )


class TestExecutionModeEquivalence:
    def test_execution_argument_validated(self, problem):
        with pytest.raises(ValueError, match="execution"):
            MIBSolver(problem, variant="direct", c=C, execution="jit")

    def test_fused_mode_is_gone(self, problem):
        """Two modes remain; the error names both."""
        with pytest.raises(ValueError) as exc:
            MIBSolver(problem, variant="direct", c=C, execution="fused")
        assert "'replay' or 'interpret'" in str(exc.value)

    def test_solve_on_network_bit_identical(self, direct_pair):
        interp, replay = direct_pair
        r_int = interp.solve_on_network(max_iter=8)
        r_rep = replay.solve_on_network(max_iter=8)
        assert report_key(r_int) == report_key(r_rep)

    def test_replay_is_deterministic_across_calls(self, direct_pair):
        _, replay = direct_pair
        a = replay.solve_on_network(max_iter=6)
        b = replay.solve_on_network(max_iter=6)
        assert report_key(a) == report_key(b)

    def test_solve_kkt_on_network_bit_identical(self, direct_pair):
        interp, replay = direct_pair
        rhs = np.random.default_rng(0).standard_normal(interp._kkt_dim)
        assert np.array_equal(
            interp.solve_kkt_on_network(rhs.copy()),
            replay.solve_kkt_on_network(rhs.copy()),
        )

    def test_admm_vector_kernel_bit_identical(self, direct_pair, problem):
        interp, replay = direct_pair
        rng = np.random.default_rng(1)
        n, m = problem.n, problem.m
        args = (
            rng.standard_normal(n),
            rng.standard_normal(n),
            rng.standard_normal(m),
            rng.standard_normal(m),
            rng.standard_normal(m),
        )
        out_i = interp.run_admm_vector_on_network(*args)
        out_r = replay.run_admm_vector_on_network(*args)
        assert set(out_i) == set(out_r)
        for key in out_i:
            assert np.array_equal(out_i[key], out_r[key]), key

    def test_apply_s_bit_identical(self, indirect_pair, problem):
        interp, replay = indirect_pair
        v = np.random.default_rng(2).standard_normal(problem.n)
        assert np.array_equal(
            interp.apply_s_on_network(v), replay.apply_s_on_network(v)
        )

    def test_solve_reduced_bit_identical(self, indirect_pair, problem):
        interp, replay = indirect_pair
        b = np.random.default_rng(3).standard_normal(problem.n)
        x_i, it_i = interp.solve_reduced_on_network(b)
        x_r, it_r = replay.solve_reduced_on_network(b)
        assert it_i == it_r
        assert np.array_equal(x_i, x_r)


class TestScratchReuse:
    def test_repeated_replays_reuse_one_buffer_set(self):
        """Repeated replays of one trace reuse its coeff/state/values
        buffers and stay correct, HBM stores included."""
        from repro.arch import NetworkSimulator, StreamBuffers, compile_trace
        from repro.compiler import (
            KernelBuilder,
            NetworkProgram,
            schedule_program,
        )

        kb = KernelBuilder(4)
        x = kb.vector("x", 6)
        y = kb.vector("y", 6)
        ops = kb.ew_add(y, x, x) + kb.store_vector(y, hbm_base=10)
        schedule = schedule_program(NetworkProgram("iso", ops), 4)
        depth = NetworkSimulator(4).rf.depth
        trace = compile_trace(schedule.slots, c=4, depth=depth, name="iso")

        seen = set()
        for scale in (1.0, 3.0, -0.5):
            sim = NetworkSimulator(4)
            values = scale * np.arange(6, dtype=np.float64)
            sim.rf.load_vector(x, values)
            trace.replay(sim, StreamBuffers())
            assert np.array_equal(sim.rf.read_vector(y), 2.0 * values)
            assert sim.hbm_out == {
                10 + i: 2.0 * v for i, v in enumerate(values)
            }
            seen.add(tuple(map(id, trace._buffers)))
        assert len(seen) == 1


class TestAmortization:
    def test_shared_simulator_reused(self, direct_pair):
        _, replay = direct_pair
        replay.solve_on_network(max_iter=2)
        sim = replay._sim
        assert sim is not None
        replay.solve_on_network(max_iter=2)
        assert replay._sim is sim

    def test_update_values_reuses_traces(self, settings):
        interp = MIBSolver(
            mpc_problem(2, horizon=3, seed=5), variant="direct", c=C,
            settings=settings, execution="interpret",
        )
        replay = MIBSolver(
            mpc_problem(2, horizon=3, seed=5), variant="direct", c=C,
            settings=settings, execution="replay",
        )
        replay.solve_on_network(max_iter=4)
        trace_ids = {k: id(v) for k, v in replay._traces.items()}
        # Same pattern, new values: traces must survive untouched.
        fresh = mpc_problem(2, horizon=3, seed=11)
        interp.update_values(fresh)
        replay.update_values(fresh)
        r_int = interp.solve_on_network(max_iter=4)
        r_rep = replay.solve_on_network(max_iter=4)
        assert report_key(r_int) == report_key(r_rep)
        assert trace_ids == {k: id(v) for k, v in replay._traces.items()}

    def test_compile_traces_eagerly(self, problem, settings):
        solver = MIBSolver(
            problem, variant="direct", c=C, settings=settings,
            execution="replay",
        )
        assert solver.compile_traces() is None
        assert set(solver._traces) == set(solver.kernels.schedules)
        for name, trace in solver._traces.items():
            assert (trace.name, trace.c) == (name, C)

    def test_cache_round_trip_matches_cold(
        self, problem, settings, tmp_path
    ):
        cache = ScheduleCache(tmp_path)
        cold = MIBSolver(
            problem, variant="direct", c=C, settings=settings, cache=cache,
            execution="replay",
        )
        assert not cold.cache_hit
        r_cold = cold.solve_on_network(max_iter=5)

        warm = MIBSolver(
            problem, variant="direct", c=C, settings=settings,
            cache=ScheduleCache(tmp_path), execution="replay",
        )
        assert warm.cache_hit
        r_warm = warm.solve_on_network(max_iter=5)
        assert report_key(r_cold) == report_key(r_warm)

    def test_forged_stamp_on_hazardous_file_misses(
        self, problem, settings, tmp_path
    ):
        """A cache file whose ``kkt_solve`` lost its stall slots passes
        the structural check but races its own writes.  The load runs
        the lowering's hazard analysis however loudly the file vouches
        for the trace (a ``traces`` map of "validated" stamps, as older
        code wrote), so it is a load error and a recompile, and the
        network solve answers as the cold one."""
        cache = ScheduleCache(tmp_path)
        cold = MIBSolver(
            problem, variant="direct", c=C, settings=settings, cache=cache,
            execution="replay",
        )
        cold.solve_on_network(max_iter=2)
        path = cache.path_for(cold.cache_key)
        raw = json.loads(path.read_text())
        kkt = raw["schedules"]["kkt_solve"]
        kkt["slots"] = [b for b in kkt["slots"] if b]
        raw["traces"] = {
            "kkt_solve": {
                "validated": True, "c": C, "depth": 1 << 24,
                "extra_latency": 0,
                "stats": {
                    "cycles": len(kkt["slots"]), "latency": 0,
                    "instructions": kkt["n_ops"],
                    "bundles": len(kkt["slots"]),
                },
            }
        }
        path.write_text(json.dumps(raw))

        warm_cache = ScheduleCache(tmp_path)
        warm = MIBSolver(
            problem, variant="direct", c=C, settings=settings,
            cache=warm_cache, execution="replay",
        )
        assert not warm.cache_hit
        assert warm_cache.stats.disk_errors == 1
        fresh = MIBSolver(
            problem, variant="direct", c=C, settings=settings,
            execution="replay",
        )
        assert report_key(warm.solve_on_network(max_iter=5)) == report_key(
            fresh.solve_on_network(max_iter=5)
        )
