"""Tests for the serve tier's session machinery.

Three layers: the :class:`SessionStore` (TTL + LRU lifecycle, driven
with an injected clock), the :class:`SolverPool` session paths (sticky
warm start, stream sequencing, same-key serialization), and the HTTP
surface (``/v1/sequence``, ``/v1/scenarios``, session-keyed
``/v1/solve``) over a real socket.
"""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.backends import MIBSolver
from repro.backends.session import SolveSession
from repro.problems import lasso_problem, portfolio_problem
from repro.serve import ServeClient, ServeServer, SolverPool
from repro.serve.session import SessionStore
from repro.solver import QPProblem, Settings

FAST = Settings(eps_abs=1e-3, eps_rel=1e-3, max_iter=4000)


def q_stream(n_steps: int = 4) -> list:
    """A vectors-only parametric stream (λ path on one pattern)."""
    fractions = np.geomspace(0.9, 0.1, n_steps)
    return [
        lasso_problem(10, n_samples=30, lam_fraction=float(f), seed=0)
        for f in fractions
    ]


def _pool(**kwargs) -> SolverPool:
    kwargs.setdefault("settings", FAST)
    kwargs.setdefault("c", 8)
    kwargs.setdefault("capacity", 4)
    return SolverPool(**kwargs)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSessionStoreLifecycle:
    def test_ttl_eviction_under_churn(self):
        """Idle sessions expire lazily while fresh churn keeps coming."""
        clock = FakeClock()
        store = SessionStore(capacity=64, ttl_s=10.0, time_fn=clock)
        for wave in range(8):
            for i in range(4):
                store.acquire(f"w{wave}-k{i}", "fp")
            clock.advance(4.0)
        # Waves 0-4 aged out during wave 7's lazy sweep (ages 12-28s
        # at t=28); waves 5-7 are inside the ttl and survive.
        assert len(store) == 12
        assert store.metrics.snapshot()["counters"]["session_evictions"] == 20
        # Total inactivity clears the rest on the next sweep.
        clock.advance(11.0)
        assert store.sweep() == 12
        assert len(store) == 0

    def test_in_flight_session_survives_ttl_sweep(self):
        clock = FakeClock()
        store = SessionStore(capacity=8, ttl_s=5.0, time_fn=clock)
        busy = store.acquire("busy", "fp")
        store.acquire("idle", "fp")
        with busy.lock:  # an in-flight solve is not idle
            clock.advance(6.0)
            assert store.sweep() == 1
        assert len(store) == 1
        # Released and touched, it ages out normally.
        store.touch("busy")
        clock.advance(6.0)
        assert store.sweep() == 1

    def test_capacity_eviction_is_lru(self):
        store = SessionStore(capacity=2, ttl_s=1000.0, time_fn=FakeClock())
        store.acquire("a", "fp")
        store.acquire("b", "fp")
        store.acquire("a", "fp")  # refresh a
        store.acquire("c", "fp")  # evicts b
        assert len(store) == 2
        state = store.acquire("b", "fp")
        assert state.session.steps == 0  # b came back fresh

    def test_new_key_never_evicts_itself(self):
        """With every older state in flight, a new key is handed out
        over capacity; the next sweep trims it once the lock drops."""
        store = SessionStore(capacity=1, ttl_s=1000.0, time_fn=FakeClock())
        busy = store.acquire("A", "fp")
        with busy.lock:
            fresh = store.acquire("B", "fp")
            assert fresh.key == "B" and len(store) == 2
            with fresh.lock:  # both in flight: nothing to trim
                assert store.sweep() == 0
        counters = store.metrics.snapshot()["counters"]
        assert counters.get("session_evictions", 0) == 0
        assert store.sweep() == 1
        assert len(store) == 1
        assert store.metrics.snapshot()["counters"]["session_evictions"] == 1
        # "A" was the least recently used idle state; "B" stays.
        assert store.acquire("B", "fp") is fresh

    def test_fingerprint_change_resets_the_session(self):
        store = SessionStore(capacity=8, ttl_s=1000.0, time_fn=FakeClock())
        first = store.acquire("k", "fp-one")
        first.session.steps = 3
        again = store.acquire("k", "fp-two")
        assert again is not first and again.session.steps == 0
        counters = store.metrics.snapshot()["counters"]
        assert counters["session_resets"] == 1

    def test_snapshot_aggregates_step_counters(self):
        store = SessionStore(capacity=8, ttl_s=1000.0, time_fn=FakeClock())
        state = store.acquire("k", "fp")
        state.session.steps, state.session.delta_binds = 5, 4
        snap = store.snapshot()
        assert snap["active"] == 1
        assert snap["steps_total"] == 5
        assert snap["delta_binds_total"] == 4


class TestPoolSessions:
    def test_sticky_session_warm_starts_on_solo_solves(self):
        pool = _pool()
        steps = q_stream(3)
        first = pool.solve(steps[0], session="s")
        assert not first.delta_bind
        second = pool.solve(steps[1], session="s")
        assert second.delta_bind and second.session_key == "s"
        # The carried iterate pays off where an anonymous cold solve
        # cannot: strictly fewer iterations on the close-by instance.
        cold = _pool().solve(steps[1])
        assert (
            second.report.result.iterations
            <= cold.report.result.iterations
        )

    def test_sequence_matches_sticky_solo_steps_bitwise(self):
        """One sequence == the same steps fed one request at a time."""
        steps = q_stream(4)
        seq = _pool().solve_sequence(steps, session="s")
        solo_pool = _pool()
        solo = [solo_pool.solve(p, session="s") for p in steps]
        for a, b in zip(seq, solo):
            assert np.array_equal(
                a.report.result.x, b.report.result.x
            )
            assert np.array_equal(
                a.report.result.y, b.report.result.y
            )
            assert a.delta_bind == b.delta_bind

    def test_concurrent_same_key_requests_serialize(self):
        """N racing requests on one session key never interleave."""
        pool = _pool()
        steps = q_stream(2)
        pool.solve_sequence(steps[:1], session="s")  # pin + warm
        errors: list[Exception] = []

        def worker():
            try:
                solves = pool.solve_sequence(steps, session="s")
                assert len(solves) == len(steps)
                assert all(s.report.result.solved for s in solves)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        state = pool.sessions.acquire("s", seq_fingerprint(pool, steps[0]))
        assert state.session.steps == 1 + 6 * len(steps)
        counters = pool.metrics.snapshot()["counters"]
        assert counters["session_solves"] == 1 + 6 * len(steps)


    def test_session_survives_its_patterns_eviction(self):
        """DESIGN.md §5.8 across a rebuilt solver: the step after the
        pattern's eviction is still the warm delta continuation, bitwise
        the twin's solve from the carried ``(x, y, ρ)``."""
        steps = q_stream(2)
        pool = _pool(capacity=1)
        first = pool.solve(steps[0], session="s")
        # Step 0 is a fresh session's cold step; replay it for its ρ.
        oracle = SolveSession(MIBSolver(steps[0], c=8, settings=FAST))
        oracle.step(steps[0])
        assert np.array_equal(oracle.x, first.report.result.x)
        pool.solve(portfolio_problem(10))  # the one slot: evicts A
        assert pool.fingerprints() == [pool.fingerprint(portfolio_problem(10))]

        second = pool.solve(steps[1], session="s")
        assert not second.warm  # the pool rebuilt the solver...
        assert second.delta_bind  # ...and the stream continued on it
        twin = MIBSolver(steps[1], c=8, settings=FAST)
        twin.bind_instance(steps[1], rho0=oracle.rho)
        ref = twin.solve(x0=first.report.result.x, y0=first.report.result.y)
        assert np.array_equal(second.report.result.x, ref.result.x)
        assert np.array_equal(second.report.result.y, ref.result.y)
        assert second.report.result.iterations == ref.result.iterations

    def test_evicted_solver_is_freed_while_its_session_lives(self):
        """A stored session holds its pattern's solver only while it
        steps: eviction frees the solver, not just the pool's slot."""
        steps = q_stream(1)
        pool = _pool(capacity=1)
        pool.solve(steps[0], session="s")
        solver = weakref.ref(pool._entries[pool.fingerprint(steps[0])].solver)
        pool.solve(portfolio_problem(10))  # evicts the session's pattern
        gc.collect()
        assert solver() is None
        assert len(pool.sessions) == 1  # the session itself lives on


def seq_fingerprint(pool: SolverPool, problem: QPProblem) -> str:
    return pool.fingerprint(problem)


@pytest.mark.serve_e2e
@pytest.mark.stream
class TestStreamingEndpoints:
    @pytest.fixture(scope="class")
    def server(self):
        with ServeServer(
            port=0,
            workers=2,
            c=8,
            settings=FAST,
            capacity=4,
            session_ttl_s=60.0,
        ) as srv:
            yield srv

    @pytest.fixture(scope="class")
    def client(self, server):
        return ServeClient(port=server.port)

    def test_sequence_endpoint_rides_the_delta_bind(self, client):
        steps = q_stream(4)
        response = client.sequence(
            steps[0], steps, session="e2e-seq", timeout_s=60.0
        )
        assert response.ok
        assert len(response.results) == len(steps)
        assert all(b["solved"] for b in response.steps)
        assert response.delta_binds == len(steps) - 1
        assert all(b["warm"] for b in response.steps[1:])

    def test_session_key_sticks_across_solo_requests(self, client):
        steps = q_stream(3)
        first = client.solve(steps[0], session="e2e-solo", timeout_s=60.0)
        assert first.ok and first.solved
        assert first.raw["session"] == "e2e-solo"
        second = client.solve(steps[1], session="e2e-solo", timeout_s=60.0)
        assert second.ok and second.solved
        assert second.raw["delta_bind"] is True

    def test_scenarios_endpoint_fans_onto_batch_lanes(self, client):
        base = portfolio_problem(8, seed=0)
        rng = np.random.default_rng(3)
        variants = [
            QPProblem(
                p=base.p,
                q=base.q * (1.0 + 0.05 * rng.standard_normal(base.n)),
                a=base.a,
                l=base.l,
                u=base.u,
                name=base.name,
            )
            for _ in range(5)
        ]
        response = client.scenarios(base, variants, timeout_s=60.0)
        assert response.ok
        assert len(response.results) == len(variants)
        for variant, result in zip(variants, response.results):
            assert result.solved
        counters = client.metrics()["counters"]
        assert counters["scenario_requests"] >= 1
        assert counters["scenario_lanes"] >= len(variants)

    def test_metrics_expose_the_session_block(self, client):
        sessions = client.metrics()["sessions"]
        assert sessions["active"] >= 1
        assert sessions["ttl_s"] == 60.0
        assert sessions["steps_total"] >= 1
