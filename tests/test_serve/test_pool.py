"""Tests for the warm solver pool: hit/miss economics, LRU eviction,
fingerprint stability, thread-safety under concurrent misses, and the
delta bind an anonymous rebind takes when only vectors moved."""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from repro.backends.mib import MIBSolver
from repro.compiler import ScheduleCache
from repro.problems import huber_problem, lasso_problem, portfolio_problem
from repro.serve import SolverPool
from repro.solver import QPProblem, Settings
from tests.test_backends.test_solve_batch import perturbed_full
from tests.test_serve.test_batch_serve import assert_same_solve

FAST = Settings(eps_abs=1e-3, eps_rel=1e-3, max_iter=4000)
# A responsive check interval, so ρ adapts inside short solves.
ADAPTIVE = Settings(eps_abs=1e-3, eps_rel=1e-3, max_iter=2000, check_interval=5)


def _pool(**kwargs) -> SolverPool:
    kwargs.setdefault("settings", FAST)
    kwargs.setdefault("c", 8)
    return SolverPool(**kwargs)


class TestConfiguration:
    """Every endpoint runs the host reference, so the pool has no
    execution mode or array backend to choose: both knobs are gone."""

    @pytest.mark.parametrize("execution", ["interpret", "Replay", "", None])
    def test_unserved_execution_mode_fails_at_construction(self, execution):
        with pytest.raises(TypeError, match="execution"):
            _pool(execution=execution)

    @pytest.mark.parametrize("execution", ["replay"])
    def test_served_execution_modes_construct(self, execution):
        with pytest.raises(TypeError, match="execution"):
            _pool(execution=execution)
        with pytest.raises(TypeError, match="array_backend"):
            _pool(array_backend="numpy")
        pool = _pool()
        assert not hasattr(pool, "execution")
        assert not hasattr(pool, "array_backend")


class TestFingerprint:
    def test_fingerprint_is_the_solver_cache_key(self, tmp_path):
        """The pool's scheduler options mirror ``MIBSolver``'s default
        (critical-path priority), so the key a request coalesces under
        is the key the solver itself caches under."""
        problem = portfolio_problem(10)
        pool = _pool()
        solver = MIBSolver(
            problem, c=8, settings=FAST, cache=ScheduleCache(tmp_path)
        )
        assert solver.options.priority == "critical_path"
        assert pool.fingerprint(problem) == solver.cache_key


class TestHitMiss:
    def test_first_solve_is_cold_second_is_warm(self):
        pool = _pool()
        cold = pool.solve(portfolio_problem(8, seed=0))
        assert not cold.warm
        assert not cold.cache_hit
        assert cold.compile_seconds > 0
        assert cold.report.result.solved

        warm = pool.solve(portfolio_problem(8, seed=1))
        assert warm.warm
        assert warm.cache_hit
        assert warm.compile_seconds == 0.0
        assert warm.report.result.solved
        assert warm.fingerprint == cold.fingerprint

        metrics = pool.metrics
        assert metrics.count("compile_count") == 1
        assert metrics.count("warm_solve_count") == 1
        assert metrics.count("pool_hits") == 1
        assert metrics.count("pool_misses") == 1

    def test_miss_accounts_for_the_whole_pool_call(self):
        """A first touch also lowers the iteration traces to count
        host crossings; that time is trace compilation and lands in
        ``compile_seconds``, so the two fields cover the call."""
        pool = _pool()
        for problem, sequence in (
            (lasso_problem(16, n_samples=64, seed=0), False),
            (portfolio_problem(24, seed=0), True),
        ):
            fingerprint = pool.fingerprint(problem)
            t0 = time.perf_counter()
            if sequence:
                (solved,) = pool.solve_sequence(
                    [problem], fingerprint=fingerprint
                )
            else:
                solved = pool.solve(problem, fingerprint=fingerprint)
            wall = time.perf_counter() - t0
            assert not solved.warm
            accounted = solved.compile_seconds + solved.solve_seconds
            assert accounted <= wall
            assert wall - accounted < 2e-3

    def test_warm_solve_matches_fresh_solve(self):
        """The rebind must not change the answer."""
        problem = portfolio_problem(8, seed=3)
        pool = _pool()
        pool.solve(portfolio_problem(8, seed=0))  # make the pattern resident
        warm = pool.solve(problem)
        fresh = _pool().solve(problem)
        # Iteration counts may differ (equilibration is computed on the
        # resident instance's values), but both must converge to the
        # same optimum within tolerance.
        assert warm.report.result.solved and fresh.report.result.solved
        assert warm.report.result.objective == pytest.approx(
            fresh.report.result.objective, rel=1e-4, abs=1e-6
        )

    def test_repeated_indirect_solve_prices_the_same(self):
        pool = SolverPool(variant="indirect", c=8)
        problem = huber_problem(10, n_samples=30)
        first, second = pool.solve(problem), pool.solve(problem)
        assert second.warm and second.delta_bind
        assert first.report.cycles == second.report.cycles

    def test_fingerprint_is_pattern_keyed(self):
        pool = _pool()
        same_a = pool.fingerprint(portfolio_problem(8, seed=0))
        same_b = pool.fingerprint(portfolio_problem(8, seed=9))
        other = pool.fingerprint(portfolio_problem(12, seed=0))
        assert same_a == same_b
        assert same_a != other

    def test_explicit_fingerprint_must_match(self):
        pool = _pool()
        with pytest.raises(RuntimeError):
            pool.solve(
                portfolio_problem(8, seed=0), fingerprint="not-a-real-key"
            )


class TestEviction:
    def test_lru_eviction_beyond_capacity(self):
        pool = _pool(capacity=1)
        pool.solve(portfolio_problem(8, seed=0))
        pool.solve(portfolio_problem(12, seed=0))  # evicts the 8-pattern
        assert len(pool) == 1
        assert pool.metrics.count("pool_evictions") == 1

    def test_evicted_pattern_readmits_from_cache_without_recompiling(self):
        """Eviction drops the warm solver, not the compiled artifact."""
        pool = _pool(capacity=1)
        pool.solve(portfolio_problem(8, seed=0))
        pool.solve(portfolio_problem(12, seed=0))
        readmitted = pool.solve(portfolio_problem(8, seed=1))
        assert not readmitted.warm  # the solver was rebuilt...
        assert readmitted.cache_hit  # ...from the schedule cache
        assert pool.metrics.count("compile_count") == 2  # only the two colds

    def test_most_recently_used_survives(self):
        pool = _pool(capacity=2)
        key8 = pool.solve(portfolio_problem(8, seed=0)).fingerprint
        pool.solve(portfolio_problem(12, seed=0))
        pool.solve(portfolio_problem(8, seed=1))  # touch the 8-pattern
        pool.solve(portfolio_problem(16, seed=0))  # evicts the 12-pattern
        assert key8 in pool.fingerprints()

    def test_admission_builds_nothing_and_moves_no_counter(self):
        """An admitted pattern holds a table slot but no solver: only
        a solve's lookup counts, and only a solver's eviction does."""
        pool = _pool(capacity=1)
        small, large = portfolio_problem(8, seed=0), portfolio_problem(12)
        keys = [pool.admit(small), pool.admit(large)]
        assert keys == [pool.fingerprint(small), pool.fingerprint(large)]
        assert pool.skeleton(keys[0]) is None  # evicted by the second
        assert pool.skeleton(keys[1]).a_shape == large.a.shape
        assert len(pool) == 0 and pool.fingerprints() == []
        counters = ("pool_hits", "pool_misses", "pool_evictions")
        assert [pool.metrics.count(c) for c in counters] == [0, 0, 0]
        pool.solve(large)  # builds the admitted entry's solver
        pool.admit(small)  # evicts it
        assert [pool.metrics.count(c) for c in counters] == [0, 1, 1]
        assert len(pool) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SolverPool(capacity=0)


class TestSharing:
    def test_shared_cache_spans_pools(self, tmp_path):
        """A second pool (fresh process in real life) finds the first
        pool's compiled artifact through the shared cache directory."""
        first = _pool(cache_dir=tmp_path)
        first.solve(portfolio_problem(8, seed=0))
        second = _pool(cache_dir=tmp_path)
        solve = second.solve(portfolio_problem(8, seed=1))
        assert not solve.warm
        assert solve.cache_hit
        assert second.metrics.count("compile_count") == 0

    def test_external_cache_instance(self):
        cache = ScheduleCache()
        pool = _pool(cache=cache)
        pool.solve(portfolio_problem(8, seed=0))
        assert cache.stats.stores == 1


class TestConcurrency:
    def test_concurrent_misses_compile_once(self):
        pool = _pool()
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        results, errors = [], []
        lock = threading.Lock()

        def worker(seed: int):
            try:
                barrier.wait()
                solve = pool.solve(portfolio_problem(8, seed=seed))
                with lock:
                    results.append(solve)
            except Exception as exc:  # pragma: no cover - failure detail
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)

        assert not errors
        assert len(results) == n_threads
        assert all(s.report.result.solved for s in results)
        # The per-key build lock: one construction, everyone else warm.
        assert pool.metrics.count("compile_count") == 1
        assert sum(not s.warm for s in results) == 1
        assert len(pool) == 1


def moved(base: QPProblem, seed: int, *families: str) -> QPProblem:
    """``base`` with only the named value families (of ``q l u a p``)
    perturbed; every other family is the very array ``base`` holds."""
    full = perturbed_full(base, seed, 1.0)
    return replace(base, **{name: getattr(full, name) for name in families})


def resident_kkt(pool: SolverPool, problem: QPProblem):
    return pool._entries[pool.fingerprint(problem)].solver.reference.kkt_solver


class TestDeltaBind:
    """An anonymous rebind whose ``P`` / ``A`` are bitwise the bound
    instance's skips the matrix rescale and the LDLᵀ refactorization.
    The oracle for every lane is a twin built from the first touch and
    driven by ``update_values`` + ``solve()`` over the same history:
    x / y / z bitwise, iterations, ρ updates, cycles and kernel counts
    equal.  A delta lane runs one numeric factorization per ρ update, a
    full lane one more."""

    @staticmethod
    def start() -> tuple[QPProblem, SolverPool, MIBSolver]:
        """A first touch of ``base``, on the pool and on the twin."""
        base = portfolio_problem(8, seed=0)
        pool = _pool(settings=ADAPTIVE)
        twin = MIBSolver(base, variant="direct", c=8, settings=ADAPTIVE)
        first = pool.solve(base)
        assert not first.delta_bind
        assert_same_solve(first.report, twin.solve())
        return base, pool, twin

    @staticmethod
    def lane(pool, twin, problem: QPProblem, *, session=None):
        """One ``pool.solve`` checked against the twin."""
        kkt = resident_kkt(pool, problem)
        before = kkt.num_factorizations
        solved = pool.solve(problem, session=session)
        twin.update_values(problem)
        if session is not None:  # a fresh session starts from settings.rho
            twin.bind_rho(ADAPTIVE.rho)
        assert_same_solve(solved.report, twin.solve())
        if session is None:
            binds = 0 if solved.delta_bind else 1
            assert kkt.num_factorizations - before == (
                binds + solved.report.result.rho_updates
            )
        return solved

    @pytest.mark.parametrize(
        "families", [("q",), ("l", "u")], ids=["q", "bounds"]
    )
    def test_vectors_only_stream_rides_the_delta_bind(self, families):
        base, pool, twin = self.start()
        lanes = [
            self.lane(pool, twin, moved(base, seed, *families))
            for seed in range(1, 7)
        ]
        assert [s.delta_bind for s in lanes] == [True] * 6
        assert pool.metrics.count("delta_binds") == 6

    def test_a_delta_lane_refactors_only_for_its_rho_updates(self):
        """``q`` across decades, so ρ re-adapts on delta lanes too: each
        such update is the lane's only refactorization."""
        base, pool, twin = self.start()
        lanes = [
            self.lane(pool, twin, replace(base, q=base.q * factor))
            for factor in (1.0, 10.0, 0.1, 30.0, 0.03, 3.0)
        ]
        assert [s.delta_bind for s in lanes] == [True] * 6
        assert sum(s.report.result.rho_updates for s in lanes[1:]) >= 2

    def test_changed_matrix_values_take_the_full_bind(self):
        base, pool, twin = self.start()
        stream = ["q", "q", "a", "q", "q", "p", "p", "q"]
        binds = [
            self.lane(pool, twin, moved(base, seed, family)).delta_bind
            for seed, family in enumerate(stream, start=1)
        ]
        # A moved, then back to base's A: two full binds; each new P:
        # a full bind; q after a moved P: full (P differs from base's).
        assert binds == [True, True, False, False, True, False, False, False]
        assert pool.metrics.count("delta_binds") == 3

    def test_first_rebind_after_construction_is_a_delta(self):
        """The very instance the solver was built from: construction
        scales it the way a rebind does, so its matrices are bitwise
        the bound ones from the start."""
        base, pool, twin = self.start()
        assert self.lane(pool, twin, base).delta_bind
        assert self.lane(pool, twin, base).delta_bind

    def test_anonymous_after_a_session_regime_change_is_full(self):
        base, pool, twin = self.start()
        assert self.lane(pool, twin, moved(base, 1, "q")).delta_bind
        assert self.lane(pool, twin, moved(base, 2, "q")).delta_bind
        # A session binds new matrix values to the shared solver...
        self.lane(pool, twin, moved(base, 3, "a", "q"), session="s")
        # ...so base's matrices are a change again for the next request.
        assert not self.lane(pool, twin, moved(base, 4, "q")).delta_bind
        assert self.lane(pool, twin, moved(base, 5, "q")).delta_bind
