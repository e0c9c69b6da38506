"""Correctness tests for the pattern-keyed compilation cache.

Covers the load-or-recompile contract end to end: warm constructions
must skip scheduling entirely (proved by stubbing the scheduler out),
cached and fresh solvers must agree bit for bit, any on-disk corruption
must degrade to a silent recompile, and equal-shape patterns with
different structure must never share a key.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

import repro.backends.mib as mib_mod
from repro.backends.mib import MIBSolver
from repro.compiler import (
    CompiledArtifact,
    ScheduleCache,
    ScheduleOptions,
    pattern_fingerprint,
)
from repro.linalg import CSCMatrix
from repro.problems import mpc_problem
from repro.problems.suite import _GENERATORS
from repro.serve import SolverPool
from repro.solver import Settings

C = 16
SETTINGS = Settings(eps_abs=1e-3, eps_rel=1e-3)


def _problem(dim: int = 10):
    return _GENERATORS["portfolio"](dim, 0)


def _solver(problem, cache, variant="direct"):
    return MIBSolver(
        problem, variant=variant, c=C, settings=SETTINGS, cache=cache
    )


def _no_schedule(*args, **kwargs):  # pragma: no cover - must not run
    raise AssertionError("schedule_program called on a warm cache path")


class TestWarmPath:
    def test_cold_construction_misses_and_stores(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        solver = _solver(_problem(), cache)
        assert not solver.cache_hit
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.path_for(solver.cache_key).exists()

    @pytest.mark.parametrize("variant", ["direct", "indirect"])
    def test_warm_construction_skips_scheduling(
        self, tmp_path, monkeypatch, variant
    ):
        cache = ScheduleCache(tmp_path)
        problem = _problem()
        cold = _solver(problem, cache, variant)
        monkeypatch.setattr(mib_mod, "schedule_program", _no_schedule)
        warm = _solver(problem, cache, variant)
        assert warm.cache_hit
        assert cache.stats.hits == 1
        assert cache.stats.memory_hits == 1
        assert warm.kernels.schedules.keys() == cold.kernels.schedules.keys()

    @pytest.mark.parametrize("variant", ["direct", "indirect"])
    def test_cached_solve_bit_identical(self, tmp_path, variant):
        cache = ScheduleCache(tmp_path)
        problem = _problem()
        cold = _solver(problem, cache, variant).solve()
        warm = _solver(problem, cache, variant).solve()
        assert np.array_equal(cold.result.x, warm.result.x)
        assert np.array_equal(cold.result.y, warm.result.y)
        assert cold.result.iterations == warm.result.iterations
        assert cold.cycles == warm.cycles

    def test_fresh_cache_hits_from_disk(self, tmp_path, monkeypatch):
        problem = _problem()
        cold = _solver(problem, ScheduleCache(tmp_path), "direct").solve()
        # A brand-new cache on the same directory (fresh process in the
        # parallel driver) must restore without scheduling.
        cache2 = ScheduleCache(tmp_path)
        monkeypatch.setattr(mib_mod, "schedule_program", _no_schedule)
        warm = _solver(problem, cache2, "direct")
        assert warm.cache_hit
        assert cache2.stats.disk_hits == 1
        assert warm.solve().cycles == cold.cycles

    def test_v3_directory_is_never_served(self, tmp_path):
        """v4 lowers the factorization over one scratch accumulator per
        lane, so a v3 file's ``factor`` schedule prices a different
        kernel; v5 schedules run to the end of their last op (and
        critical-path order is the default), so a v4 file's schedules
        can be a slot short.  The version enters the pattern
        fingerprint, so an old directory is never looked up; an old
        artifact found under the current key is a load error, and either
        way the warm solver prices exactly what a cold one does."""
        problem = _problem()
        cold = _solver(problem, ScheduleCache(tmp_path))
        # The keys this pattern had under v3 and v4 (recorded from that
        # code).
        v3_key = (
            "1da585728ed6a21cbdb1b5bc853a87c70b222303f9dcaf3570ce33f18870c528"
        )
        v4_key = (
            "b95fcdb9711c78c36ad8ad60f348a257ede9869b51137f4652f8a3514ca76823"
        )
        assert cold.cache_key not in (v3_key, v4_key)
        path = ScheduleCache(tmp_path).path_for(cold.cache_key)
        raw = json.loads(path.read_text())
        assert raw["cache_format_version"] == 5
        v3 = dict(raw, cache_format_version=3)
        path.with_name(f"{v3_key}.mibc").write_text(
            json.dumps(dict(v3, key=v3_key))
        )
        path.write_text(json.dumps(v3))

        cache = ScheduleCache(tmp_path)
        warm = _solver(problem, cache)
        assert not warm.cache_hit
        assert cache.stats.disk_errors == 1
        assert warm.solve().cycles == cold.solve().cycles


class TestCorruptionSafety:
    def _stored_path(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        solver = _solver(_problem(), cache)
        return cache.path_for(solver.cache_key)

    def _expect_recompile(self, tmp_path):
        cache = ScheduleCache(tmp_path)
        solver = _solver(_problem(), cache)
        assert not solver.cache_hit
        assert cache.stats.disk_errors == 1
        assert cache.stats.misses == 1
        result = solver.solve().result
        assert result.status.value == "solved"
        return cache

    def test_version_mismatch_silently_recompiles(self, tmp_path):
        path = self._stored_path(tmp_path)
        raw = json.loads(path.read_text())
        raw["cache_format_version"] = 999
        path.write_text(json.dumps(raw))
        self._expect_recompile(tmp_path)

    def test_truncated_file_silently_recompiles(self, tmp_path):
        path = self._stored_path(tmp_path)
        path.write_text(path.read_text()[:100])
        self._expect_recompile(tmp_path)

    def test_garbage_file_silently_recompiles(self, tmp_path):
        path = self._stored_path(tmp_path)
        path.write_text("this is not an executable")
        self._expect_recompile(tmp_path)

    def test_tampered_schedule_fails_validation_and_recompiles(self, tmp_path):
        # Valid JSON, valid container version — but one schedule now
        # co-issues a duplicated op, which static validation rejects.
        path = self._stored_path(tmp_path)
        raw = json.loads(path.read_text())
        sched = next(iter(raw["schedules"].values()))
        bundle = next(b for b in sched["slots"] if b)
        bundle.append(dict(bundle[0]))
        path.write_text(json.dumps(raw))
        self._expect_recompile(tmp_path)

    def test_recompile_restores_the_disk_copy(self, tmp_path):
        path = self._stored_path(tmp_path)
        path.write_text("garbage")
        self._expect_recompile(tmp_path)
        # The recompilation stored a fresh artifact over the bad file.
        json.loads(path.read_text())


class TestHazardousFile:
    """A file that decodes and passes structural validation, but whose
    schedule races its own writes: ``kkt_solve`` with its empty slots
    dropped, so reads issue before the writes they wait on commit.
    ``solve()`` prices a schedule without lowering it, so before the
    load-time hazard check such a file restored as a hit and priced
    about 41 % fewer cycles, and a pool on the same directory raised
    ``HazardViolation`` (a 500 from ``repro serve``)."""

    C = 8

    def _squeezed(self, tmp_path):
        problem = mpc_problem(2, horizon=3)
        cold = MIBSolver(problem, c=self.C, cache=ScheduleCache(tmp_path))
        path = ScheduleCache(tmp_path).path_for(cold.cache_key)
        raw = json.loads(path.read_text())
        slots = raw["schedules"]["kkt_solve"]["slots"]
        assert not all(slots)
        raw["schedules"]["kkt_solve"]["slots"] = [b for b in slots if b]
        path.write_text(json.dumps(raw))
        return problem, cold

    def test_misses_and_prices_as_cold(self, tmp_path):
        problem, cold = self._squeezed(tmp_path)
        cache = ScheduleCache(tmp_path)
        warm = MIBSolver(problem, c=self.C, cache=cache)
        assert not warm.cache_hit
        assert cache.stats.disk_errors == 1
        assert warm.solve().cycles == cold.solve().cycles
        # The recompile stored a sound artifact over the bad file.
        again = ScheduleCache(tmp_path)
        assert MIBSolver(problem, c=self.C, cache=again).cache_hit
        assert again.stats.disk_errors == 0

    def test_pool_answers_instead_of_raising(self, tmp_path):
        problem, cold = self._squeezed(tmp_path)
        pool = SolverPool(c=self.C, cache_dir=str(tmp_path))
        out = pool.solve(problem)
        assert out.report.cycles == cold.solve().cycles
        assert pool.cache.stats.disk_errors == 1


class TestKeying:
    def _stub(self, p_dense, a_dense):
        return SimpleNamespace(
            p_upper=CSCMatrix.from_dense(np.triu(p_dense)),
            a=CSCMatrix.from_dense(a_dense),
        )

    def _key(self, stub, **overrides):
        kwargs = dict(variant="direct", c=C, options=ScheduleOptions())
        kwargs.update(overrides)
        return pattern_fingerprint(stub, **kwargs)

    def test_same_pattern_same_key(self):
        p = np.eye(4)
        a = np.zeros((3, 4))
        a[0, 1] = a[2, 3] = 1.0
        assert self._key(self._stub(p, a)) == self._key(self._stub(p, a))

    def test_values_do_not_affect_the_key(self):
        p = np.eye(4)
        a = np.zeros((3, 4))
        a[0, 1] = a[2, 3] = 1.0
        b = a * 7.5  # same structure, different numbers
        assert self._key(self._stub(p, a)) == self._key(self._stub(p, b))

    def test_equal_shape_different_structure_distinct_keys(self):
        p = np.eye(4)
        a1 = np.zeros((3, 4))
        a1[0, 1] = a1[2, 3] = 1.0
        a2 = np.zeros((3, 4))
        a2[0, 2] = a2[2, 3] = 1.0  # same shape, same nnz, one entry moved
        assert self._key(self._stub(p, a1)) != self._key(self._stub(p, a2))

    def test_configuration_enters_the_key(self):
        p = np.eye(4)
        a = np.zeros((3, 4))
        a[0, 1] = 1.0
        stub = self._stub(p, a)
        base = self._key(stub)
        assert self._key(stub, c=32) != base
        assert self._key(stub, variant="indirect") != base
        assert self._key(stub, options=ScheduleOptions(prefetch=False)) != base
        assert self._key(stub, sigma=1e-5) != base
        assert self._key(stub, alpha=1.0) != base
        assert self._key(stub, ordering="natural") != base
        assert self._key(stub, lower_method="row") != base


class TestLRU:
    def _artifact(self, key):
        return CompiledArtifact(key=key, schedules={}, vectors=[])

    def test_memory_eviction(self):
        cache = ScheduleCache(None, max_entries=1)
        cache.put("k1", self._artifact("k1"))
        cache.put("k2", self._artifact("k2"))
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        assert cache.get("k1") is None  # memory-only: evicted is gone
        assert cache.get("k2") is not None

    def test_eviction_keeps_disk_copy(self, tmp_path):
        cache = ScheduleCache(tmp_path, max_entries=1)
        cache.put("k1", self._artifact("k1"))
        cache.put("k2", self._artifact("k2"))
        assert cache.stats.evictions == 1
        assert cache.get("k1") is not None  # reloaded from disk
        assert cache.stats.disk_hits == 1

    def test_lru_order_refreshes_on_hit(self):
        cache = ScheduleCache(None, max_entries=2)
        cache.put("k1", self._artifact("k1"))
        cache.put("k2", self._artifact("k2"))
        assert cache.get("k1") is not None  # k1 becomes most recent
        cache.put("k3", self._artifact("k3"))  # evicts k2, not k1
        assert cache.get("k1") is not None
        assert cache.get("k2") is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ScheduleCache(None, max_entries=0)


class TestStats:
    def test_rows_and_merge(self):
        cache = ScheduleCache(None)
        cache.put("k", CompiledArtifact(key="k", schedules={}, vectors=[]))
        cache.get("k")
        cache.get("missing")
        stats = cache.stats
        assert stats.lookups == 2
        assert stats.hit_rate == pytest.approx(0.5)
        assert any("hit rate" in name for name, _ in stats.rows())
        other = ScheduleCache(None).stats
        other.hits = 3
        other.misses = 1
        stats.merge(other)
        assert stats.hits == 4
        assert stats.lookups == 6


class TestThreadSafety:
    """The cache serves the serve layer's pool from many threads at
    once; lookups, stores, evictions and the stats must stay
    consistent under concurrent churn."""

    def _artifact(self, key):
        return CompiledArtifact(key=key, schedules={}, vectors=[])

    def _hammer(self, worker, n_threads):
        import threading

        barrier = threading.Barrier(n_threads)
        errors = []

        def run(tid):
            try:
                barrier.wait()
                worker(tid)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(tid,))
            for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors

    def test_concurrent_churn_with_eviction_pressure(self):
        n_threads, n_ops, n_keys = 8, 300, 10
        cache = ScheduleCache(None, max_entries=4)  # far below n_keys

        def worker(tid):
            for i in range(n_ops):
                key = f"k{(tid + i) % n_keys}"
                if cache.get(key) is None:
                    cache.put(key, self._artifact(key))

        self._hammer(worker, n_threads)
        stats = cache.stats
        assert stats.lookups == n_threads * n_ops
        assert stats.hits + stats.misses == stats.lookups
        assert len(cache) <= 4

    def test_concurrent_writers_same_directory(self, tmp_path):
        """Every thread stores every key; the pid+thread-id temp names
        keep the atomic renames from clobbering each other."""
        n_threads, n_keys = 6, 5
        cache = ScheduleCache(tmp_path, max_entries=n_keys)

        def worker(tid):
            for k in range(n_keys):
                cache.put(f"k{k}", self._artifact(f"k{k}"))

        self._hammer(worker, n_threads)
        # A fresh cache (new process in real life) reads every key back.
        fresh = ScheduleCache(tmp_path)
        for k in range(n_keys):
            assert fresh.get(f"k{k}") is not None
        assert fresh.stats.disk_hits == n_keys

    def test_concurrent_readers_of_a_corrupt_file_all_miss_cleanly(
        self, tmp_path
    ):
        seed = ScheduleCache(tmp_path)
        seed.put("k", self._artifact("k"))
        seed.path_for("k").write_text("not an artifact")
        # Memory-cold cache: every reader races to the same bad file.
        cache = ScheduleCache(tmp_path)
        n_threads = 8
        results = []

        def worker(tid):
            results.append(cache.get("k"))

        self._hammer(worker, n_threads)
        assert results == [None] * n_threads
        assert cache.stats.misses == n_threads
        assert cache.stats.disk_errors == n_threads
        # Recompiling (a put) repairs the disk copy for everyone.
        cache.put("k", self._artifact("k"))
        assert ScheduleCache(tmp_path).get("k") is not None
