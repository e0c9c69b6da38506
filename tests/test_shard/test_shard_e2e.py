"""End-to-end tests for the sharded serve tier.

Real processes, real sockets: a ``ServeServer(shards=2)`` spawns two
worker processes and the tests drive it through :class:`ServeClient`.
The headline assertions are the sharding acceptance criteria — results
bit-identical to the in-process tier, warm routing pinning each
pattern to one shard, and a SIGKILLed worker degrading gracefully
(fast 503/re-route, respawn, same pattern served again) instead of
hanging anything.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.io import problem_to_dict
from repro.problems import (
    huber_problem,
    lasso_problem,
    mpc_problem,
    portfolio_problem,
    svm_problem,
)
from repro.serve import ServeClient, ServeServer
from repro.solver import Settings

pytestmark = pytest.mark.serve_e2e

FAST = Settings(eps_abs=1e-3, eps_rel=1e-3, max_iter=4000)
DOMAINS = (
    portfolio_problem,
    lasso_problem,
    mpc_problem,
    huber_problem,
    svm_problem,
)


@pytest.fixture(scope="module")
def server():
    with ServeServer(
        port=0, workers=1, shards=2, c=8, settings=FAST, capacity=4
    ) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(port=server.port)


class TestShardedServe:
    def test_health_reports_live_shards(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["sharded"] is True
        assert health["shard_count"] == 2
        assert health["live_shards"] == 2
        assert set(health["shards"]) == {"0", "1"}
        for doc in health["shards"].values():
            assert doc["alive"] is True
            assert isinstance(doc["patterns_resident"], int)

    def test_repeat_pattern_rides_one_warm_shard(self, client, server):
        first = client.solve(portfolio_problem(8, seed=0), timeout_s=60.0)
        assert first.ok and first.solved
        before = client.metrics()["counters"]
        second = client.solve(portfolio_problem(8, seed=1), timeout_s=60.0)
        assert second.ok and second.solved and second.warm
        after = client.metrics()["counters"]
        assert after["compile_count"] == before["compile_count"]
        assert after["warm_solve_count"] == before["warm_solve_count"] + 1
        # Exactly one shard holds the pattern.
        health = client.health()
        holders = [
            doc
            for doc in health["shards"].values()
            if first.fingerprint in doc["fingerprints"]
        ]
        assert len(holders) == 1
        home = server.frontend.router.home(first.fingerprint)
        assert health["shards"][str(home)]["patterns_resident"] >= 1

    def test_five_domain_mix_lands_on_both_shards(self, client):
        for gen in DOMAINS:
            response = client.solve(gen(8, seed=0), timeout_s=60.0)
            assert response.ok and response.solved, gen.__name__
        health = client.health()
        assert all(
            doc["patterns_resident"] >= 1
            for doc in health["shards"].values()
        )

    def test_metrics_aggregate_across_shards(self, client):
        snap = client.metrics()
        assert snap["sharded"] is True
        assert set(snap["shards"]) == {"0", "1"}
        per_shard_ok = sum(
            s["counters"]["responses_ok"] for s in snap["shards"].values()
        )
        assert per_shard_ok == snap["counters"]["responses_ok"] > 0
        assert snap["counters"]["requests_total"] >= per_shard_ok

    def test_malformed_problem_is_a_400(self, client):
        status, payload = client._request(
            "/v1/solve", body={"problem": {"nope": 1}}
        )
        assert status == 400
        assert payload["status"] == "error"


class TestBitIdentical:
    def test_sharded_matches_in_process_bit_for_bit(self):
        """Acceptance: the same request stream against a fresh sharded
        server and a fresh in-process server produces bit-identical
        responses, cold and warm solves alike.  (Fresh servers matter:
        pooled solvers carry adaptive-rho state across warm solves, so
        equal *server state* is part of "same request".)"""
        with ServeServer(
            port=0, workers=1, shards=2, c=8, settings=FAST, capacity=8
        ) as sharded_server, ServeServer(
            port=0, workers=1, c=8, settings=FAST, capacity=8
        ) as reference_server:
            sharded = ServeClient(port=sharded_server.port)
            reference = ServeClient(port=reference_server.port)
            # Cold solve + warm repeat per domain, in one fixed order.
            stream = [
                (gen.__name__, gen(8, seed=seed))
                for gen in DOMAINS
                for seed in (7, 8)
            ]
            for name, problem in stream:
                a = sharded.solve(problem, timeout_s=60.0)
                b = reference.solve(problem, timeout_s=60.0)
                assert a.ok and b.ok, name
                assert a.warm == b.warm, name
                ra, rb = a.raw["result"], b.raw["result"]
                assert ra["iterations"] == rb["iterations"], name
                assert np.array_equal(
                    np.asarray(ra["x"]), np.asarray(rb["x"])
                ), name
                assert np.array_equal(
                    np.asarray(ra["y"]), np.asarray(rb["y"])
                ), name
                assert ra["objective"] == rb["objective"]


class TestPatternRegistry:
    def test_churn_keeps_every_shard_registry_within_capacity(self):
        """Acceptance: 4 x capacity distinct patterns through 2 shards,
        then the first again.  Every answer is a 200, no shard ever
        holds more than ``capacity`` skeletons, and the repeat (evicted
        from its home shard, so solved cold) answers bit for bit as a
        fresh in-process server with the same capacity fed the same
        stream."""
        capacity = 2
        stream = [portfolio_problem(n, seed=0) for n in range(4, 12)]
        stream.append(portfolio_problem(4, seed=0))
        with ServeServer(
            port=0, workers=1, shards=2, c=8, settings=FAST,
            capacity=capacity,
        ) as sharded_server, ServeServer(
            port=0, workers=1, c=8, settings=FAST, capacity=capacity
        ) as reference_server:
            pool, router = sharded_server.pool, sharded_server.frontend.router
            homes = [router.home(pool.fingerprint(p)) for p in stream]
            assert len({pool.fingerprint(p) for p in stream}) == 8
            # The setup this test relies on: the first pattern's home
            # shard sees more than `capacity` other patterns after it.
            assert homes[1:-1].count(homes[0]) >= capacity
            sharded = ServeClient(port=sharded_server.port)
            reference = ServeClient(port=reference_server.port)
            answers = []
            for problem in stream:
                body = {"problem": problem_to_dict(problem), "timeout_s": 60.0}
                status, a = sharded._request("/v1/solve", body=body)
                assert status == 200, a
                status, b = reference._request("/v1/solve", body=body)
                assert status == 200, b
                answers.append((a["result"], b["result"]))
                for doc in sharded.health()["shards"].values():
                    assert doc["patterns_registered"] <= capacity
        ra, rb = answers[-1]
        assert ra["iterations"] == rb["iterations"]
        assert np.array_equal(np.asarray(ra["x"]), np.asarray(rb["x"]))
        assert np.array_equal(np.asarray(ra["y"]), np.asarray(rb["y"]))

    def test_pool_counters_count_solver_lookups_only(self):
        """The front end's pattern table moves no pool counter: the
        fleet-wide hits + misses are the solves, and traffic within
        capacity evicts nothing."""
        problems = [
            portfolio_problem(n, seed=seed) for n in (6, 7, 8)
            for seed in (0, 1)
        ]
        with ServeServer(
            port=0, workers=1, shards=2, c=8, settings=FAST, capacity=4
        ) as srv:
            client = ServeClient(port=srv.port)
            for problem in problems:
                assert client.solve(problem, timeout_s=60.0).ok
            counters = client.metrics()["counters"]
        assert counters["pool_hits"] + counters["pool_misses"] == len(problems)
        assert counters["pool_evictions"] == 0


class TestWorkerDeathRecovery:
    def test_killed_worker_never_hangs_requests(self):
        """Acceptance: kill a shard mid-load -> zero hung requests,
        degraded health while down, respawned shard serves the same
        pattern again with no client-visible restart."""
        with ServeServer(
            port=0, workers=1, shards=2, c=8, settings=FAST, capacity=4
        ) as srv:
            client = ServeClient(port=srv.port)
            problem = portfolio_problem(8, seed=0)
            first = client.solve(problem, timeout_s=60.0)
            assert first.ok
            home = srv.frontend.router.home(first.fingerprint)

            srv.frontend.kill_shard(home)
            # Every request during the outage must resolve within its
            # deadline: re-routed 200 or fast 503, never a hang.
            t0 = time.monotonic()
            outcomes = []
            for seed in range(4):
                response = client.solve(
                    portfolio_problem(8, seed=seed), timeout_s=10.0
                )
                outcomes.append(response.raw["status"])
            elapsed = time.monotonic() - t0
            assert elapsed < 20.0
            assert all(s in ("ok", "rejected") for s in outcomes)

            # The shard respawns and reports healthy again.
            deadline = time.monotonic() + 60.0
            health = client.health()
            while health["status"] != "ok" and time.monotonic() < deadline:
                assert health["status"] == "degraded"
                time.sleep(0.2)
                health = client.health()
            assert health["status"] == "ok"
            assert client.metrics()["counters"]["shard_respawns"] >= 1

            # Same pattern routes home again and solves.
            live = srv.frontend.live_shards()
            assert srv.frontend.router.route(
                first.fingerprint, live=live
            ) == home
            again = client.solve(portfolio_problem(8, seed=9), timeout_s=60.0)
            assert again.ok and again.solved
            assert again.fingerprint == first.fingerprint

    def test_health_is_207_while_degraded(self):
        with ServeServer(
            port=0, workers=1, shards=2, c=8, settings=FAST, capacity=4
        ) as srv:
            client = ServeClient(port=srv.port)
            assert client._request("/v1/health")[0] == 200
            srv.frontend.kill_shard(0)
            # Wait for the demux thread to notice the death.
            deadline = time.monotonic() + 10.0
            status = None
            while time.monotonic() < deadline:
                status, doc = client._request("/v1/health")
                if status == 207:
                    assert doc["status"] == "degraded"
                    break
                time.sleep(0.05)
            assert status == 207


def shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def shard_children() -> set[int]:
    return {
        p.pid
        for p in multiprocessing.active_children()
        if p.name.startswith("repro-shard-")
    }


class TestNoLeaks:
    def test_kill_then_stop_leaves_no_shm_and_no_worker(self):
        """Start → kill one shard → stop at once (the respawn may be in
        flight): no new ``/dev/shm`` entry and no new shard process
        left alive (the module's shared server keeps its own two)."""
        shm, children = shm_entries(), shard_children()
        with ServeServer(
            port=0, workers=1, shards=2, c=8, settings=FAST, capacity=4
        ) as srv:
            client = ServeClient(port=srv.port)
            assert client.solve(portfolio_problem(8, seed=0)).ok
            srv.frontend.kill_shard(0)
        assert shm_entries() - shm == set()
        assert shard_children() - children == set()
