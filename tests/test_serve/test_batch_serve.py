"""Batched serving end-to-end: queue sweeps, pool batching, HTTP.

Covers the serve-layer half of the batched-replay contract:

* :meth:`RequestQueue.next_batch` exposes the batch's common
  fingerprint and sweeps already-expired requests into
  ``batch.expired`` instead of handing them a solve lane;
* :meth:`SolverPool.solve_batch` answers a coalesced batch from one
  ``replay_batch`` pass with per-lane results bit-identical to solo
  pool solves;
* a live server answers 16 coalesced same-pattern HTTP requests from
  a single batched pass (one ``batched_solves``, 16 ``batched_lanes``)
  and honors per-request deadlines inside the batch — an expired lane
  is answered 504 without poisoning its siblings.

The server tests use ``workers=0`` (no drain loop) so the test can
deterministically accumulate a full queue and dispatch it as exactly
one batch.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.backends.mib import MIBSolver
from repro.problems import mpc_problem
from repro.serve import (
    RequestQueue,
    ServeClient,
    ServeServer,
    SolveRequest,
    SolverPool,
)
from repro.solver import QPProblem, Settings

C = 8
SETTINGS = Settings(eps_abs=1e-3, eps_rel=1e-3, max_iter=2000, check_interval=5)


def _request(fingerprint: str, *, deadline: float | None = None) -> SolveRequest:
    return SolveRequest(
        problem=object(), fingerprint=fingerprint, deadline=deadline
    )


def base_problem() -> QPProblem:
    return mpc_problem(2, horizon=3, seed=5)


def perturbed(base: QPProblem, seed: int) -> QPProblem:
    rng = np.random.default_rng(seed)
    q = base.q * (1.0 + 0.05 * rng.standard_normal(base.n))
    return QPProblem(
        p=base.p, q=q, a=base.a, l=base.l, u=base.u, name=base.name
    )


class TestExpiredAtPop:
    def test_expired_heads_swept_before_live_batch(self):
        queue = RequestQueue(maxsize=16)
        past = time.monotonic() - 1.0
        dead_a = _request("A", deadline=past)
        dead_b = _request("B", deadline=past)
        live = _request("A")
        for req in (dead_a, dead_b, live):
            queue.submit(req)
        batch = queue.next_batch(timeout=0.1)
        assert list(batch) == [live]
        assert batch.fingerprint == "A"
        assert batch.expired == [dead_a, dead_b]
        assert len(queue) == 0

    def test_expired_rider_never_occupies_a_lane(self):
        queue = RequestQueue(maxsize=16)
        head = _request("A")
        dead_rider = _request("A", deadline=time.monotonic() - 1.0)
        live_rider = _request("A")
        other = _request("B")
        for req in (head, dead_rider, other, live_rider):
            queue.submit(req)
        batch = queue.next_batch(timeout=0.1)
        assert list(batch) == [head, live_rider]
        assert batch.expired == [dead_rider]
        # The non-matching pattern was untouched by the sweep.
        assert [r.fingerprint for r in queue.next_batch(timeout=0.1)] == ["B"]

    def test_expired_only_queue_returns_without_blocking(self):
        queue = RequestQueue(maxsize=16)
        dead = [
            _request(f, deadline=time.monotonic() - 1.0) for f in ("A", "A")
        ]
        for req in dead:
            queue.submit(req)
        t0 = time.monotonic()
        batch = queue.next_batch(timeout=5.0)
        assert time.monotonic() - t0 < 1.0  # fail-fast, not a 5 s wait
        assert list(batch) == []
        assert batch.fingerprint == ""
        assert batch.expired == dead

    def test_fingerprint_exposed_on_every_batch_shape(self):
        queue = RequestQueue(maxsize=16)
        assert queue.next_batch(timeout=0.01).fingerprint == ""
        queue.submit(_request("K"))
        queue.submit(_request("K"))
        assert queue.next_batch(timeout=0.1).fingerprint == "K"


class TestPoolSolveBatch:
    @pytest.fixture(scope="class")
    def pool(self):
        return SolverPool(
            capacity=2, variant="direct", c=C, settings=SETTINGS
        )

    def test_batch_lanes_equal_solo_solves(self, pool):
        base = base_problem()
        problems = [perturbed(base, seed) for seed in range(4)]
        before = pool.metrics.snapshot()["counters"]
        solves = pool.solve_batch(problems)
        after = pool.metrics.snapshot()["counters"]
        assert after["batched_solves"] == before["batched_solves"] + 1
        assert after["batched_lanes"] == before["batched_lanes"] + 4
        assert len(solves) == 4
        fingerprint = pool.fingerprint(base)
        # Bitwise oracle: a solver built from the same seed instance the
        # pool entry was (problems[0] on the cold path), run through the
        # network executor — the machine solve_batch lanes execute on.
        oracle = MIBSolver(
            problems[0], variant="direct", c=C, settings=SETTINGS
        )
        for lane, problem in zip(solves, problems):
            assert lane.fingerprint == fingerprint
            oracle.bind_instance(problem)
            net = oracle.solve_on_network()
            lane_r = lane.report.result
            assert lane_r.status is net.status
            assert lane_r.iterations == net.iterations
            assert lane_r.x.tobytes() == net.x.tobytes()
            assert lane_r.y.tobytes() == net.y.tobytes()
            assert lane_r.z.tobytes() == net.z.tobytes()
            assert lane.report.cycles == net.cycles
            # The pool's solo path runs the host algorithmic reference:
            # the same algorithm, identical up to float rounding.
            solo_r = pool.solve(problem).report.result
            assert lane_r.status is solo_r.status
            assert lane_r.iterations == solo_r.iterations
            np.testing.assert_allclose(
                lane_r.x, solo_r.x, rtol=1e-9, atol=1e-12
            )

    def test_single_problem_batch_falls_back_to_solo_path(self, pool):
        base = base_problem()
        before = pool.metrics.snapshot()["counters"]
        solves = pool.solve_batch([base])
        after = pool.metrics.snapshot()["counters"]
        assert len(solves) == 1
        assert after["batched_solves"] == before["batched_solves"]
        assert after["batched_lanes"] == before["batched_lanes"]

    def test_empty_batch_is_a_noop(self, pool):
        assert pool.solve_batch([]) == []

    def test_batch_size_histogram_records_passes(self, pool):
        base = base_problem()
        pool.solve_batch([perturbed(base, s) for s in range(2)])
        sizes = pool.metrics.snapshot()["batch_sizes"]
        assert sizes.get("4") == 1 and sizes.get("2") == 1


# Per-lane pricing of one fan-out pass, RECORDED ON b21aac5 (when
# ``SolverPool._wrap_lane`` still priced lanes by hand) with the batch
# of tests/test_backends/test_solve_batch.py: harvests at different
# iterations, ρ refactorizations, two infeasible lanes and one lane
# stopped by ``max_iter`` between checks.  Floats are ``float.hex()``.
RECORDED_SETTINGS = Settings(
    max_iter=298, check_interval=5, adaptive_rho=True,
    eps_abs=1e-8, eps_rel=1e-8,
)
RECORDED_KERNEL_CYCLES = {
    "factor": 177, "kkt_solve": 183, "admm_vector": 71, "residuals": 33,
    "iter_pre": 28, "iter_post": 81,
}
RECORDED_TRANSFER = "0x1.50c4e0e78353ep-16"
RECORDED_LANES = [
    # status, cycles, runtime_seconds, iterations, residuals, factor
    ("SOLVED", 13628, "0x1.12b9bb4763912p-14", 45, 9, 1),
    ("SOLVED", 19777, "0x1.68b1dc1c8cea8p-14", 65, 13, 2),
    ("SOLVED", 28735, "0x1.e5efca69b20c4p-14", 95, 19, 2),
    ("PRIMAL_INFEASIBLE", 88632, "0x1.4ad6e0436e8c2p-12", 295, 59, 3),
    ("MAX_ITERATIONS", 89364, "0x1.4d65dbc96154dp-12", 298, 60, 2),
    ("PRIMAL_INFEASIBLE", 34707, "0x1.1cb734a3e566cp-13", 115, 23, 2),
]


def test_scenario_lane_pricing_matches_recorded_parent():
    """The lane → ``MIBSolveReport`` conversion moved behind
    ``MIBSolver``; what a scenario lane is told it cost did not."""
    from tests.test_backends.test_solve_batch import (
        SEED_SCALES,
        perturbed_full,
    )

    base = base_problem()
    pool = SolverPool(
        capacity=2, variant="direct", c=C, settings=RECORDED_SETTINGS
    )
    solves = pool.solve_batch(
        [perturbed_full(base, seed, scale) for seed, scale in SEED_SCALES]
    )
    assert len(solves) == len(RECORDED_LANES)
    for solved, recorded in zip(solves, RECORDED_LANES):
        status, cycles, runtime, iters, checks, factors = recorded
        report = solved.report
        assert report.result.status.name == status
        assert report.cycles == cycles
        assert report.runtime_seconds.hex() == runtime
        assert report.transfer_seconds.hex() == RECORDED_TRANSFER
        assert report.kernel_cycles == RECORDED_KERNEL_CYCLES
        assert list(report.kernel_invocations.items()) == [
            ("iter_pre", iters), ("kkt_solve", iters), ("iter_post", iters),
            ("residuals", checks), ("factor", factors),
        ]


def _post_concurrently(
    client: ServeClient,
    problems: list[QPProblem],
    timeouts: list[float],
) -> tuple[list, list[threading.Thread]]:
    """Start one client thread per request; responses land in order."""
    responses: list = [None] * len(problems)

    def issue(i: int) -> None:
        responses[i] = client.solve(problems[i], timeout_s=timeouts[i])

    threads = [
        threading.Thread(target=issue, args=(i,))
        for i in range(len(problems))
    ]
    for t in threads:
        t.start()
    return responses, threads


def _wait_for_queue(server: ServeServer, depth: int) -> None:
    deadline = time.monotonic() + 10.0
    while len(server.queue) < depth:
        if time.monotonic() > deadline:
            raise AssertionError(
                f"queue never reached {depth} (at {len(server.queue)})"
            )
        time.sleep(0.005)


def _drain_once(server: ServeServer, max_batch: int) -> None:
    """One worker-loop turn: sweep expired, dispatch the live batch."""
    batch = server.queue.next_batch(max_batch=max_batch, timeout=1.0)
    assert batch is not None
    for request in batch.expired:
        server.metrics.inc("expired_at_pop")
        server._timeout_queued(request)
    if len(batch) > 1:
        server.metrics.inc("coalesced_batches")
        server.metrics.inc("coalesced_requests", len(batch) - 1)
        server._process_batch(batch)
    elif batch:
        server._process(batch[0])


@pytest.mark.serve_e2e
class TestServerBatchedEndToEnd:
    def test_sixteen_requests_one_replay_pass(self):
        """16 coalesced same-pattern requests → one batched solve with
        16 lanes, every response equal to its solo pool solve."""
        burst = 16
        base = base_problem()
        with ServeServer(
            port=0,
            workers=0,
            queue_size=2 * burst,
            max_batch=burst,
            batch_policy="greedy",  # coalesce whatever is queued
            variant="direct",
            c=C,
            settings=SETTINGS,
            warm_start=False,
        ) as server:
            server.pool.solve(base)  # compile the pattern once, up front
            client = ServeClient(port=server.port)
            problems = [perturbed(base, 100 + s) for s in range(burst)]
            responses, threads = _post_concurrently(
                client, problems, [30.0] * burst
            )
            _wait_for_queue(server, burst)
            before = server.metrics.snapshot()["counters"]
            _drain_once(server, max_batch=burst)
            for t in threads:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads)

            snap = server.metrics.snapshot()
            after = snap["counters"]
            assert after["batched_solves"] == before["batched_solves"] + 1
            assert after["batched_lanes"] == before["batched_lanes"] + burst
            assert after["coalesced_batches"] == 1
            assert after["coalesced_requests"] == burst - 1
            assert snap["batch_sizes"].get(str(burst)) == 1

            # Bitwise oracle: the pool entry was built from ``base``;
            # an identically constructed solver re-binds each lane's
            # instance and executes on the network, like the batch did.
            oracle = MIBSolver(
                base, variant="direct", c=C, settings=SETTINGS
            )
            for response, problem in zip(responses, problems):
                assert response.ok and response.solved, response.raw
                assert response.raw["batched"] is True
                assert response.raw["batch_lanes"] == burst
                assert response.warm
                oracle.bind_instance(problem)
                net = oracle.solve_on_network()
                assert response.result.x.tobytes() == net.x.tobytes()
                assert response.result.iterations == net.iterations
                assert response.raw["cycles"] == net.cycles

    def test_expired_lane_gets_504_without_poisoning_siblings(self):
        """One lane's deadline passes while queued; it is answered
        TIMEOUT and the remaining lanes still batch and solve."""
        burst = 6
        short = 2  # index of the request with the tiny deadline
        base = base_problem()
        with ServeServer(
            port=0,
            workers=0,
            queue_size=2 * burst,
            max_batch=burst,
            batch_policy="greedy",  # coalesce whatever is queued
            variant="direct",
            c=C,
            settings=SETTINGS,
            warm_start=False,
        ) as server:
            server.pool.solve(base)
            client = ServeClient(port=server.port)
            problems = [perturbed(base, 200 + s) for s in range(burst)]
            timeouts = [30.0] * burst
            timeouts[short] = 0.2
            responses, threads = _post_concurrently(
                client, problems, timeouts
            )
            _wait_for_queue(server, burst)
            time.sleep(0.3)  # let the short deadline expire in the queue
            _drain_once(server, max_batch=burst)
            for t in threads:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads)

            assert responses[short].status == "timeout"
            assert responses[short].http_status == 504
            live = [r for i, r in enumerate(responses) if i != short]
            for response in live:
                assert response.ok and response.solved, response.raw
                assert response.raw["batched"] is True
                assert response.raw["batch_lanes"] == burst - 1
            counters = server.metrics.snapshot()["counters"]
            assert counters["batched_solves"] == 1
            assert counters["batched_lanes"] == burst - 1
            assert counters["timeouts"] >= 1
