"""Batched serving end-to-end: queue sweeps, pool batching, HTTP.

Covers the serve-layer half of the batched-replay contract:

* :meth:`RequestQueue.next_batch` exposes the batch's common
  fingerprint and sweeps already-expired requests into
  ``batch.expired`` instead of handing them a solve lane;
* :meth:`SolverPool.solve_batch` answers a coalesced batch as its
  instances in order on the resident solver, every lane bit-identical
  to the solo pool solve at that point of the stream;
* a live server answers 16 coalesced same-pattern HTTP requests from
  a single pass (one ``batched_solves``, 16 ``batched_lanes``) and
  honors per-request deadlines inside the batch — an expired lane is
  answered 504 without poisoning its siblings.

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
        problems=[object()], fingerprint=fingerprint, deadline=deadline
    )


def base_problem() -> QPProblem:
    return mpc_problem(2, horizon=3, seed=5)


def perturbed(base: QPProblem, seed: int) -> QPProblem:
    rng = np.random.default_rng(seed)
    q = base.q * (1.0 + 0.05 * rng.standard_normal(base.n))
    return QPProblem(
        p=base.p, q=q, a=base.a, l=base.l, u=base.u, name=base.name
    )


def assert_same_solve(report, expected) -> None:
    """Two ``MIBSolveReport``s of one answer: bitwise, price included."""
    got, want = report.result, expected.result
    assert got.status is want.status
    assert got.iterations == want.iterations
    assert got.rho_updates == want.rho_updates
    for name in "xyz":
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    # The floats the shared p_full / scaled-problem caches feed.
    for name in ("objective", "primal_residual", "dual_residual"):
        assert np.array_equal(
            getattr(got, name), getattr(want, name), equal_nan=True
        ), name
    assert report.cycles == expected.cycles
    assert report.kernel_invocations == expected.kernel_invocations


def assert_response_is(response, report) -> None:
    """An HTTP reply carries exactly ``report``'s answer and price."""
    assert response.result.x.tobytes() == report.result.x.tobytes()
    assert response.result.y.tobytes() == report.result.y.tobytes()
    assert response.result.iterations == report.result.iterations
    assert response.raw["cycles"] == report.cycles


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
        # A lane is the solo solve at that point of the stream: the
        # same instances as consecutive ``solve`` calls on a second
        # cold pool, and as ``update_values`` + ``solve()`` on a solver
        # built, like the pool entry, from problems[0].
        solo_pool = SolverPool(
            capacity=2, variant="direct", c=C, settings=SETTINGS
        )
        twin = MIBSolver(
            problems[0], variant="direct", c=C, settings=SETTINGS
        )
        for i, (lane, problem) in enumerate(zip(solves, problems)):
            assert lane.fingerprint == fingerprint
            assert lane.warm is (i > 0) and not lane.solo_lane
            assert_same_solve(lane.report, solo_pool.solve(problem).report)
            if i:
                twin.update_values(problem)
            assert_same_solve(lane.report, twin.solve())
        # Lanes report their elapsed time since the pass began.
        waits = [lane.solve_seconds for lane in solves]
        assert waits == sorted(waits) and waits[0] > 0.0

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


# Per-lane pricing of one fan-out pass with the batch of
# tests/test_backends/test_solve_batch.py (ρ refactorizations, an
# infeasible lane, lanes stopped by ``max_iter`` between checks),
# RE-RECORDED when a lane became the solo solve at that point of the
# stream, again (cycles and runtimes only, 3 cycles per ``factor``)
# when the factorization took one scratch accumulator per lane, and
# again (cycles and runtimes only) when critical-path list scheduling
# became the default and a schedule started running to the end of its
# last op.
# Floats are ``float.hex()``.
RECORDED_SETTINGS = Settings(
    max_iter=298, check_interval=5, adaptive_rho=True,
    eps_abs=1e-8, eps_rel=1e-8,
)
RECORDED_KERNEL_CYCLES = {
    "factor": 171, "kkt_solve": 182, "admm_vector": 64, "residuals": 30,
    "iter_pre": 28, "iter_post": 80,
}
RECORDED_TRANSFER = "0x1.50c4e0e78353ep-16"
RECORDED_LANES = [
    # status, cycles, runtime_seconds, iterations, residuals, factor
    ("SOLVED", 11555, "0x1.eb7c59e23e17cp-15", 45, 10, 1),
    ("SOLVED", 16766, "0x1.3e99122f7cbfap-14", 65, 14, 2),
    ("SOLVED", 48266, "0x1.7b7ffb35122dbp-13", 190, 39, 2),
    ("PRIMAL_INFEASIBLE", 73637, "0x1.166d93c04fcfep-12", 290, 59, 3),
    ("MAX_ITERATIONS", 75293, "0x1.1c37574346e5bp-12", 298, 60, 1),
    ("MAX_ITERATIONS", 75293, "0x1.1c37574346e5bp-12", 298, 60, 1),
]


def test_scenario_lane_pricing_matches_recorded_parent():
    """What a scenario lane is told it cost: the solo pricing of
    ``MIBSolver.solve()``, kernel counts x scheduled cycles.

    The priced iteration is one ``admm_vector`` (64) where an executed
    one runs ``iter_pre`` + ``iter_post`` (28 + 80), and a solve that
    stops on a check iteration is priced one extra ``residuals`` check
    (30).  Lanes 0 and 1 keep the iterations and factorizations of the
    executed batch lanes recorded before this pricing (13 628 and
    19 777 cycles, under the program-order schedules of that time).
    From lane 2 on the iterations differ too: ρ carries from lane to
    lane as between consecutive ``/v1/solve`` requests, where the batch
    engine started every lane from the resident ρ."""
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
        assert report.kernel_invocations == {
            "admm_vector": iters, "residuals": checks,
            "kkt_solve": iters, "factor": factors,
        }


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
        server.engine._timeout_queued(request)
    if len(batch) > 1:
        server.metrics.inc("coalesced_batches")
        server.metrics.inc("coalesced_requests", len(batch) - 1)
        server.engine._process_batch(batch)
    elif batch:
        server.engine._process(batch[0])


@pytest.mark.serve_e2e
class TestServerBatchedEndToEnd:
    def test_sixteen_requests_one_replay_pass(self):
        """16 coalesced same-pattern requests → one pass of 16 lanes,
        answered in queue order, every response equal to the solo
        solve at that point of the stream."""
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

            # Bitwise oracle: a solver with the pool entry's history
            # (built from ``base``, solved once) takes the instances
            # in the order the queue dispatched them — the order the
            # lanes finished in.
            for response in responses:
                assert response.ok and response.solved, response.raw
                assert response.raw["batched"] is True
                assert response.raw["batch_lanes"] == burst
                assert response.warm
            order = sorted(
                range(burst), key=lambda i: responses[i].raw["solve_seconds"]
            )
            # Only q moves: every lane takes the vectors-only delta bind.
            assert [responses[i].raw["delta_bind"] for i in order] == [
                True
            ] * burst
            assert after["delta_binds"] == burst
            twin = MIBSolver(base, variant="direct", c=C, settings=SETTINGS)
            twin.solve()
            for i in order:
                twin.update_values(problems[i])
                assert_response_is(responses[i], twin.solve())

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
