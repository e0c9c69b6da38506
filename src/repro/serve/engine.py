"""The serve tier's solve engine: queue drain, batching, dispatch.

Everything between "a :class:`~repro.serve.queue.SolveRequest` was
admitted" and "its response was published" lives here — worker
threads draining the :class:`~repro.serve.queue.RequestQueue` through
the :class:`~repro.serve.pool.SolverPool` under the
:class:`~repro.serve.controller.BatchController`'s policy, with
per-request deadlines, coalesced dispatch, per-lane publication and
the write-once response discipline.  Every path runs the host
reference (``MIBSolver.solve()``); cycles are priced from its counts.

The engine is transport-agnostic: the HTTP front-end
(:class:`~repro.serve.server.ServeServer`) feeds it requests parsed
from sockets, and a shard worker process (:mod:`repro.shard.worker`)
feeds it requests rebuilt from the raw float64 values of its pipe's
``submit`` messages.  Both see the same execution stack — warm pool,
adaptive coalescing — because it *is* the same object, and both
report it through the same :meth:`SolveEngine.health` and
:meth:`SolveEngine.metrics_snapshot`.
"""

from __future__ import annotations

import threading
import time

from ..solver import SolverStatus
from .controller import BatchController
from .metrics import ServeMetrics
from .pool import SolverPool
from .queue import DispatchBatch, RequestQueue, SolveRequest

__all__ = ["SolveEngine"]


class SolveEngine:
    """Worker threads draining one request queue through one pool.

    ``workers=0`` starts no drain loop (test hook: requests queue up
    and time out unless drained manually).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        pool: SolverPool | None = None,
        queue_size: int = 64,
        max_batch: int = 16,
        batch_policy: str = "adaptive",
        controller: BatchController | None = None,
        **pool_kwargs,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.pool = pool if pool is not None else SolverPool(**pool_kwargs)
        self.metrics: ServeMetrics = self.pool.metrics
        self.queue = RequestQueue(maxsize=queue_size)
        self.max_batch = max_batch
        # The batching policy layer: decides which lanes share a batch
        # (``max_batch`` stays the hard cap).  ``batch_policy="greedy"``
        # is the pre-controller behaviour: coalesce whatever is
        # waiting, never hold.
        self.controller = (
            controller
            if controller is not None
            else BatchController(policy=batch_policy, metrics=self.metrics)
        )
        self.workers = workers
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    def start(self) -> "SolveEngine":
        for i in range(self.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            worker.start()
            self._threads.append(worker)
        return self

    def stop(self) -> None:
        """Stop admissions, answer stragglers 503, join the workers."""
        self.queue.close()
        for request in self.queue.drain():
            self._finish(
                request,
                503,
                {"status": "rejected", "detail": "server shutting down"},
            )
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()

    def submit(self, request: SolveRequest) -> None:
        """Admit one request (raises ``QueueFullError`` on backpressure)."""
        self.queue.submit(request)

    def health(self) -> dict:
        """Pool and queue occupancy (the tier half of ``/v1/health``)."""
        return {
            "pool_size": len(self.pool),
            "pool_capacity": self.pool.capacity,
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.maxsize,
            "variant": self.pool.variant,
            "c": self.pool.c,
            "batch_policy": self.controller.policy,
            "sessions": len(self.pool.sessions),
        }

    def metrics_snapshot(self) -> dict:
        """The registry plus controller, pool and session blocks (the
        ``/v1/metrics`` body)."""
        snap = self.metrics.snapshot()
        snap["controller"] = self.controller.snapshot()
        snap["pool_entries"] = self.pool.entries_info()
        snap["sessions"] = self.pool.sessions.snapshot()
        return snap

    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self.queue.next_batch(
                max_batch=self.max_batch,
                rider=self.controller.rider,
                window=self.controller.dispatch_window,
                cap=lambda head: self.controller.max_batch_for(
                    head.fingerprint, self.max_batch
                ),
            )
            if batch is None:  # queue closed
                return
            if batch.held_seconds:
                self.controller.observe_hold(
                    batch.fingerprint,
                    riders=batch.held_riders,
                    lanes=len(batch),
                    seconds=batch.held_seconds,
                )
            for request in batch.expired:
                # Swept at pop time: the deadline passed while queued,
                # so the request never occupies a solve lane.
                self.metrics.inc("expired_at_pop")
                self._timeout_queued(request)
            if len(batch) > 1:
                self.metrics.inc("coalesced_batches")
                self.metrics.inc("coalesced_requests", len(batch) - 1)
                self._process_batch(batch)
            elif batch:
                self._process(batch[0], batch.held_seconds)

    def _queue_wait(self, request: SolveRequest, now: float | None = None) -> float:
        """Seconds ``request`` spent queued, observed in ``queue_wait``
        (once per request: at its dispatch or its pop-time expiry)."""
        if now is None:
            now = time.monotonic()
        queue_wait = now - request.enqueued_at
        self.metrics.observe("queue_wait", queue_wait)
        return queue_wait

    def _timeout_queued(
        self, request: SolveRequest, now: float | None = None
    ) -> None:
        """Answer 504: the deadline passed before a solve lane took it."""
        self._finish(
            request,
            504,
            {
                "status": "timeout",
                "detail": "deadline expired while queued",
                "queue_seconds": self._queue_wait(request, now),
            },
        )

    def _fail(self, request: SolveRequest, exc: Exception) -> None:
        """Answer 500 for a solve that raised: a poisoned request must
        not kill the worker."""
        self._finish(
            request,
            500,
            {"status": "error", "detail": f"{type(exc).__name__}: {exc}"},
        )

    def _ok_payload(
        self,
        request: SolveRequest,
        solved,
        queue_wait: float,
        held: float,
        *,
        batch_lanes: int,
    ) -> dict:
        """A ``/v1/solve`` reply: the step block plus the request's own
        fields.  ``held`` is how long the dispatch window kept this
        request's batch open; a rider that joined mid-hold waited less
        than that, all of it in the window."""
        return {
            "status": "ok",
            "fingerprint": request.fingerprint,
            "session": request.session_key,
            "cache_hit": solved.cache_hit,
            "batched": batch_lanes > 1,
            "batch_lanes": batch_lanes,
            "queue_seconds": queue_wait,
            "window_seconds": min(queue_wait, held),
            "runtime_seconds": solved.report.runtime_seconds,
            **self._step_payload(solved),
        }

    def _process(self, request: SolveRequest, held: float = 0.0) -> None:
        if request.expired():
            self._timeout_queued(request)
            return
        queue_wait = self._queue_wait(request)
        if request.kind == "sequence":
            self._process_sequence(request, queue_wait)
        elif request.kind == "scenarios":
            self._process_scenarios(request, queue_wait)
        else:
            self._solve_solo(request, queue_wait, held)

    def _solve_solo(
        self, request: SolveRequest, queue_wait: float, held: float
    ) -> None:
        cpu_t0 = time.thread_time()
        try:
            solved = self.pool.solve(
                request.problems[0],
                fingerprint=request.fingerprint,
                session=request.session_key,
            )
        except Exception as exc:
            self._fail(request, exc)
            return
        if solved.warm and request.session_key is None:
            # Only warm solves inform the cost model: a cold solve's
            # cost is dominated by construction, not the pattern's
            # per-instance solve economics.  Priced in this worker
            # thread's CPU time so concurrent handler threads don't
            # charge their interpreter contention to the solve.
            self.controller.observe_solo(
                request.fingerprint,
                seconds=time.thread_time() - cpu_t0,
                iterations=solved.report.result.iterations,
            )
        self._finish(
            request,
            200,
            self._ok_payload(request, solved, queue_wait, held, batch_lanes=1),
        )

    def _step_payload(self, solved) -> dict:
        """One solve's block: a ``/v1/solve`` reply's core, and each
        step or lane of a streaming reply."""
        result = solved.report.result
        return {
            "warm": solved.warm,
            "delta_bind": solved.delta_bind,
            "compile_seconds": solved.compile_seconds,
            "solve_seconds": solved.solve_seconds,
            "cycles": solved.report.cycles,
            "solved": result.status is SolverStatus.SOLVED,
            "result": result.to_dict(),
        }

    def _process_sequence(self, request: SolveRequest, queue_wait: float) -> None:
        """Run an ordered step list on one session, answer once.

        The deadline is honoured *between* steps: ``should_stop`` is
        the request's own expiry check, so an expired sequence stops
        after the step in flight and answers 504 carrying the steps it
        did complete — the client replays only the tail.
        """
        self.metrics.inc("sequence_requests")
        try:
            solves = self.pool.solve_sequence(
                request.problems,
                fingerprint=request.fingerprint,
                session=request.session_key,
                should_stop=request.expired,
            )
        except Exception as exc:
            self._fail(request, exc)
            return
        self.metrics.inc("sequence_steps", len(solves))
        steps = [self._step_payload(s) for s in solves]
        if len(solves) < len(request.problems):
            self._finish(
                request,
                504,
                {
                    "status": "timeout",
                    "detail": "deadline expired mid-sequence",
                    "queue_seconds": queue_wait,
                    "steps_requested": len(request.problems),
                    "steps_completed": len(solves),
                    "steps": steps,
                },
            )
            return
        self._finish(
            request,
            200,
            {
                "status": "ok",
                "fingerprint": request.fingerprint,
                "session": request.session_key,
                "queue_seconds": queue_wait,
                "steps_completed": len(solves),
                "steps": steps,
            },
        )

    def _process_scenarios(self, request: SolveRequest, queue_wait: float) -> None:
        """Solve N perturbed variants of one pattern in payload order."""
        self.metrics.inc("scenario_requests")
        try:
            solves = self.pool.solve_batch(
                request.problems, fingerprint=request.fingerprint
            )
        except Exception as exc:
            self._fail(request, exc)
            return
        self.metrics.inc("scenario_lanes", len(solves))
        self._finish(
            request,
            200,
            {
                "status": "ok",
                "fingerprint": request.fingerprint,
                "queue_seconds": queue_wait,
                "lanes": len(solves),
                "scenarios": [self._step_payload(s) for s in solves],
            },
        )

    def _process_batch(self, batch: DispatchBatch) -> None:
        """Dispatch a coalesced batch: its live requests solved in FIFO
        order on the pattern's resident solver, each answered the
        moment its own solve finishes.

        Per-request deadlines hold inside the batch: lanes already
        expired at dispatch are answered 504 and dropped before the
        solve, so they never displace or poison their siblings, and a
        failure answers only the live lanes not yet answered.
        """
        now = time.monotonic()
        live: list[SolveRequest] = []
        waits: dict[int, float] = {}
        for request in batch:
            if request.expired(now):
                self._timeout_queued(request, now)
            else:
                live.append(request)
                waits[request.request_id] = self._queue_wait(request, now)
        if not live:
            return
        if len(live) == 1:
            request = live[0]
            self._solve_solo(
                request, waits[request.request_id], batch.held_seconds
            )
            return
        pass_cpu_t0 = time.thread_time()
        solves = []
        try:
            for solved in self.pool.iter_batch(
                [r.problems[0] for r in live], fingerprint=batch.fingerprint
            ):
                # Answered now, under the pool entry's lock, not at the
                # end of the pass: a request waits for the lanes ahead
                # of it and never for the ones behind.
                request = live[len(solves)]
                solves.append(solved)
                self._finish(
                    request,
                    200,
                    self._ok_payload(
                        request,
                        solved,
                        waits[request.request_id],
                        batch.held_seconds,
                        batch_lanes=len(live),
                    ),
                )
        except Exception as exc:
            for request in live[len(solves):]:
                self._fail(request, exc)
            return
        self.metrics.inc("early_responses", len(solves) - 1)
        # Feed the cost model: per-lane iterations, pass cost in this
        # worker's CPU time (comparable to the solo pricing — wall time
        # would bill the pass for the handler threads it wakes with its
        # own early responses).
        self.controller.observe_pass(
            batch.fingerprint,
            lanes=len(live),
            seconds=time.thread_time() - pass_cpu_t0,
            lane_iterations=[s.report.result.iterations for s in solves],
        )

    def _finish(
        self, request: SolveRequest, status_code: int, payload: dict
    ) -> None:
        """Publish a response exactly once and account it."""
        if not request.respond(status_code, payload):
            # The front-end already answered (deadline backstop); a
            # completed solve arriving late is recorded as a timeout
            # casualty, not a served response.
            if status_code == 200:
                self.metrics.inc("timeouts")
            return
        if status_code == 200:
            self.metrics.inc("responses_ok")
        elif status_code == 504:
            self.metrics.inc("timeouts")
        elif status_code == 503:
            self.metrics.inc("rejected")
        else:
            self.metrics.inc("responses_error")
        self.metrics.observe("total", time.monotonic() - request.enqueued_at)
