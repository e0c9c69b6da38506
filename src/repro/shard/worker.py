"""Shard worker process: one private solve engine behind a pipe.

Each worker owns a full serve execution stack — warm
:class:`~repro.serve.pool.SolverPool`, bounded queue, adaptive
:class:`~repro.serve.controller.BatchController`,
optionally an on-disk schedule cache shared read-mostly
with its siblings — wrapped in a
:class:`~repro.serve.engine.SolveEngine`.  Nothing here knows about
HTTP: the worker speaks the shard protocol over one duplex pipe.

Protocol (parent → worker):

* ``("register", fingerprint, problem_doc)`` — cache the pattern's
  skeleton (``repro-qp-v1`` document).  Sent once per pattern per
  worker incarnation; pipe ordering guarantees it precedes the
  pattern's first solve.
* ``("solve", req_id, fingerprint, deadline, slab_index, nbytes,
  inline, session)`` — solve one instance; values come from the
  shared-memory slab (``inline=None``) or inline bytes (ring
  saturated / oversized payload).  ``deadline`` is an absolute
  ``time.monotonic()`` value — comparable across processes on the
  platforms this serves (Linux CLOCK_MONOTONIC is system-wide).
  ``session`` pins the solve to the worker's session store (sticky
  warm start); session state lives and dies with the incarnation.
* ``("sequence", req_id, fingerprint, deadline, session, payloads)`` /
  ``("scenarios", req_id, fingerprint, deadline, payloads)`` — an
  ordered step list on one session / a scenario fan-out; ``payloads``
  are packed value blobs (one per step), inline on the pipe — the
  response is singular so no slab cadence applies.
* ``("metrics", query_id)`` / ``("health", query_id)`` — observability
  snapshots.
* ``("stop",)`` — drain and exit.

Worker → parent:

* ``("ready", shard_id, pid)`` — engine is up (sent once per
  incarnation; the front-end routes to this shard only after it).
* ``("done", req_id, slab_index, status_code, payload)`` — the
  response, forwarded the moment the engine publishes it (early
  batched lanes included); the front-end frees the slab on receipt.
* ``("metrics", query_id, snapshot)`` / ``("health", query_id, doc)``.

The worker never frees slabs and copies values out during decode, so
a crashed worker leaves the ring reclaimable by the front-end alone.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from ..io import problem_from_dict
from ..serve.engine import SolveEngine
from ..serve.queue import QueueFullError, SolveRequest
from ..solver import QPProblem
from .transport import SlabRing, rebuild_problem, unpack_values

__all__ = ["ShardWorker", "shard_worker_main"]


class ShardWorker:
    """The in-process half of one shard (testable without fork/spawn)."""

    def __init__(
        self,
        shard_id: int,
        conn,
        ring: SlabRing | None,
        config: dict,
    ) -> None:
        self.shard_id = shard_id
        self.conn = conn
        self.ring = ring
        self.engine = SolveEngine(
            workers=max(1, int(config.get("workers", 1))),
            queue_size=int(config.get("queue_size", 64)),
            max_batch=int(config.get("max_batch", 16)),
            batch_policy=str(config.get("batch_policy", "adaptive")),
            **config.get("pool_kwargs", {}),
        )
        self._skeletons: dict[str, QPProblem] = {}
        self._send_lock = threading.Lock()
        self.started_at = time.monotonic()
        self.solved = 0

    # ------------------------------------------------------------------
    def _send(self, message: tuple) -> None:
        # Connection.send is not thread-safe; engine worker threads and
        # the control loop share the pipe.
        with self._send_lock:
            self.conn.send(message)

    # ------------------------------------------------------------------
    def run(self) -> None:
        self.engine.start()
        self._send(("ready", self.shard_id, os.getpid()))
        try:
            while True:
                try:
                    message = self.conn.recv()
                except (EOFError, OSError):
                    # Front-end went away: nothing to answer to.
                    break
                if not self.handle(message):
                    break
        finally:
            self.engine.stop()

    def handle(self, message: tuple) -> bool:
        """Process one control message; ``False`` ends the loop."""
        kind = message[0]
        if kind == "stop":
            return False
        if kind == "register":
            _, fingerprint, doc = message
            self._skeletons[fingerprint] = problem_from_dict(doc)
            return True
        if kind == "solve":
            self._handle_solve(*message[1:])
            return True
        if kind == "sequence":
            self._handle_stream(*message[1:], scenarios=False)
            return True
        if kind == "scenarios":
            req_id, fingerprint, deadline, payloads = message[1:]
            self._handle_stream(
                req_id, fingerprint, deadline, None, payloads,
                scenarios=True,
            )
            return True
        if kind == "metrics":
            query_id = message[1]
            snap = self.engine.metrics.snapshot()
            snap["controller"] = self.engine.controller.snapshot()
            snap["pool_entries"] = self.engine.pool.entries_info()
            snap["sessions"] = self.engine.pool.sessions.snapshot()
            self._send(("metrics", query_id, snap))
            return True
        if kind == "health":
            query_id = message[1]
            self._send(("health", query_id, self.health()))
            return True
        # Unknown message kinds are protocol bugs; fail loudly enough
        # for the demux thread's logs without killing the worker.
        self._send(("error", f"unknown message kind {kind!r}"))
        return True

    def health(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "pid": os.getpid(),
            "uptime_s": time.monotonic() - self.started_at,
            "patterns_resident": len(self.engine.pool),
            "patterns_registered": len(self._skeletons),
            "fingerprints": self.engine.pool.fingerprints(),
            "queue_depth": len(self.engine.queue),
            "solved": self.solved,
            "sessions": len(self.engine.pool.sessions),
        }

    # ------------------------------------------------------------------
    def _handle_solve(
        self,
        req_id: int,
        fingerprint: str,
        deadline: float | None,
        slab_index: int | None,
        nbytes: int,
        inline: bytes | None,
        session: str | None = None,
    ) -> None:
        def finish(status_code: int, payload: dict) -> None:
            self._send(("done", req_id, slab_index, status_code, payload))

        try:
            skeleton = self._skeletons.get(fingerprint)
            if skeleton is None:
                finish(
                    500,
                    {
                        "status": "error",
                        "detail": "pattern was never registered with "
                        "this shard incarnation",
                    },
                )
                return
            if inline is not None:
                payload = inline
            else:
                payload = self.ring.read(slab_index, nbytes)
            problem = rebuild_problem(skeleton, unpack_values(payload))
        except Exception as exc:
            finish(
                400,
                {"status": "error", "detail": f"{type(exc).__name__}: {exc}"},
            )
            return

        def forward(request: SolveRequest) -> None:
            self.solved += request.status_code == 200
            finish(request.status_code, request.response)

        request = SolveRequest(
            problem=problem,
            fingerprint=fingerprint,
            deadline=deadline,
            on_done=forward,
            session_key=session,
        )
        try:
            self.engine.submit(request)
        except QueueFullError as exc:
            # on_done fires through respond(), keeping the response
            # path single.
            request.respond(503, {"status": "rejected", "detail": str(exc)})

    def _handle_stream(
        self,
        req_id: int,
        fingerprint: str,
        deadline: float | None,
        session: str | None,
        payloads: list,
        *,
        scenarios: bool,
    ) -> None:
        """Rebuild a multi-instance request and hand it to the engine."""

        def finish(status_code: int, payload: dict) -> None:
            self._send(("done", req_id, None, status_code, payload))

        try:
            skeleton = self._skeletons.get(fingerprint)
            if skeleton is None:
                finish(
                    500,
                    {
                        "status": "error",
                        "detail": "pattern was never registered with "
                        "this shard incarnation",
                    },
                )
                return
            problems = [
                rebuild_problem(skeleton, unpack_values(blob))
                for blob in payloads
            ]
            if not problems:
                raise ValueError("empty step list")
        except Exception as exc:
            finish(
                400,
                {"status": "error", "detail": f"{type(exc).__name__}: {exc}"},
            )
            return

        def forward(request: SolveRequest) -> None:
            self.solved += request.status_code == 200
            finish(request.status_code, request.response)

        request = SolveRequest(
            problem=problems[0],
            fingerprint=fingerprint,
            deadline=deadline,
            on_done=forward,
            session_key=session,
            steps=None if scenarios else problems,
            scenarios=problems if scenarios else None,
        )
        try:
            self.engine.submit(request)
        except QueueFullError as exc:
            request.respond(503, {"status": "rejected", "detail": str(exc)})


def shard_worker_main(
    shard_id: int,
    conn,
    shm_name: str | None,
    slabs: int,
    slab_size: int,
    config: dict,
) -> None:
    """Process entry point (spawn-safe: module-level, picklable args)."""
    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group, workers included.  Shutdown is parent-driven (a "stop"
    # message, pipe EOF, or SIGKILL), so ignore the signal here rather
    # than dying mid-protocol with a KeyboardInterrupt traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    ring = None
    if shm_name is not None:
        ring = SlabRing.attach(shm_name, slabs=slabs, slab_size=slab_size)
    try:
        ShardWorker(shard_id, conn, ring, config).run()
    finally:
        if ring is not None:
            ring.close()
