"""Shard worker process: one private solve engine behind a pipe.

Each worker owns a full serve execution stack — warm
:class:`~repro.serve.pool.SolverPool`, bounded queue, adaptive
:class:`~repro.serve.controller.BatchController`,
optionally an on-disk schedule cache shared read-mostly
with its siblings — wrapped in a
:class:`~repro.serve.engine.SolveEngine`.  Nothing here knows about
HTTP: the worker speaks the shard protocol over one duplex pipe.

Protocol (parent → worker):

* ``("register", fingerprint, skeleton, dropped)`` — hold the
  pattern's :class:`~repro.io.Skeleton` and forget ``dropped`` (the
  pattern this registration evicted from the front end's mirror, an
  LRU of the pool's ``capacity``, or ``None``), so the registry equals
  the mirror at every point of the pipe.
* ``("submit", req_id, fingerprint, deadline, session, kind,
  payloads)`` — one request of ``kind`` ``"solve"``, ``"sequence"``
  or ``"scenarios"``.  ``payloads`` holds one
  :func:`~repro.io.pack_values` blob per instance (one
  for a solve, one per step or lane otherwise).  ``deadline`` is an
  absolute ``time.monotonic()`` value — comparable across processes
  on the platforms this serves (Linux CLOCK_MONOTONIC is
  system-wide).  ``session`` pins the request to the worker's session
  store (sticky warm start); session state lives and dies with the
  incarnation.
* ``("metrics", query_id)`` / ``("health", query_id)`` — observability
  snapshots.
* ``("stop",)`` — drain and exit.

Worker → parent:

* ``("ready", shard_id, pid)`` — engine is up (sent once per
  incarnation; the front-end routes to this shard only after it).
* ``("done", req_id, status_code, payload)`` — the response, forwarded
  the moment the engine publishes it (early batched lanes included).
* ``("metrics", query_id, snapshot)`` / ``("health", query_id, doc)``.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from ..io import Skeleton, rebuild_problems, unpack_values
from ..serve.engine import SolveEngine
from ..serve.queue import KINDS, QueueFullError, SolveRequest

__all__ = ["ShardWorker", "shard_worker_main"]


class ShardWorker:
    """The in-process half of one shard (testable without fork/spawn)."""

    def __init__(self, shard_id: int, conn, config: dict) -> None:
        self.shard_id = shard_id
        self.conn = conn
        self.engine = SolveEngine(
            workers=max(1, int(config.get("workers", 1))),
            queue_size=int(config.get("queue_size", 64)),
            max_batch=int(config.get("max_batch", 16)),
            batch_policy=str(config.get("batch_policy", "adaptive")),
            **config.get("pool_kwargs", {}),
        )
        self._skeletons: dict[str, Skeleton] = {}
        self._send_lock = threading.Lock()
        self.started_at = time.monotonic()

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
            _, fingerprint, skeleton, dropped = message
            self._skeletons.pop(dropped, None)
            self._skeletons[fingerprint] = skeleton
        elif kind == "submit":
            self._handle_submit(*message[1:])
        elif kind == "metrics":
            self._send(("metrics", message[1], self.engine.metrics_snapshot()))
        elif kind == "health":
            self._send(("health", message[1], self.health()))
        else:
            # Unknown message kinds are protocol bugs; fail loudly
            # enough for the demux thread's logs without killing the
            # worker.
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
            # The engine counts each 200 under its metrics lock, from
            # every drain thread.
            "solved": self.engine.metrics.count("responses_ok"),
            "sessions": len(self.engine.pool.sessions),
        }

    # ------------------------------------------------------------------
    def _handle_submit(
        self,
        req_id: int,
        fingerprint: str,
        deadline: float | None,
        session: str | None,
        kind: str,
        payloads: list,
    ) -> None:
        """Rebuild one request's instances and hand it to the engine."""

        def finish(status_code: int, payload: dict) -> None:
            self._send(("done", req_id, status_code, payload))

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
        try:
            if kind not in KINDS:
                raise ValueError(f"unknown request kind {kind!r}")
            if not payloads:
                raise ValueError("empty payload list")
            if kind == "solve" and len(payloads) != 1:
                raise ValueError("a solve carries exactly one payload")
            problems = rebuild_problems(
                skeleton, (unpack_values(blob) for blob in payloads)
            )
        except Exception as exc:
            finish(
                400,
                {"status": "error", "detail": f"{type(exc).__name__}: {exc}"},
            )
            return
        request = SolveRequest(
            problems=problems,
            fingerprint=fingerprint,
            kind=kind,
            deadline=deadline,
            on_done=lambda done: finish(done.status_code, done.response),
            session_key=session,
        )
        try:
            self.engine.submit(request)
        except QueueFullError as exc:
            # on_done fires through respond(), keeping the response
            # path single.
            request.respond(503, {"status": "rejected", "detail": str(exc)})


def shard_worker_main(shard_id: int, conn, config: dict) -> None:
    """Process entry point (spawn-safe: module-level, picklable args)."""
    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group, workers included.  Shutdown is parent-driven (a "stop"
    # message, pipe EOF, or SIGKILL), so ignore the signal here rather
    # than dying mid-protocol with a KeyboardInterrupt traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    ShardWorker(shard_id, conn, config).run()
