"""Shard process lifecycle: spawn, monitor, respawn, tear down.

The :class:`ShardManager` owns everything per-shard that outlives a
worker incarnation — the :class:`ShardHandle` bookkeeping — plus the
machinery to (re)spawn the worker process behind it.  Routing,
demultiplexing and request state live one layer up in
:class:`~repro.shard.frontend.ShardFrontend`; keeping the manager
mechanism-only makes the crash path easy to reason about: a respawn
is "new pipe, new process, same shard id", so the consistent-hash
ring never moves a pattern because of a crash.

Workers are started with the ``spawn`` context: the front-end runs
inside a threaded HTTP server, and forking a threaded process is how
you inherit dead locks.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from .worker import shard_worker_main

__all__ = ["ShardHandle", "ShardManager"]


@dataclass
class ShardHandle:
    """One shard slot: the stable identity plus its current worker."""

    shard_id: int
    conn: object | None = None  # parent end of the duplex pipe
    process: object | None = None
    alive: bool = False  # flipped by the front-end on ("ready", ...)
    generation: int = 0  # incremented per (re)spawn
    pid: int | None = None
    respawns: int = 0
    # Mirror of the current incarnation's pattern registry (an LRU the
    # front end bounds); cleared per incarnation.
    registered: OrderedDict[str, None] = field(default_factory=OrderedDict)
    lock: threading.Lock = field(default_factory=threading.Lock)


class ShardManager:
    """Spawn and supervise N shard worker processes."""

    def __init__(
        self,
        *,
        shards: int,
        worker_config: dict,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.worker_config = worker_config
        self._ctx = multiprocessing.get_context("spawn")
        self.handles: dict[int, ShardHandle] = {
            sid: ShardHandle(shard_id=sid) for sid in range(shards)
        }

    @property
    def shard_ids(self) -> list[int]:
        return sorted(self.handles)

    # ------------------------------------------------------------------
    def spawn(self, shard_id: int) -> ShardHandle:
        """(Re)start one shard's worker process (same slot, new pipe)."""
        handle = self.handles[shard_id]
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=shard_worker_main,
            name=f"repro-shard-{shard_id}",
            args=(shard_id, child_conn, self.worker_config),
            daemon=True,
        )
        process.start()
        # Close the parent's copy of the child end so a dead worker
        # surfaces as EOF on ``parent_conn.recv()`` immediately.
        child_conn.close()
        with handle.lock:
            handle.conn = parent_conn
            handle.process = process
            handle.generation += 1
            handle.respawns = handle.generation - 1
            handle.pid = process.pid
            handle.alive = False
            handle.registered.clear()
        return handle

    def spawn_all(self) -> None:
        for sid in self.shard_ids:
            self.spawn(sid)

    # ------------------------------------------------------------------
    def kill(self, shard_id: int) -> None:
        """SIGKILL one worker (failure injection for tests/CI)."""
        process = self.handles[shard_id].process
        if process is not None and process.is_alive():
            process.kill()

    def reap(self, shard_id: int) -> None:
        """Collect a dead incarnation's process and pipe."""
        handle = self.handles[shard_id]
        with handle.lock:
            conn, process = handle.conn, handle.process
            handle.alive = False
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if process is not None:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Graceful shutdown of every worker."""
        deadline = time.monotonic() + 10.0
        for handle in self.handles.values():
            if handle.conn is not None:
                try:
                    handle.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for handle in self.handles.values():
            if handle.process is not None:
                handle.process.join(
                    timeout=max(0.1, deadline - time.monotonic())
                )
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=2.0)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
            handle.alive = False
