"""Shard front-end: admission, routing, deadline propagation, demux.

The thin process-local layer between the HTTP handlers (or any other
request source) and the shard worker fleet:

* **admission** — one global in-flight bound (``queue_size``); beyond
  it :class:`~repro.serve.queue.QueueFullError` surfaces as the same
  structured 503 the in-process queue produces.
* **routing** — the request's pattern fingerprint is routed on the
  consistent-hash ring to its home shard, so every pattern compiles
  and stays warm in exactly one worker.  While a shard respawns, its
  patterns re-route to their ring successors; everyone else is
  untouched.
* **transport** — each instance's values are packed as raw float64
  (:func:`~repro.io.pack_values`) and ride the shard's
  pipe inside one ``submit`` message; the pattern's
  :class:`~repro.io.Skeleton` registers once while the shard holds it.
* **deadline propagation** — the request's absolute monotonic deadline
  crosses the pipe; the worker's engine enforces it exactly as the
  in-process engine would, and the HTTP handler's wait backstops it.
* **demux** — one thread per shard turns ``("done", ...)`` messages
  back into :meth:`~repro.serve.queue.SolveRequest.respond` calls.
  The same thread observes worker death (pipe EOF), fails that
  shard's in-flight requests fast as 503, and respawns the worker —
  in-order pipe semantics make "every response before the EOF" a
  protocol guarantee, not a race.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from ..io import Skeleton, pack_values
from ..serve.metrics import ServeMetrics
from ..serve.pool import SolverPool
from ..serve.queue import QueueFullError, SolveRequest
from .manager import ShardManager
from .router import ConsistentHashRouter

__all__ = ["ShardFrontend"]

_QUERY_IDS = itertools.count(1)


@dataclass
class _InFlight:
    request: SolveRequest
    shard_id: int


@dataclass
class _Query:
    shard_id: int
    event: threading.Event = field(default_factory=threading.Event)
    payload: dict | None = None


class ShardFrontend:
    """Route solve requests across N shard worker processes."""

    def __init__(
        self,
        *,
        shards: int,
        workers: int = 2,
        queue_size: int = 64,
        max_batch: int = 16,
        batch_policy: str = "adaptive",
        ready_timeout_s: float = 120.0,
        metrics: ServeMetrics | None = None,
        **pool_kwargs,
    ) -> None:
        self.metrics = metrics if metrics is not None else ServeMetrics()
        # The front end's pattern table: same configuration as the
        # workers' pools (→ same fingerprints), but it never builds a
        # solver, so it stays cold and cheap.
        self.pool = SolverPool(metrics=self.metrics, **pool_kwargs)
        self.queue_size = queue_size
        self.max_batch = max_batch
        self.batch_policy = batch_policy
        self.ready_timeout_s = ready_timeout_s
        self.manager = ShardManager(
            shards=shards,
            worker_config={
                "workers": workers,
                "queue_size": queue_size,
                "max_batch": max_batch,
                "batch_policy": batch_policy,
                "pool_kwargs": dict(pool_kwargs),
            },
        )
        self.router = ConsistentHashRouter(self.manager.shard_ids)
        self._inflight: dict[int, _InFlight] = {}
        self._inflight_lock = threading.Lock()
        self._queries: dict[int, _Query] = {}
        self._query_lock = threading.Lock()
        self._ready_cond = threading.Condition()
        # Guards ``_closed`` against a demux thread's respawn: once
        # stop() holds it and sets the flag, no worker is spawned that
        # the manager's teardown would miss.
        self._lifecycle_lock = threading.Lock()
        self._closed = False
        self._threads: list[threading.Thread] = []
        # Consecutive deaths without an intervening ("ready", ...) —
        # drives exponential respawn backoff so a worker that can never
        # come up (bad config, import failure) degrades the shard
        # instead of melting the host with a spawn storm.
        self._death_streak: dict[int, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardFrontend":
        self.manager.spawn_all()
        for sid in self.manager.shard_ids:
            thread = threading.Thread(
                target=self._demux_loop,
                args=(sid,),
                name=f"shard-demux-{sid}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        deadline = time.monotonic() + self.ready_timeout_s
        with self._ready_cond:
            while not all(
                h.alive for h in self.manager.handles.values()
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    missing = [
                        sid
                        for sid, h in self.manager.handles.items()
                        if not h.alive
                    ]
                    self.stop()
                    raise RuntimeError(
                        f"shard workers {missing} never became ready"
                    )
                self._ready_cond.wait(timeout=remaining)
        return self

    def stop(self) -> None:
        with self._lifecycle_lock:
            self._closed = True
        with self._inflight_lock:
            victims = [e for e in self._inflight.values() if e is not None]
            self._inflight.clear()
        for entry in victims:
            entry.request.respond(
                503,
                {"status": "rejected", "detail": "server shutting down"},
            )
        # Fold each live shard's counters into the front-end registry
        # before tearing the fleet down, so the post-shutdown report
        # shows fleet totals (compiles, warm solves, lanes) rather than
        # the front-end's admission-side series alone.  Counter names
        # are disjoint per side (requests_total is HTTP-side only,
        # responses_ok engine-side only), so this never double-counts,
        # and with every shard gone afterwards metrics_snapshot()
        # degenerates to exactly this folded view.
        for sid in sorted(self.live_shards()):
            snap = self._ask(sid, "metrics", timeout_s=2.0)
            if snap is None:
                continue
            for name, value in snap["counters"].items():
                if value:
                    self.metrics.inc(name, value)
            for size, count in snap.get("batch_sizes", {}).items():
                self.metrics.observe_batch(int(size), count)
        with self._query_lock:
            for query in self._queries.values():
                query.event.set()
            self._queries.clear()
        self.manager.stop()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()

    def live_shards(self) -> set[int]:
        return {
            sid for sid, h in self.manager.handles.items() if h.alive
        }

    def kill_shard(self, shard_id: int) -> None:
        """Failure injection (tests / the recovery smoke): SIGKILL."""
        self.manager.kill(shard_id)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(self, request: SolveRequest) -> None:
        """Admit, route and ship one request (raises ``QueueFullError``
        on backpressure or when no live shard exists)."""
        if self._closed:
            raise QueueFullError("queue is closed")
        with self._inflight_lock:
            if len(self._inflight) >= self.queue_size:
                raise QueueFullError(
                    f"queue full ({self.queue_size} requests pending)"
                )
            # Reserve the slot; filled in once the shard accepts it.
            self._inflight[request.request_id] = None
        try:
            self._dispatch(request)
        except BaseException:
            with self._inflight_lock:
                self._inflight.pop(request.request_id, None)
            raise

    def _dispatch(self, request: SolveRequest) -> None:
        if request.session_key is not None:
            # Session affinity is strict: carried state lives only in
            # the pattern's *home* shard, so re-routing would silently
            # fork the stream onto a cold session.  While the home
            # shard respawns the request fails fast as a 503 — the
            # client replays it and the stream re-warms on the fresh
            # incarnation (sessions are advisory state; see
            # repro.serve.session).
            home = self.router.home(request.fingerprint)
            if home in self.live_shards() and self._ship(home, request):
                return
            self.metrics.inc("session_503")
            raise QueueFullError(
                "session home shard unavailable (respawning); retry shortly"
            )
        # Two attempts: the routed shard can die between the liveness
        # snapshot and the send; the retry re-routes around it.
        for _ in range(2):
            live = self.live_shards()
            shard_id = self.router.route(request.fingerprint, live=live)
            if shard_id is None:
                raise QueueFullError(
                    "no live shard (workers respawning); retry shortly"
                )
            if shard_id != self.router.home(request.fingerprint):
                self.metrics.inc("shard_reroutes")
            if self._ship(shard_id, request):
                return
        raise QueueFullError("shard worker unavailable; retry shortly")

    def _ship(self, shard_id: int, request: SolveRequest) -> bool:
        """Send one request to one shard; ``False`` = pick another."""
        handle = self.manager.handles[shard_id]
        payloads = [pack_values(p) for p in request.problems]
        with handle.lock:
            if not handle.alive or handle.conn is None:
                return False
            try:
                # The shard's registry is an LRU of the pool's capacity
                # kept here; a register names the pattern it evicts and
                # the worker drops it (DESIGN.md §5.6).  In-order pipe
                # delivery puts a skeleton before its requests.
                registered, fp = handle.registered, request.fingerprint
                if fp in registered:
                    registered.move_to_end(fp)
                else:
                    dropped = None
                    if len(registered) >= self.pool.capacity:
                        dropped = registered.popitem(last=False)[0]
                    skeleton = Skeleton.of(request.problems[0])
                    handle.conn.send(("register", fp, skeleton, dropped))
                    registered[fp] = None
                with self._inflight_lock:
                    self._inflight[request.request_id] = _InFlight(
                        request=request, shard_id=shard_id
                    )
                handle.conn.send(
                    (
                        "submit",
                        request.request_id,
                        request.fingerprint,
                        request.deadline,
                        request.session_key,
                        request.kind,
                        payloads,
                    )
                )
                return True
            except (BrokenPipeError, OSError):
                # The demux thread will see the EOF and respawn; undo
                # our half-shipped state and let the caller re-route.
                handle.alive = False
                with self._inflight_lock:
                    if request.request_id in self._inflight:
                        self._inflight[request.request_id] = None
                return False

    # ------------------------------------------------------------------
    # demux side
    # ------------------------------------------------------------------
    def _demux_loop(self, shard_id: int) -> None:
        handle = self.manager.handles[shard_id]
        while not self._closed:
            with handle.lock:
                conn = handle.conn
            if conn is None:
                return
            try:
                message = conn.recv()
            except (EOFError, OSError):
                if self._closed:
                    return
                self._handle_death(shard_id)
                continue
            kind = message[0]
            if kind == "ready":
                self._death_streak[shard_id] = 0
                with handle.lock:
                    handle.alive = True
                with self._ready_cond:
                    self._ready_cond.notify_all()
            elif kind == "done":
                self._handle_done(*message[1:])
            elif kind in ("metrics", "health"):
                query_id, payload = message[1], message[2]
                with self._query_lock:
                    query = self._queries.pop(query_id, None)
                if query is not None:
                    query.payload = payload
                    query.event.set()

    def _handle_done(
        self, req_id: int, status_code: int, payload: dict
    ) -> None:
        with self._inflight_lock:
            entry = self._inflight.pop(req_id, None)
        if entry is None:
            return  # already failed (death sweep) or shut down
        if entry.request.respond(status_code, payload):
            self.metrics.observe(
                "total", time.monotonic() - entry.request.enqueued_at
            )
        elif status_code == 200:
            # The handler's deadline backstop already answered.
            self.metrics.inc("timeouts")

    def _handle_death(self, shard_id: int) -> None:
        """Fail fast, then respawn (runs on the shard's demux thread)."""
        self.metrics.inc("shard_respawns")
        self.manager.reap(shard_id)
        with self._inflight_lock:
            victims = [
                (rid, entry)
                for rid, entry in self._inflight.items()
                if entry is not None and entry.shard_id == shard_id
            ]
            for rid, _ in victims:
                self._inflight.pop(rid, None)
        for _, entry in victims:
            self.metrics.inc("shard_death_503")
            self.metrics.inc("rejected")
            if entry.request.session_key is not None:
                # The home shard's sessions died with it; the client's
                # replay will start a fresh cold session there.
                self.metrics.inc("session_503")
            entry.request.respond(
                503,
                {
                    "status": "rejected",
                    "detail": "shard worker died; request failed fast "
                    "(respawn in progress)",
                },
            )
        with self._query_lock:
            dead_queries = [
                qid
                for qid, query in self._queries.items()
                if query.shard_id == shard_id
            ]
            for qid in dead_queries:
                self._queries.pop(qid).event.set()
        if self._closed:
            return
        streak = self._death_streak.get(shard_id, 0)
        self._death_streak[shard_id] = streak + 1
        if streak:
            # Death before ever reaching "ready": back off before the
            # next attempt (this runs on the shard's own demux thread,
            # so the sleep stalls nobody else).
            time.sleep(min(2.0, 0.05 * (2 ** min(streak, 6))))
        with self._lifecycle_lock:
            if not self._closed:
                self.manager.spawn(shard_id)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _ask(
        self, shard_id: int, kind: str, timeout_s: float = 5.0
    ) -> dict | None:
        handle = self.manager.handles[shard_id]
        query_id = next(_QUERY_IDS)
        query = _Query(shard_id=shard_id)
        with self._query_lock:
            self._queries[query_id] = query
        with handle.lock:
            if not handle.alive or handle.conn is None:
                with self._query_lock:
                    self._queries.pop(query_id, None)
                return None
            try:
                handle.conn.send((kind, query_id))
            except (BrokenPipeError, OSError):
                with self._query_lock:
                    self._queries.pop(query_id, None)
                return None
        query.event.wait(timeout=timeout_s)
        with self._query_lock:
            self._queries.pop(query_id, None)
        return query.payload

    def health(self) -> dict:
        """Per-shard liveness + pattern residency (the /v1/health body)."""
        shards: dict[str, dict] = {}
        live = 0
        total_resident = 0
        for sid in self.manager.shard_ids:
            handle = self.manager.handles[sid]
            if not handle.alive:
                shards[str(sid)] = {
                    "alive": False,
                    "respawning": True,
                    "respawns": handle.respawns,
                }
                continue
            doc = self._ask(sid, "health") or {}
            live += 1
            resident = int(doc.get("patterns_resident", 0))
            total_resident += resident
            shards[str(sid)] = {
                "alive": True,
                "pid": handle.pid,
                "generation": handle.generation,
                "patterns_resident": resident,
                "patterns_registered": doc.get("patterns_registered", 0),
                "fingerprints": doc.get("fingerprints", []),
                "queue_depth": doc.get("queue_depth", 0),
                "solved": doc.get("solved", 0),
            }
        degraded = live < len(self.manager.shard_ids)
        with self._inflight_lock:
            inflight = len(self._inflight)
        return {
            "status": "degraded" if degraded else "ok",
            "sharded": True,
            "shard_count": len(self.manager.shard_ids),
            "live_shards": live,
            "shards": shards,
            "patterns_resident": total_resident,
            "queue_depth": inflight,
            "queue_capacity": self.queue_size,
            "variant": self.pool.variant,
            "c": self.pool.c,
            "batch_policy": self.batch_policy,
        }

    def metrics_snapshot(self) -> dict:
        """One aggregated registry view across the fleet.

        Counters are summed over the front-end registry and every live
        shard's registry; the headline latency series is the
        front-end's end-to-end ``total`` view; per-shard snapshots ride
        along unaggregated (histograms cannot be merged exactly).
        """
        front = self.metrics.snapshot()
        shard_snaps: dict[str, dict] = {}
        for sid in sorted(self.live_shards()):
            snap = self._ask(sid, "metrics")
            if snap is not None:
                shard_snaps[str(sid)] = snap
        counters = dict(front["counters"])
        batch_sizes: dict[str, int] = dict(front["batch_sizes"])
        for snap in shard_snaps.values():
            for name, value in snap["counters"].items():
                counters[name] = counters.get(name, 0) + value
            for size, count in snap.get("batch_sizes", {}).items():
                batch_sizes[size] = batch_sizes.get(size, 0) + count
        lookups = counters["pool_hits"] + counters["pool_misses"]
        sessions = {"active": 0, "steps_total": 0, "delta_binds_total": 0}
        for snap in shard_snaps.values():
            block = snap.get("sessions")
            if block:
                for key in sessions:
                    sessions[key] += block.get(key, 0)
        return {
            "counters": counters,
            "latency": front["latency"],
            "batch_sizes": dict(sorted(batch_sizes.items())),
            "pool_hit_rate": (
                counters["pool_hits"] / lookups if lookups else 0.0
            ),
            "sharded": True,
            "shards": shard_snaps,
            "sessions": sessions,
        }
