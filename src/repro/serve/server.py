"""QP-as-a-service HTTP front-end (pure standard library).

``ServeServer`` composes the subsystem: a ``ThreadingHTTPServer``
accepts connections (one handler thread per connection; HTTP/1.1
keep-alive, so a client's connection and its handler thread serve
request after request), handlers parse and admit requests, and one
execution tier object drains them (both kinds answer the same
``submit`` / ``start`` / ``stop`` / ``health`` / ``metrics_snapshot``
calls):

* **in-process** (default) — a :class:`~repro.serve.engine.SolveEngine`
  owning the warm :class:`~repro.serve.pool.SolverPool`, the bounded
  :class:`~repro.serve.queue.RequestQueue` and the batching
  controller, drained by worker threads;
* **sharded** (``shards=N``) — a
  :class:`~repro.shard.frontend.ShardFrontend` routing each request by
  its pattern fingerprint to one of N worker *processes*, each owning
  a private pool+engine shard (see :mod:`repro.shard`).  The GIL stops
  being the throughput ceiling; results stay bit-identical to the
  in-process path.

The handler thread waits on the request's event up to its deadline —
so a slow solve never wedges the listener, and an expired wait yields
a structured ``TIMEOUT`` body instead of a hung socket.

API (JSON responses; a request body is JSON or, for a pattern the
server already holds, values only):

* ``POST /v1/solve`` — body ``{"problem": <repro-qp-v1 doc>,
  "timeout_s": <float, optional>, "session": <str, optional>}``; 200
  with the solve payload, 400 on malformed input (on every endpoint:
  a ``timeout_s`` that is not a finite positive number, a non-finite
  value in ``q``/``P``/``A``, a bound infinite on the wrong side, a
  ``Content-Length`` that is not a non-negative integer), 413 on a
  body over 64 MiB, 503
  when the queue rejects (backpressure), 504 on deadline expiry.  A
  ``session`` key makes the warm start *sticky*: the solve is one step
  of that session's stream, starting from its carried ``(x, y, ρ)``
  (see DESIGN.md §5.8).
* ``POST /v1/sequence`` — body ``{"problem": <doc>, "steps":
  [<override>, ...], "session": <str, optional>, "timeout_s":
  <float, optional>}`` where each override is an object with any of
  ``q``/``l``/``u`` (bounds use the ``"inf"`` encoding) and
  ``a_data``/``p_data`` (new non-zero values in canonical CSC order,
  ``P`` upper-triangular).  The steps run *in order* on one session
  (fields left out inherit the base document bitwise — the delta-bind
  fast path), answered as one response with per-step payloads; 504
  mid-sequence carries ``steps_completed`` so the client replays only
  the tail.
* ``POST /v1/scenarios`` — body ``{"problem": <doc>, "scenarios":
  [<override>, ...], "timeout_s": <float, optional>}``; solves N
  perturbed variants of one pattern in payload order on its resident
  solver and answers once with per-lane payloads.
* **Values bodies** — any of the three ``POST`` endpoints also takes
  ``Content-Type: application/x-repro-values``: the body is one
  :func:`~repro.io.pack_values` blob per instance, concatenated (one
  for ``/v1/solve``, one per step or lane, at most
  ``MAX_SEQUENCE_STEPS`` / ``MAX_SCENARIO_LANES``), and headers carry
  what the JSON body would: ``X-Repro-Fingerprint`` (the
  ``fingerprint`` an earlier JSON reply returned) and, JSON-encoded,
  ``X-Repro-Session`` / ``X-Repro-Timeout``.  Every JSON body that
  parses whole admits its pattern to the tier's
  :class:`~repro.serve.pool.SolverPool`, whose entries (one LRU of
  ``capacity`` patterns) hold each pattern's structure; a values body
  is decoded against it, through the same value checks, into the same
  instances the JSON body gives.
  A fingerprint the server does not hold is a ``409
  {"status": "unknown_pattern"}`` (resend as JSON); a body its blobs
  do not tile exactly, or whose sizes do not match the pattern, is a
  400.
* ``solve_seconds`` — in a ``/v1/solve`` reply and in each step or
  lane block.  A ``/v1/sequence`` step's is that step's own time (so
  is a session-keyed ``/v1/solve``'s: it is a one-step sequence).  An
  anonymous ``/v1/solve``'s and a ``/v1/scenarios`` lane's is the time
  elapsed since its pass began: a coalesced lane waits for the lanes
  ahead of it.
* ``GET /v1/health`` — liveness + pool occupancy (per-shard liveness
  and pattern residency when sharded; HTTP 207 while degraded).
* ``GET /v1/metrics`` — the :class:`~repro.serve.metrics.ServeMetrics`
  snapshot (aggregated across shards when sharded), including the
  session-store block.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..io import (
    decode_bounds,
    iter_blobs,
    problem_from_dict,
    problem_with_values,
    rebuild_problems,
)
from ..solver import QPProblem
from .controller import BatchController
from .engine import SolveEngine
from .metrics import ServeMetrics
from .pool import SolverPool
from .queue import QueueFullError, RequestQueue, SolveRequest

__all__ = ["ServeServer"]

# A values-only request body and the headers that stand in for the
# JSON body's other fields (session and timeout JSON-encoded, so they
# mean exactly what the JSON field would).
VALUES_CONTENT_TYPE = "application/x-repro-values"
FINGERPRINT_HEADER = "X-Repro-Fingerprint"
SESSION_HEADER = "X-Repro-Session"
TIMEOUT_HEADER = "X-Repro-Timeout"

# Grace added to the handler's event wait beyond the request deadline:
# the worker owns deadline bookkeeping; the handler only backstops it.
_WAIT_GRACE_S = 0.05

# Streaming caps: a sequence holds a session lock for its whole span
# and a scenario fan-out holds its pattern's solver for every lane, so
# both are bounded per request (clients chunk longer streams across
# requests — the session carries the state over).
MAX_SEQUENCE_STEPS = 512
MAX_SCENARIO_LANES = 64

# Largest request body read off a socket; a larger Content-Length is
# answered 413 without reading.  A constant on purpose: it bounds what
# one handler thread can be made to buffer, not a tuning knob.
MAX_BODY_BYTES = 64 << 20

# Seconds a keep-alive connection may sit idle between requests before
# its handler thread closes it.  A constant for the same reason: it
# bounds how long a client that went away without closing holds a
# handler thread.
IDLE_TIMEOUT_S = 30.0

# How long ``stop()`` waits for the handler threads of open
# connections to close their sockets.
_CLOSE_WAIT_S = 5.0

_OVERRIDE_FIELDS = frozenset({"q", "l", "u", "a_data", "p_data"})

# Endpoint -> (its request kind, the JSON field listing its instances,
# most instances per request).  A solve's one instance is the base
# problem itself.
_ENDPOINTS = {
    "/v1/solve": ("solve", None, 1),
    "/v1/sequence": ("sequence", "steps", MAX_SEQUENCE_STEPS),
    "/v1/scenarios": ("scenarios", "scenarios", MAX_SCENARIO_LANES),
}


def _materialize_variants(
    base: QPProblem, raw, cap: int, what: str
) -> list[QPProblem]:
    """Apply a list of wire-form overrides to the base problem."""
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{what!r} must be a non-empty list")
    if len(raw) > cap:
        raise ValueError(
            f"at most {cap} {what} per request (got {len(raw)})"
        )
    variants: list[QPProblem] = []
    for index, override in enumerate(raw):
        if override is None:
            override = {}
        if not isinstance(override, dict):
            raise ValueError(f"{what}[{index}] must be an override object")
        unknown = set(override) - _OVERRIDE_FIELDS
        if unknown:
            raise ValueError(
                f"{what}[{index}] has unknown fields {sorted(unknown)}"
            )
        variants.append(
            problem_with_values(
                base,
                q=(
                    np.asarray(override["q"], dtype=np.float64)
                    if "q" in override
                    else None
                ),
                l=decode_bounds(override["l"]) if "l" in override else None,
                u=decode_bounds(override["u"]) if "u" in override else None,
                a_data=override.get("a_data"),
                p_data=override.get("p_data"),
            )
        )
    return variants


def _json_header(headers, name: str):
    """A JSON-encoded header's value (``None`` when absent)."""
    raw = headers.get(name)
    return None if raw is None else json.loads(raw)


class _HTTPServer(ThreadingHTTPServer):
    # The stdlib default listen backlog of 5 drops SYNs under a
    # concurrent burst; the kernel's 1-second retransmit then shows up
    # as a bimodal ~1s latency tail that has nothing to do with
    # solving.  Size the backlog to the admission bound instead.
    request_queue_size = 128
    daemon_threads = True

    # Every accepted connection until its handler thread closes it, so
    # ``stop()`` can end keep-alive connections parked between
    # requests (daemon handler threads are not joined by the stdlib).
    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
        self._open: set[socket.socket] = set()
        self._open_changed = threading.Condition()

    def process_request(self, request, client_address) -> None:
        # Registered on the accept thread, before the handler thread
        # exists: once ``shutdown()`` returns, every connection is seen.
        with self._open_changed:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self._open_changed:
            self._open.discard(request)
            self._open_changed.notify_all()

    def close_connections(self, timeout: float) -> None:
        """End every open connection and wait for its handler to close.

        Only the read side is shut: a handler parked between requests
        reads EOF and exits, one still writing a response finishes it
        first.
        """
        with self._open_changed:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RD)
                except OSError:  # the peer already closed it
                    pass
            self._open_changed.wait_for(lambda: not self._open, timeout)


class ServeServer:
    """The long-running solve service (embeddable and CLI-run).

    Usable as a context manager::

        with ServeServer(port=0, workers=2) as server:
            client = ServeClient(port=server.port)
            response = client.solve(problem)

    ``workers=0`` starts no drain loop (test hook: requests queue up
    and time out unless drained manually).  ``shards=N`` (N >= 1)
    promotes execution to N worker processes; ``workers`` then counts
    drain threads *per shard*.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        pool: SolverPool | None = None,
        queue_size: int = 64,
        max_batch: int = 16,
        batch_policy: str = "adaptive",
        controller: BatchController | None = None,
        default_timeout_s: float = 30.0,
        shards: int = 0,
        **pool_kwargs,
    ) -> None:
        if shards < 0:
            raise ValueError("shards must be >= 0 (0 = in-process)")
        self.default_timeout_s = default_timeout_s
        self.workers = workers
        self.started_at = time.monotonic()
        # The execution tier: a SolveEngine or a ShardFrontend.  Both
        # take submit / start / stop and answer health /
        # metrics_snapshot; ``engine`` and ``frontend`` name whichever
        # one it is (the other is None).
        self.engine = self.frontend = None
        if shards:
            if pool is not None or controller is not None:
                raise ValueError(
                    "a sharded server builds its pools and controllers "
                    "inside the shard workers; pass pool/controller "
                    "kwargs instead"
                )
            from ..shard import ShardFrontend

            self.tier = self.frontend = ShardFrontend(
                shards=shards,
                workers=workers,
                queue_size=queue_size,
                max_batch=max_batch,
                batch_policy=batch_policy,
                **pool_kwargs,
            )
        else:
            self.tier = self.engine = SolveEngine(
                workers=workers,
                pool=pool,
                queue_size=queue_size,
                max_batch=max_batch,
                batch_policy=batch_policy,
                controller=controller,
                **pool_kwargs,
            )
        self._threads: list[threading.Thread] = []
        self._http = _HTTPServer((host, port), _make_handler(self))
        self.host = host
        self.port = int(self._http.server_address[1])

    # ------------------------------------------------------------------
    # The tier's internals, re-exported for embedders and the test
    # suite (queue / controller raise when sharded: they live in the
    # shard workers).
    # ------------------------------------------------------------------
    @property
    def pool(self) -> SolverPool:
        return self.tier.pool

    @property
    def queue(self) -> RequestQueue:
        return self.engine.queue

    @property
    def controller(self) -> BatchController:
        return self.engine.controller

    @property
    def max_batch(self) -> int:
        return self.tier.max_batch

    @property
    def metrics(self) -> ServeMetrics:
        """The live metrics registry (the in-process engine's, or the
        sharded front-end's admission-side registry)."""
        return self.tier.metrics

    # ------------------------------------------------------------------
    def start(self) -> "ServeServer":
        self.tier.start()
        listener = threading.Thread(
            target=self._http.serve_forever, name="serve-http", daemon=True
        )
        listener.start()
        self._threads.append(listener)
        return self

    def stop(self) -> None:
        """Shut down: stop admissions, answer stragglers, close HTTP.

        Open keep-alive connections are closed too, so no handler
        thread is left to answer a request against the stopped tier: a
        client's next request on one fails with a connection error.
        """
        self.tier.stop()
        self._http.shutdown()
        self._http.server_close()
        self._http.close_connections(_CLOSE_WAIT_S)
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # handler side
    # ------------------------------------------------------------------
    def _parse_timeout(self, raw) -> float:
        """The request's ``timeout_s`` (absent → the server default);
        anything but a finite positive number is the client's error."""
        if raw is None:
            return self.default_timeout_s
        try:
            timeout_s = float(raw)
        except (TypeError, ValueError, OverflowError):
            timeout_s = math.nan
        if not math.isfinite(timeout_s) or timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be a finite positive number, got {raw!r}"
            )
        return timeout_s

    def _admit_and_wait(
        self, request: SolveRequest, timeout_s: float
    ) -> tuple[int, dict]:
        """Submit one request to the execution tier and await it."""
        try:
            self.tier.submit(request)
        except QueueFullError as exc:
            payload = {"status": "rejected", "detail": str(exc)}
            request.respond(503, payload)
            self.metrics.inc("rejected")
            return 503, payload
        if not request.done.wait(timeout=timeout_s + _WAIT_GRACE_S):
            # Deadline backstop: the worker never published (still
            # queued, or mid-solve).  Publish the timeout ourselves;
            # the worker's eventual attempt becomes a no-op.
            if request.respond(
                504,
                {
                    "status": "timeout",
                    "detail": f"no response within {timeout_s}s",
                },
            ):
                self.metrics.inc("timeouts")
                self.metrics.observe(
                    "total", time.monotonic() - request.enqueued_at
                )
        assert request.status_code is not None and request.response is not None
        return request.status_code, request.response

    def _malformed(self, path: str, exc: Exception) -> tuple[int, dict]:
        self.metrics.inc("responses_error")
        return 400, {
            "status": "error",
            "detail": f"malformed {path.rsplit('/', 1)[-1]} payload: {exc}",
        }

    def _admit(
        self,
        path: str,
        problems: list[QPProblem],
        fingerprint: str,
        timeout_s: float,
        session,
    ) -> tuple[int, dict]:
        """Build the endpoint's request from its instances, admit it
        and wait for its response."""
        kind = _ENDPOINTS[path][0]
        request = SolveRequest(
            problems=problems,
            fingerprint=fingerprint,
            kind=kind,
            deadline=time.monotonic() + timeout_s,
            session_key=(
                str(session)
                if session is not None and kind != "scenarios"
                else None
            ),
        )
        return self._admit_and_wait(request, timeout_s)

    def handle_json(self, path: str, body: dict) -> tuple[int, dict]:
        """Admit one parsed JSON request and wait for its response."""
        self.metrics.inc("requests_total")
        _, field, cap = _ENDPOINTS[path]
        try:
            timeout_s = self._parse_timeout(body.get("timeout_s"))
            base = problem_from_dict(body["problem"])
            problems = (
                [base]
                if field is None
                else _materialize_variants(base, body.get(field), cap, field)
            )
            # Only a body that parsed whole admits its pattern: a
            # refused one must not evict a held pattern.
            fingerprint = self.tier.pool.admit(base)
        except Exception as exc:
            return self._malformed(path, exc)
        return self._admit(
            path, problems, fingerprint, timeout_s, body.get("session")
        )

    def handle_values(
        self, path: str, raw: bytes, headers
    ) -> tuple[int, dict]:
        """Admit one values-only request: its blobs decoded against the
        pattern its fingerprint header names."""
        self.metrics.inc("requests_total")
        fingerprint = headers.get(FINGERPRINT_HEADER)
        try:
            timeout_raw = _json_header(headers, TIMEOUT_HEADER)
            session = _json_header(headers, SESSION_HEADER)
            timeout_s = self._parse_timeout(timeout_raw)
            if not fingerprint:
                raise ValueError(f"no {FINGERPRINT_HEADER} header")
        except Exception as exc:
            return self._malformed(path, exc)
        skeleton = self.tier.pool.skeleton(fingerprint)
        if skeleton is None:
            self.metrics.inc("unknown_pattern")
            return 409, {
                "status": "unknown_pattern",
                "detail": f"pattern {fingerprint} is not held here; "
                "send the JSON body",
            }
        try:
            problems = rebuild_problems(
                skeleton, iter_blobs(raw, _ENDPOINTS[path][2])
            )
        except Exception as exc:
            return self._malformed(path, exc)
        self.metrics.inc("values_requests")
        return self._admit(path, problems, fingerprint, timeout_s, session)

    def health(self) -> tuple[int, dict]:
        """The liveness document plus its HTTP status (207 = degraded)."""
        doc = {
            "status": "ok",
            "uptime_s": time.monotonic() - self.started_at,
            "workers": self.workers,
            **self.tier.health(),
        }
        return (207 if doc["status"] == "degraded" else 200), doc

    def metrics_snapshot(self) -> dict:
        """The /v1/metrics payload (aggregated across shards)."""
        return self.tier.metrics_snapshot()


def _make_handler(server: ServeServer) -> type[BaseHTTPRequestHandler]:
    """Bind a handler class to one ServeServer instance."""

    class Handler(BaseHTTPRequestHandler):
        # Keep-alive: a client's connection outlives its request, so a
        # warm request pays no TCP handshake and no thread start.  Nagle
        # off, or the body write after the header write waits on the
        # client's delayed ACK (~40 ms a response).
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True
        timeout = IDLE_TIMEOUT_S

        # Keep the accept loop quiet; the metrics endpoint is the log.
        def log_message(self, *args) -> None:
            pass

        def _send_json(
            self, status_code: int, payload: dict, *, close: bool = False
        ) -> None:
            """One JSON response.  ``close`` ends the connection after
            it — required whenever the request body was not read whole,
            or its unread bytes would parse as the next request."""
            body = json.dumps(payload).encode()
            self.send_response(status_code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close:
                # Also sets self.close_connection.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            # A GET body is never read; one that was sent anyway ends
            # the connection.
            close = (
                self.headers.get("Content-Length", "0") != "0"
                or "Transfer-Encoding" in self.headers
            )
            if self.path == "/v1/health":
                self._send_json(*server.health(), close=close)
            elif self.path == "/v1/metrics":
                self._send_json(200, server.metrics_snapshot(), close=close)
            else:
                self._send_json(
                    404,
                    {"status": "error", "detail": "unknown endpoint"},
                    close=close,
                )

        def do_POST(self) -> None:
            if self.path not in _ENDPOINTS:
                self._send_json(
                    404,
                    {"status": "error", "detail": "unknown endpoint"},
                    close=True,
                )
                return
            values = self.headers.get_content_type() == VALUES_CONTENT_TYPE
            # Content-Length is the peer's claim: judge it before any
            # read (a negative one would park this thread in read(-1)
            # until the peer closes; a huge one is an unbounded read).
            # Every refusal below closes the connection: the body may
            # be unread, or framed some way this handler does not read.
            refusal = 400
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:
                    raise ValueError("Content-Length is negative")
                if length > MAX_BODY_BYTES:
                    refusal = 413
                    raise ValueError(
                        f"body of {length} bytes exceeds the "
                        f"{MAX_BODY_BYTES}-byte limit"
                    )
                # A JSON body's raw bytes are not held through the solve.
                if values:
                    raw = self.rfile.read(length)
                else:
                    body = json.loads(self.rfile.read(length))
                    if not isinstance(body, dict):
                        raise ValueError("request body must be a JSON object")
            except Exception as exc:
                server.metrics.inc("responses_error")
                self._send_json(
                    refusal,
                    {"status": "error", "detail": f"bad request: {exc}"},
                    close=True,
                )
                return
            if values:
                reply = server.handle_values(self.path, raw, self.headers)
            else:
                reply = server.handle_json(self.path, body)
            self._send_json(*reply)

    return Handler
