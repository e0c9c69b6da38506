"""Small stdlib HTTP client for the serve API.

Used by the test suite, the CI smoke job and the closed-loop load
generator (``benchmarks/bench_serve.py``); also the reference for
talking to the service from any other language — the whole protocol is
five JSON endpoints over HTTP/1.1 (three ``POST``, two ``GET``).
"""

from __future__ import annotations

import http.client
import json
import random
import select
import socket
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..io import encode_bounds, problem_to_dict
from ..solver import QPProblem, SolveResult

__all__ = ["ServeClient", "SolveResponse", "StreamResponse"]

# Transport failures worth one retry, on a fresh connection: the server
# (or a shard worker restart behind it) dropped the connection without
# answering, or closed an idle keep-alive connection just as this
# request went out on it.  Safe only for idempotent requests — a solve
# is a pure function of the problem document, and the GET endpoints
# are reads.
_RETRYABLE = (
    ConnectionResetError,
    BrokenPipeError,
    http.client.RemoteDisconnected,
)


@dataclass(frozen=True)
class SolveResponse:
    """One ``POST /v1/solve`` exchange, decoded.

    ``status`` is the service-level outcome (``"ok"``, ``"timeout"``,
    ``"rejected"``, ``"error"``); ``result`` is the decoded
    :class:`~repro.solver.SolveResult` when the solve ran, ``None``
    otherwise.  ``raw`` keeps the full response document.
    """

    http_status: int
    status: str
    raw: dict
    result: SolveResult | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def solved(self) -> bool:
        return self.result is not None and self.result.solved

    @property
    def warm(self) -> bool:
        return bool(self.raw.get("warm", False))

    @property
    def fingerprint(self) -> str | None:
        return self.raw.get("fingerprint")


@dataclass(frozen=True)
class StreamResponse:
    """One ``/v1/sequence`` or ``/v1/scenarios`` exchange, decoded.

    ``results`` holds the decoded per-step (per-lane) results, in
    order, for every step the server completed — a mid-sequence 504
    still carries the completed prefix, so ``len(results)`` may be
    shorter than the request.
    """

    http_status: int
    status: str
    raw: dict
    results: list[SolveResult]

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def steps(self) -> list[dict]:
        return self.raw.get("steps") or self.raw.get("scenarios") or []

    @property
    def delta_binds(self) -> int:
        return sum(1 for step in self.steps if step.get("delta_bind"))


def _step_override(base: QPProblem, step: QPProblem) -> dict:
    """The wire-form override turning ``base`` into ``step``.

    Vectors are always sent (they are small and almost always what
    changed); matrix values ride along only when they actually differ —
    an override without ``a_data``/``p_data`` inherits the base arrays
    *bitwise* server-side, which is what keeps the delta-bind fast path
    reachable through the JSON transport.
    """
    override: dict = {
        "q": step.q.tolist(),
        "l": encode_bounds(step.l),
        "u": encode_bounds(step.u),
    }
    if not np.array_equal(step.a.data, base.a.data):
        override["a_data"] = step.a.data.tolist()
    if not np.array_equal(step.p_upper.data, base.p_upper.data):
        override["p_data"] = step.p_upper.data.tolist()
    return override


def _peer_closed(sock: socket.socket) -> bool:
    """Is an idle keep-alive socket readable — the server's FIN (or a
    reset) waiting, since it sends nothing unasked?"""
    return bool(select.select([sock], [], [], 0)[0])


def _decode(status: int, raw: bytes) -> dict:
    """A response body as JSON; an error status whose body is not JSON
    (the stdlib's own error pages) becomes an error document."""
    try:
        return json.loads(raw)
    except ValueError:
        if status < 400:
            raise
        return {
            "status": "error",
            "detail": f"HTTP {status}: {raw[:200].decode(errors='replace')}",
        }


class ServeClient:
    """Talk to one serve instance (``http://host:port``).

    Each calling thread keeps one persistent HTTP/1.1 connection, so a
    warm request pays no TCP handshake and no new server thread.  A
    connection the server has closed while idle (its idle timeout, or
    ``stop()``) is replaced before it is used; :meth:`close` closes the
    calling thread's connection.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8000,
        base_url: str | None = None,
    ) -> None:
        self.base_url = (base_url or f"http://{host}:{port}").rstrip("/")
        scheme, _, rest = self.base_url.partition("://")
        if scheme != "http" or not rest:
            raise ValueError(
                f"expected an http://host:port URL, got {self.base_url!r}"
            )
        self._netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        """The calling thread's connection, open, with ``timeout`` on
        its socket."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(self._netloc)
        elif conn.sock is not None and _peer_closed(conn.sock):
            conn.close()
        conn.timeout = timeout
        if conn.sock is None:
            conn.connect()  # sets TCP_NODELAY on the new socket
        else:
            conn.sock.settimeout(timeout)
        return conn

    def close(self) -> None:
        """Close the calling thread's connection (the next call on this
        thread opens a new one)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()

    def _request(
        self,
        path: str,
        *,
        body: dict | None = None,
        timeout: float = 60.0,
        retry: bool = True,
    ) -> tuple[int, dict]:
        """One HTTP exchange, with a single jittered retry on a fresh
        connection when the connection dropped (``retry=False`` for
        non-idempotent callers)."""
        data = json.dumps(body).encode() if body is not None else None
        for attempt in (0, 1):
            try:
                conn = self._connection(timeout)
                conn.request(
                    "POST" if data is not None else "GET",
                    self._prefix + path,
                    body=data,
                    headers=(
                        {"Content-Type": "application/json"} if data else {}
                    ),
                )
                response = conn.getresponse()
                status, raw = response.status, response.read()
            except _RETRYABLE:
                self.close()
                if not retry or attempt:
                    raise
            except BaseException:
                # Mid-exchange failure: the connection's framing is
                # unknown, so it is not reused.
                self.close()
                raise
            else:
                return status, _decode(status, raw)
            # Jitter so a burst of clients hitting one dropped worker
            # doesn't retry in lockstep.
            time.sleep(random.uniform(0.05, 0.15))
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    def solve(
        self,
        problem: QPProblem,
        *,
        timeout_s: float | None = None,
        session: str | None = None,
    ) -> SolveResponse:
        """Submit one QP; blocks until the response (or its timeout).

        ``session`` pins the solve to a server-side session: the warm
        start restores that session's carried iterate instead of
        whatever request last touched the pattern.
        """
        body: dict = {"problem": problem_to_dict(problem)}
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        if session is not None:
            body["session"] = session
        http_status, payload = self._request(
            "/v1/solve",
            body=body,
            # The socket outlives the service deadline: the server
            # answers 504 itself; the margin only covers transport.
            timeout=(timeout_s or 30.0) + 10.0,
        )
        result = None
        if payload.get("status") == "ok" and "result" in payload:
            result = SolveResult.from_dict(payload["result"])
        return SolveResponse(
            http_status=http_status,
            status=str(payload.get("status", "error")),
            raw=payload,
            result=result,
        )

    def _stream(
        self,
        path: str,
        field: str,
        base: QPProblem,
        variants: list[QPProblem],
        *,
        session: str | None,
        timeout_s: float | None,
    ) -> StreamResponse:
        body: dict = {
            "problem": problem_to_dict(base),
            field: [_step_override(base, v) for v in variants],
        }
        if session is not None:
            body["session"] = session
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        http_status, payload = self._request(
            path, body=body, timeout=(timeout_s or 30.0) + 10.0
        )
        results = [
            SolveResult.from_dict(block["result"])
            for block in (payload.get("steps") or payload.get("scenarios") or [])
            if "result" in block
        ]
        return StreamResponse(
            http_status=http_status,
            status=str(payload.get("status", "error")),
            raw=payload,
            results=results,
        )

    def sequence(
        self,
        base: QPProblem,
        steps: list[QPProblem],
        *,
        session: str | None = None,
        timeout_s: float | None = None,
    ) -> StreamResponse:
        """Run ordered same-pattern steps on one session, one response.

        Each step is diffed against ``base`` client-side so unchanged
        matrix values never cross the wire (and stay bitwise identical
        server-side — the delta-bind condition).
        """
        return self._stream(
            "/v1/sequence", "steps", base, steps,
            session=session, timeout_s=timeout_s,
        )

    def scenarios(
        self,
        base: QPProblem,
        variants: list[QPProblem],
        *,
        timeout_s: float | None = None,
    ) -> StreamResponse:
        """Solve N same-pattern variants in order, one response."""
        return self._stream(
            "/v1/scenarios", "scenarios", base, variants,
            session=None, timeout_s=timeout_s,
        )

    def health(self) -> dict:
        return self._request("/v1/health")[1]

    def metrics(self) -> dict:
        return self._request("/v1/metrics")[1]
