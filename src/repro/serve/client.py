"""Small stdlib HTTP client for the serve API.

Used by the test suite, the CI smoke job and the closed-loop load
generator (``benchmarks/bench_serve.py``); also the reference for
talking to the service from any other language — the whole protocol is
five endpoints over HTTP/1.1 (three ``POST``, two ``GET``), JSON
replies, and JSON request bodies or, once the server has returned a
pattern's fingerprint, values-only ones (see :mod:`repro.serve.server`).
"""

from __future__ import annotations

import http.client
import json
import random
import select
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..io import encode_bounds, pack_values, problem_to_dict
from ..linalg import CSCMatrix
from ..solver import OSQP_INFTY, QPProblem, SolveResult
from .server import (
    FINGERPRINT_HEADER,
    SESSION_HEADER,
    TIMEOUT_HEADER,
    VALUES_CONTENT_TYPE,
)

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

# Patterns a client remembers the server's fingerprint for (LRU).  A
# forgotten one costs its next request the JSON body, nothing else.
_KNOWN_PATTERNS = 64


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

    @property
    def fingerprint(self) -> str | None:
        return self.raw.get("fingerprint")


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


def _pattern_key(problem: QPProblem) -> bytes:
    """Shapes and CSC index arrays of ``A`` and ``P``'s upper triangle:
    a values body rides only on a byte-equal match."""
    p, a = problem.p_upper, problem.a
    sizes = np.array([*p.shape, p.nnz, *a.shape, a.nnz], dtype=np.int64)
    return b"".join(
        arr.tobytes()
        for arr in (sizes, p.indptr, p.indices, a.indptr, a.indices)
    )


def _canonical(matrix: CSCMatrix) -> bool:
    """Row indices strictly increasing in every column: the order the
    server's JSON decoder sorts entries into, so values in this storage
    order land where the JSON body would put them."""
    rising = np.diff(matrix.indices) > 0
    starts = matrix.indptr[1:-1]
    rising[starts[(starts > 0) & (starts < matrix.nnz)] - 1] = True
    return bool(rising.all())


def _wire_bounds(v: np.ndarray) -> np.ndarray:
    """Bounds as a JSON body delivers them: at or past ``OSQP_INFTY``
    in magnitude, the ``"inf"`` / ``"-inf"`` encoding decodes to
    ``±OSQP_INFTY``."""
    return np.where(
        v >= OSQP_INFTY, OSQP_INFTY, np.where(v <= -OSQP_INFTY, -OSQP_INFTY, v)
    )


def _values_blob(problem: QPProblem, base: QPProblem | None = None) -> bytes:
    """The values of exactly the instance ``problem``'s JSON body
    delivers: bounds as decoded, and — for a variant of ``base`` —
    matrix values equal to the base's as the base's (an override
    without ``a_data`` / ``p_data`` inherits them)."""
    inherit = {}
    if base is not None:
        if np.array_equal(problem.a.data, base.a.data):
            inherit["a_data"] = base.a.data
        if np.array_equal(problem.p_upper.data, base.p_upper.data):
            inherit["p_data"] = base.p_upper.data
    return pack_values(
        problem,
        l=_wire_bounds(problem.l),
        u=_wire_bounds(problem.u),
        **inherit,
    )


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
        # _pattern_key -> fingerprint, least recently used first.
        self._patterns: OrderedDict[bytes, str] = OrderedDict()
        self._patterns_lock = threading.Lock()

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
        body=None,
        headers: dict | None = None,
        timeout: float = 60.0,
        retry: bool = True,
    ) -> tuple[int, dict]:
        """One HTTP exchange, with a single jittered retry on a fresh
        connection when the connection dropped (``retry=False`` for
        non-idempotent callers).  ``body`` is JSON-encoded unless it
        is ``bytes`` (a values body)."""
        if isinstance(body, bytes):
            data = body
            headers = {"Content-Type": VALUES_CONTENT_TYPE, **(headers or {})}
        elif body is not None:
            data = json.dumps(body).encode()
            headers = {"Content-Type": "application/json"}
        else:
            data, headers = None, {}
        for attempt in (0, 1):
            try:
                conn = self._connection(timeout)
                conn.request(
                    "POST" if data is not None else "GET",
                    self._prefix + path,
                    body=data,
                    headers=headers,
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

    def _post(
        self,
        path: str,
        base: QPProblem,
        body: Callable[[], dict],
        blobs: Callable[[], list[bytes]],
        *,
        session: str | None,
        timeout_s: float | None,
    ) -> tuple[int, dict]:
        """POST one request for ``base``'s pattern: its values
        (``blobs()``) when the server returned a fingerprint for the
        pattern, else — or after a 409 — its JSON ``body()`` plus
        ``session`` / ``timeout_s``."""
        # The socket outlives the service deadline: the server answers
        # 504 itself; the margin only covers transport.
        timeout = (timeout_s or 30.0) + 10.0
        key = _pattern_key(base)
        with self._patterns_lock:
            fingerprint = self._patterns.get(key)
            if fingerprint is not None:
                self._patterns.move_to_end(key)
        if fingerprint is not None:
            headers = {FINGERPRINT_HEADER: fingerprint}
            if session is not None:
                headers[SESSION_HEADER] = json.dumps(session)
            if timeout_s is not None:
                headers[TIMEOUT_HEADER] = json.dumps(timeout_s)
            http_status, payload = self._request(
                path, body=b"".join(blobs()), headers=headers, timeout=timeout
            )
            if http_status != 409:
                return http_status, payload
            with self._patterns_lock:
                self._patterns.pop(key, None)
        doc = body()
        for field, value in (("session", session), ("timeout_s", timeout_s)):
            if value is not None:
                doc[field] = value
        http_status, payload = self._request(path, body=doc, timeout=timeout)
        fingerprint = payload.get("fingerprint")
        if fingerprint and _canonical(base.p_upper) and _canonical(base.a):
            with self._patterns_lock:
                self._patterns[key] = fingerprint
                self._patterns.move_to_end(key)
                if len(self._patterns) > _KNOWN_PATTERNS:
                    self._patterns.popitem(last=False)
        return http_status, payload

    # ------------------------------------------------------------------
    def solve(
        self,
        problem: QPProblem,
        *,
        timeout_s: float | None = None,
        session: str | None = None,
    ) -> SolveResponse:
        """Submit one QP; blocks until the response (or its timeout).

        ``session`` pins the solve to a server-side session: it warm
        starts from that session's carried iterate, not from whatever
        request last touched the pattern.
        """
        http_status, payload = self._post(
            "/v1/solve",
            problem,
            lambda: {"problem": problem_to_dict(problem)},
            lambda: [_values_blob(problem)],
            session=session,
            timeout_s=timeout_s,
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
        http_status, payload = self._post(
            path,
            base,
            lambda: {
                "problem": problem_to_dict(base),
                field: [_step_override(base, v) for v in variants],
            },
            lambda: [_values_blob(v, base) for v in variants],
            session=session,
            timeout_s=timeout_s,
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
