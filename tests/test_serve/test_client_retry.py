"""Unit tests for the client's transport: one persistent connection per
thread, and the retry-once-on-dropped-connection path.

No server: ``http.client.HTTPConnection`` is monkeypatched with a fake
whose exchanges fail with transport errors on demand, so the tests pin
down exactly which failures are retried (connection drops on idempotent
requests, once, on a fresh connection) and which propagate (second
drops, non-retryable errors, ``retry=False``).  A fake connection's
socket is one end of a local ``socketpair``, so "the server closed the
idle connection" is the other end closing.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.serve import ServeClient


class FakeResponse:
    def __init__(self, status: int, payload: dict) -> None:
        self.status = status
        self._body = json.dumps(payload).encode()

    def read(self) -> bytes:
        return self._body


class FakeConnection:
    """Stands in for ``http.client.HTTPConnection``.

    Each queued error is ``(stage, exception)`` with stage ``"send"``
    (raised by ``request``) or ``"response"`` (by ``getresponse``), and
    fires once, on whichever connection reaches that stage next.
    """

    def __init__(self, net, host: str) -> None:
        self.net = net
        self.host = host
        self.timeout = None
        self.sock: socket.socket | None = None
        self.peer: socket.socket | None = None
        net.connections.append(self)

    def connect(self) -> None:
        self.sock, self.peer = socket.socketpair()
        self.sock.settimeout(self.timeout)
        self.net.sockets.append(self.sock)

    def close(self) -> None:
        for end in (self.sock, self.peer):
            if end is not None:
                end.close()
        self.sock = self.peer = None

    def _fail(self, stage: str) -> None:
        if self.net.errors and self.net.errors[0][0] == stage:
            raise self.net.errors.pop(0)[1]

    def request(self, method, url, body=None, headers=None) -> None:
        self.net.calls.append(
            (self.sock, body, self.sock.gettimeout(), headers)
        )
        self._fail("send")

    def getresponse(self) -> FakeResponse:
        self._fail("response")
        if self.net.replies:
            return FakeResponse(*self.net.replies.pop(0))
        return FakeResponse(self.net.status, self.net.payload)


class FakeNet:
    def __init__(self, errors, payload: dict, status: int = 200) -> None:
        self.errors = list(errors)
        self.payload = payload
        self.status = status
        self.connections: list[FakeConnection] = []
        # One socket per connect: a reconnect reuses the connection
        # object with a fresh socket.
        self.sockets: list[socket.socket] = []
        # (socket, body, socket timeout, headers)
        self.calls: list[tuple] = []
        # (status, payload) answered ahead of the default, in order.
        self.replies: list[tuple[int, dict]] = []


@pytest.fixture
def client():
    return ServeClient(port=1)  # never actually connected


@pytest.fixture
def no_sleep(monkeypatch):
    naps: list[float] = []
    monkeypatch.setattr(
        "repro.serve.client.time.sleep", lambda s: naps.append(s)
    )
    return naps


def flaky_net(monkeypatch, errors, payload: dict, status: int = 200) -> FakeNet:
    """Connections that raise each queued error once, then succeed."""
    net = FakeNet(errors, payload, status)
    monkeypatch.setattr(
        "http.client.HTTPConnection", lambda host: FakeConnection(net, host)
    )
    return net


class TestRetryOnce:
    @pytest.mark.parametrize(
        "error",
        [
            ("response", ConnectionResetError("peer reset")),
            ("send", BrokenPipeError("broken pipe")),
            ("response", http.client.RemoteDisconnected("closed before response")),
            # urllib used to deliver a reset while sending wrapped in URLError.
            ("send", ConnectionResetError("wrapped reset")),
        ],
    )
    def test_dropped_connection_is_retried(
        self, client, monkeypatch, no_sleep, error
    ):
        net = flaky_net(monkeypatch, [error], {"status": "ok"})
        status, payload = client._request("/v1/health")
        assert (status, payload) == (200, {"status": "ok"})
        assert len(net.calls) == 2
        # The retry goes out on a fresh socket; the dropped one is closed.
        assert [call[0] for call in net.calls] == net.sockets
        assert len(net.sockets) == 2 and net.sockets[0].fileno() == -1
        # Backoff is jittered, not zero and not a fixed lockstep value.
        assert len(no_sleep) == 1 and 0.05 <= no_sleep[0] <= 0.15

    def test_second_drop_propagates(self, client, monkeypatch, no_sleep):
        flaky_net(
            monkeypatch,
            [
                ("response", ConnectionResetError("a")),
                ("response", ConnectionResetError("b")),
            ],
            {"status": "ok"},
        )
        with pytest.raises(ConnectionResetError, match="b"):
            client._request("/v1/health")

    def test_retry_false_propagates_immediately(
        self, client, monkeypatch, no_sleep
    ):
        net = flaky_net(
            monkeypatch, [("response", ConnectionResetError("a"))],
            {"status": "ok"},
        )
        with pytest.raises(ConnectionResetError):
            client._request("/v1/health", retry=False)
        assert len(net.calls) == 1 and not no_sleep

    def test_non_retryable_urlerror_propagates(
        self, client, monkeypatch, no_sleep
    ):
        """A transport error that is not a dropped connection (the case
        urllib wrapped in a non-retryable ``URLError``) propagates as
        raised, unretried, and the connection is not reused."""
        net = flaky_net(
            monkeypatch,
            [("send", OSError("no route to host"))],
            {"status": "ok"},
        )
        with pytest.raises(OSError, match="no route to host"):
            client._request("/v1/health")
        assert len(net.calls) == 1 and not no_sleep
        assert net.sockets[0].fileno() == -1

    def test_http_errors_are_not_retried(self, client, monkeypatch, no_sleep):
        net = flaky_net(
            monkeypatch, [], {"status": "rejected", "detail": "full"},
            status=503,
        )
        status, payload = client._request("/v1/solve", body={"problem": {}})
        assert status == 503 and payload["status"] == "rejected"
        assert len(net.calls) == 1 and not no_sleep

    def test_solve_retries_through_a_reset(self, client, monkeypatch, no_sleep):
        """The solve path (idempotent by construction) rides the retry."""
        from repro.problems import portfolio_problem

        result_doc = {
            "status": "ok",
            "fingerprint": "sha256:f",
            "warm": True,
        }
        net = flaky_net(
            monkeypatch,
            [("response", ConnectionResetError("mid-restart"))],
            result_doc,
        )
        response = client.solve(portfolio_problem(8, seed=0), timeout_s=5.0)
        assert response.ok and response.warm
        assert len(net.calls) == 2
        # Both attempts sent the identical body (true retry, no mutation).
        assert net.calls[0][1] == net.calls[1][1]


class TestPersistentConnection:
    def test_calls_share_one_connection(self, client, monkeypatch, no_sleep):
        net = flaky_net(monkeypatch, [], {"status": "ok"})
        for _ in range(3):
            assert client._request("/v1/health") == (200, {"status": "ok"})
        assert len(net.connections) == len(net.sockets) == 1
        assert len(net.calls) == 3

    def test_stale_idle_connection_is_reconnected(
        self, client, monkeypatch, no_sleep
    ):
        """The server closed the idle connection (its idle timeout):
        the next call sees the FIN before sending and goes out on a
        fresh connection — no error, no retry spent, even with
        ``retry=False``."""
        net = flaky_net(monkeypatch, [], {"status": "ok"})
        client._request("/v1/health")
        net.connections[0].peer.close()
        assert client._request("/v1/health", retry=False)[0] == 200
        assert len(net.sockets) == 2 and net.sockets[0].fileno() == -1
        assert [call[0] for call in net.calls] == net.sockets
        assert not no_sleep

    def test_close_race_on_an_idle_connection_is_retried(
        self, client, monkeypatch, no_sleep
    ):
        """The server's close crosses the request on the wire: the
        dropped exchange is retried on a fresh connection."""
        net = flaky_net(monkeypatch, [], {"status": "ok"})
        client._request("/v1/health")
        net.errors.append(
            ("response", http.client.RemoteDisconnected("idle close"))
        )
        assert client._request("/v1/health") == (200, {"status": "ok"})
        assert [call[0] for call in net.calls] == [
            net.sockets[0], net.sockets[0], net.sockets[1]
        ]
        assert len(no_sleep) == 1

    def test_each_call_sets_its_own_socket_timeout(
        self, client, monkeypatch, no_sleep
    ):
        """A call's ``timeout`` governs its own socket, not the one the
        connection was opened with."""
        from repro.problems import portfolio_problem

        net = flaky_net(monkeypatch, [], {"status": "ok"})
        client._request("/v1/health", timeout=7.0)
        client._request("/v1/health", timeout=0.25)
        # A solve's socket outlives its service deadline by 10 s.
        client.solve(portfolio_problem(8, seed=0), timeout_s=5.0)
        assert [call[2] for call in net.calls] == [7.0, 0.25, 15.0]
        assert len(net.sockets) == 1


class TestUnknownPatternFallback:
    """A values body the server cannot place (409) is resent as JSON
    once, at once: no jitter, no retry of the retry."""

    def _learn(self, client, monkeypatch) -> FakeNet:
        from repro.problems import portfolio_problem

        net = flaky_net(
            monkeypatch, [], {"status": "ok", "fingerprint": "f" * 64}
        )
        client.solve(portfolio_problem(8, seed=0), timeout_s=5.0)
        assert net.calls[-1][3]["Content-Type"] == "application/json"
        return net

    def test_409_falls_back_to_json_once_without_sleeping(
        self, client, monkeypatch, no_sleep
    ):
        from repro.problems import portfolio_problem

        net = self._learn(client, monkeypatch)
        net.replies.append((409, {"status": "unknown_pattern"}))
        response = client.solve(portfolio_problem(8, seed=1), timeout_s=5.0)
        assert response.ok and response.http_status == 200
        values, resend = net.calls[1:]
        assert values[3]["Content-Type"] == "application/x-repro-values"
        assert values[3]["X-Repro-Fingerprint"] == "f" * 64
        assert values[1][:4] == b"MIBS"
        assert resend[3]["Content-Type"] == "application/json"
        assert json.loads(resend[1])["timeout_s"] == 5.0
        assert not no_sleep
        # The JSON reply taught the fingerprint again: values next time.
        client.solve(portfolio_problem(8, seed=2), timeout_s=5.0)
        assert net.calls[-1][1][:4] == b"MIBS" and len(net.calls) == 4

    def test_a_second_409_is_answered_not_retried(
        self, client, monkeypatch, no_sleep
    ):
        from repro.problems import portfolio_problem

        net = self._learn(client, monkeypatch)
        net.replies += [(409, {"status": "unknown_pattern"})] * 2
        response = client.solve(portfolio_problem(8, seed=1), timeout_s=5.0)
        assert response.http_status == 409
        assert response.status == "unknown_pattern"
        assert len(net.calls) == 3 and not no_sleep

    def test_non_canonical_csc_always_rides_json(
        self, client, monkeypatch, no_sleep
    ):
        """Values stored in an order the server's decoder re-sorts
        would land on the wrong entries: such a pattern is never
        remembered."""
        import numpy as np

        from repro.linalg import CSCMatrix
        from repro.problems import portfolio_problem
        from repro.solver import QPProblem

        net = flaky_net(
            monkeypatch, [], {"status": "ok", "fingerprint": "f" * 64}
        )
        base = portfolio_problem(8, seed=0)
        a = base.a
        order = np.arange(a.nnz)
        lo = a.indptr[int(np.argmax(np.diff(a.indptr) > 1))]
        order[[lo, lo + 1]] = order[[lo + 1, lo]]
        shuffled = QPProblem(
            p=base.p,
            q=base.q,
            a=CSCMatrix(a.shape, a.indptr, a.indices[order], a.data[order],
                        check=False),
            l=base.l,
            u=base.u,
        )
        for _ in range(2):
            client.solve(shuffled, timeout_s=5.0)
        assert [c[3]["Content-Type"] for c in net.calls] == [
            "application/json"
        ] * 2
