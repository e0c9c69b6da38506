"""End-to-end tests for the HTTP serve front-end.

Everything here runs over a real socket: a :class:`ServeServer` bound
to an ephemeral port, exercised through :class:`ServeClient`.  The
headline test is the serving acceptance criterion — a repeat-pattern
``POST /v1/solve`` must ride a resident solver (``compile_count``
stays flat while ``warm_solve_count`` increments).
"""

from __future__ import annotations

import copy
import http.client
import json
import select
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.io import pack_values, problem_to_dict
from repro.problems import (
    huber_problem,
    lasso_problem,
    mpc_problem,
    portfolio_problem,
    svm_problem,
)
from repro.serve import ServeClient, ServeServer
from repro.serve.server import (
    FINGERPRINT_HEADER,
    IDLE_TIMEOUT_S,
    MAX_BODY_BYTES,
    MAX_SCENARIO_LANES,
    MAX_SEQUENCE_STEPS,
    SESSION_HEADER,
    TIMEOUT_HEADER,
    VALUES_CONTENT_TYPE,
)
from repro.solver import Settings, solve as host_solve

pytestmark = pytest.mark.serve_e2e

FAST = Settings(eps_abs=1e-3, eps_rel=1e-3, max_iter=4000)

# The three POST endpoints with the least extra body each accepts.
POST_ENDPOINTS = [
    ("/v1/solve", {}),
    ("/v1/sequence", {"steps": [{}], "session": "hostile"}),
    ("/v1/scenarios", {"scenarios": [{}, {}]}),
]


def _corrupt(doc: dict, how: str) -> dict:
    """One non-finite value or non-integer index planted in a valid
    problem document."""
    doc = copy.deepcopy(doc)
    if how == "q-inf-string":
        doc["q"][-1] = "inf"
    elif how == "q-infinity":
        doc["q"][0] = float("-inf")
    elif how == "P-nan":
        doc["P"]["values"][0] = float("nan")
    elif how == "A-inf":
        doc["A"]["values"][0] = "inf"
    elif how == "l-plus-inf":  # a true infinity, not the "inf" encoding
        doc["l"][0] = doc["u"][0] = float("inf")
    elif how == "u-minus-inf":
        doc["l"][0] = doc["u"][0] = float("-inf")
    elif how == "A-row-fraction":
        doc["A"]["rows"][0] = 0.5
    elif how == "A-row-string":
        doc["A"]["rows"][0] = "0"
    elif how == "P-col-true":  # used to decode as column 1
        doc["P"]["cols"][-1] = True
    elif how == "A-shape-fraction":
        doc["A"]["shape"][0] += 0.5
    return doc


@pytest.fixture(scope="module")
def server():
    with ServeServer(
        port=0, workers=2, c=8, settings=FAST, capacity=4
    ) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(port=server.port)


class TestSolveEndpoint:
    def test_repeat_pattern_rides_the_warm_pool(self, client):
        """Acceptance: repeat-pattern requests never re-lower."""
        first = client.solve(portfolio_problem(8, seed=0), timeout_s=60.0)
        assert first.ok and first.solved
        before = client.metrics()["counters"]

        second = client.solve(portfolio_problem(8, seed=1), timeout_s=60.0)
        assert second.ok and second.solved
        assert second.warm
        assert second.fingerprint == first.fingerprint
        after = client.metrics()["counters"]

        assert after["compile_count"] == before["compile_count"]
        assert after["warm_solve_count"] == before["warm_solve_count"] + 1

    def test_distinct_pattern_compiles_once(self, client):
        before = client.metrics()["counters"]
        response = client.solve(portfolio_problem(12, seed=0), timeout_s=60.0)
        assert response.ok and response.solved
        assert not response.warm
        after = client.metrics()["counters"]
        assert after["compile_count"] == before["compile_count"] + 1

    def test_served_solution_matches_host_solver(self, client):
        problem = portfolio_problem(8, seed=5)
        response = client.solve(problem, timeout_s=60.0)
        assert response.ok and response.solved
        reference = host_solve(problem, settings=FAST)
        assert response.result.objective == pytest.approx(
            reference.objective, rel=1e-4, abs=1e-6
        )
        np.testing.assert_allclose(
            response.result.x, reference.x, rtol=1e-3, atol=1e-4
        )
        # The trace summary survives the wire.
        assert response.result.trace.total_flops > 0

    def test_malformed_problem_is_a_400(self, client):
        status, payload = client._request(
            "/v1/solve", body={"problem": {"format": "nonsense"}}
        )
        assert status == 400
        assert payload["status"] == "error"

    def test_non_object_body_is_a_400(self, client):
        status, payload = client._request("/v1/solve", body=[1, 2, 3])
        assert status == 400
        assert payload["status"] == "error"

    @pytest.mark.parametrize(
        "bad", ["abc", -1.0, 0, float("nan"), float("inf"), [5], {}]
    )
    @pytest.mark.parametrize(
        "path, extra",
        [
            ("/v1/solve", {}),
            ("/v1/sequence", {"steps": [{}], "session": "bad-timeout"}),
            ("/v1/scenarios", {"scenarios": [{}, {}]}),
        ],
    )
    def test_malformed_timeout_is_a_400(self, client, path, extra, bad):
        """A bad ``timeout_s`` is answered, not a dropped socket (which
        the client would retry), and never reaches the queue."""
        body = {"problem": problem_to_dict(portfolio_problem(8, seed=0)), **extra}
        before = client.metrics()["counters"]
        status, payload = client._request(
            path, body={**body, "timeout_s": bad}, retry=False
        )
        assert status == 400
        assert payload["status"] == "error"
        assert "timeout_s" in payload["detail"]
        after = client.metrics()["counters"]
        assert after["responses_error"] == before["responses_error"] + 1
        assert after["timeouts"] == before["timeouts"]

    @pytest.mark.parametrize(
        "path, extra",
        [
            ("/v1/solve", {}),
            ("/v1/sequence", {"steps": [{}], "session": "good-timeout"}),
            ("/v1/scenarios", {"scenarios": [{}, {}]}),
        ],
    )
    def test_absent_and_numeric_timeouts_are_accepted(self, client, path, extra):
        body = {"problem": problem_to_dict(portfolio_problem(8, seed=0)), **extra}
        for timeout in ({}, {"timeout_s": None}, {"timeout_s": 60}):
            status, payload = client._request(path, body={**body, **timeout})
            assert status == 200, payload

    @pytest.mark.parametrize(
        "how",
        ["q-inf-string", "q-infinity", "P-nan", "A-inf", "l-plus-inf",
         "u-minus-inf", "A-row-fraction", "A-row-string", "P-col-true",
         "A-shape-fraction"],
    )
    @pytest.mark.parametrize("path, extra", POST_ENDPOINTS)
    def test_non_finite_problem_is_a_400(self, client, path, extra, how):
        """A non-finite value used to be accepted, iterate on NaN to
        ``max_iter`` and answer 200, and a non-integer matrix index or
        shape was truncated or coerced into a different problem; each
        must stop at the decoder."""
        doc = _corrupt(problem_to_dict(portfolio_problem(8, seed=0)), how)
        before = client.metrics()["counters"]
        status, payload = client._request(
            path, body={"problem": doc, **extra}, retry=False
        )
        assert status == 400, payload
        assert payload["status"] == "error" and payload["detail"]
        after = client.metrics()["counters"]
        assert after["responses_error"] == before["responses_error"] + 1
        assert after["admm_iterations"] == before["admm_iterations"]

    @pytest.mark.parametrize(
        "override",
        [{"q": "inf"}, {"a_data": float("nan")}, {"p_data": "-inf"},
         {"l": float("inf"), "u": float("inf")}],
    )
    @pytest.mark.parametrize(
        "path, field", [("/v1/sequence", "steps"), ("/v1/scenarios", "scenarios")]
    )
    def test_non_finite_override_is_a_400(self, client, path, field, override):
        base = portfolio_problem(8, seed=0)
        sizes = {
            "q": base.n, "l": base.m, "u": base.m,
            "a_data": base.a.nnz, "p_data": base.p_upper.nnz,
        }
        bad = {k: [v] * sizes[k] for k, v in override.items()}
        before = client.metrics()["counters"]
        status, payload = client._request(
            path,
            body={"problem": problem_to_dict(base), field: [{}, bad]},
            retry=False,
        )
        assert status == 400, payload
        assert payload["status"] == "error" and payload["detail"]
        after = client.metrics()["counters"]
        assert after["responses_error"] == before["responses_error"] + 1
        assert after["admm_iterations"] == before["admm_iterations"]

    @pytest.mark.parametrize(
        "claimed, expected",
        [("-1", 400), ("abc", 400), ("1.5", 400),
         (str(MAX_BODY_BYTES + 1), 413)],
    )
    @pytest.mark.parametrize("path, extra", POST_ENDPOINTS)
    def test_content_length_is_judged_before_the_read(
        self, server, client, path, extra, claimed, expected
    ):
        """``Content-Length`` is the peer's claim: a negative one used
        to park the handler in ``read(-1)`` until the peer hung up, a
        huge one was read unbounded.  Both are refused with the body
        unread — the 5 s socket timeout is the no-hang assertion."""
        body = json.dumps(
            {"problem": problem_to_dict(portfolio_problem(8, seed=0)), **extra}
        ).encode()
        before = client.metrics()["counters"]
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.putrequest("POST", path)
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", claimed)
            conn.endheaders(body)
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == expected
        assert payload["status"] == "error" and "bad request" in payload["detail"]
        after = client.metrics()["counters"]
        assert after["responses_error"] == before["responses_error"] + 1
        assert after["requests_total"] == before["requests_total"]

    def test_body_at_the_limit_is_still_read(self, client):
        assert MAX_BODY_BYTES == 64 << 20  # a constant, not a flag
        status, _ = client._request(
            "/v1/solve",
            body={"problem": problem_to_dict(portfolio_problem(8, seed=0))},
        )
        assert status == 200

    def test_unknown_endpoint_is_a_404(self, client):
        assert client._request("/v1/nope")[0] == 404
        assert client._request("/v1/nope", body={})[0] == 404


def _hostile_body(path: str, how: str) -> tuple[bytes, dict]:
    """A values body for ``portfolio_problem(8)``'s pattern with one
    defect planted, plus any header it overrides."""
    base = portfolio_problem(8, seed=0)
    blob = pack_values(base)
    cap = {"/v1/solve": 1, "/v1/sequence": MAX_SEQUENCE_STEPS,
           "/v1/scenarios": MAX_SCENARIO_LANES}[path]
    inf = np.full(base.m, np.inf)
    bodies = {
        "truncated": lambda: blob[:-8],
        "bad-magic": lambda: b"XXXX" + blob[4:],
        "bad-version": lambda: blob[:4] + struct.pack("<I", 2) + blob[8:],
        "trailing-bytes": lambda: blob + b"junk",
        "n-mismatch": lambda: pack_values(portfolio_problem(12, seed=0)),
        "m-mismatch": lambda: pack_values(base, l=base.l[:-1], u=base.u[:-1]),
        "nnz-mismatch": lambda: pack_values(base, a_data=base.a.data[:-1]),
        "q-nan": lambda: blob[:40] + struct.pack("<d", np.nan) + blob[48:],
        "P-inf": lambda: pack_values(
            base, p_data=np.where(np.arange(base.p_upper.nnz), 1.0, np.inf)
        ),
        "A-minus-inf": lambda: pack_values(base, a_data=-np.inf * base.a.data),
        "l-plus-inf": lambda: pack_values(base, l=inf, u=inf),
        "zero-blobs": lambda: b"",
        "over-the-cap": lambda: blob * (cap + 1),
        "timeout-not-json": lambda: blob,
        "timeout-not-numeric": lambda: blob,
    }
    headers = {
        "timeout-not-json": {TIMEOUT_HEADER: "abc"},
        "timeout-not-numeric": {TIMEOUT_HEADER: '"abc"'},
    }
    return bodies[how](), headers.get(how, {})


HOSTILE_VALUES = [
    "truncated", "bad-magic", "bad-version", "trailing-bytes",
    "n-mismatch", "m-mismatch", "nnz-mismatch", "q-nan", "P-inf",
    "A-minus-inf", "l-plus-inf", "zero-blobs", "over-the-cap",
    "timeout-not-json", "timeout-not-numeric",
]


class TestValuesBody:
    """A pattern the server holds travels as values only."""

    @pytest.fixture(scope="class")
    def fingerprint(self, client):
        response = client.solve(portfolio_problem(8, seed=0), timeout_s=60.0)
        assert response.ok
        return response.fingerprint

    def test_repeat_pattern_rides_a_values_body(self, server):
        client = ServeClient(port=server.port)
        before = client.metrics()["counters"]
        first = client.solve(portfolio_problem(8, seed=0), timeout_s=60.0)
        repeat = client.solve(portfolio_problem(8, seed=1), timeout_s=60.0)
        after = client.metrics()["counters"]
        assert first.ok and repeat.ok and repeat.warm
        assert repeat.fingerprint == first.fingerprint
        assert after["values_requests"] == before["values_requests"] + 1
        assert after["requests_total"] == before["requests_total"] + 2
        assert after["unknown_pattern"] == before["unknown_pattern"]

    @pytest.mark.parametrize("how", HOSTILE_VALUES)
    @pytest.mark.parametrize("path, session", [
        ("/v1/solve", None), ("/v1/sequence", "hostile"),
        ("/v1/scenarios", None),
    ])
    def test_hostile_values_body_is_a_400(
        self, client, fingerprint, path, session, how
    ):
        body, extra = _hostile_body(path, how)
        headers = {FINGERPRINT_HEADER: fingerprint, **extra}
        if session is not None:
            headers[SESSION_HEADER] = json.dumps(session)
        before = client.metrics()["counters"]
        status, payload = client._request(
            path, body=body, headers=headers, retry=False
        )
        assert status == 400, payload
        assert payload["status"] == "error" and payload["detail"]
        after = client.metrics()["counters"]
        assert after["responses_error"] == before["responses_error"] + 1
        assert after["values_requests"] == before["values_requests"]
        assert after["admm_iterations"] == before["admm_iterations"]

    def test_missing_fingerprint_is_a_400(self, client):
        before = client.metrics()["counters"]["responses_error"]
        status, payload = client._request(
            "/v1/solve", body=pack_values(portfolio_problem(8, seed=0)),
            retry=False,
        )
        assert status == 400 and FINGERPRINT_HEADER in payload["detail"]
        assert client.metrics()["counters"]["responses_error"] == before + 1

    @pytest.mark.parametrize("path", ["/v1/solve", "/v1/sequence",
                                      "/v1/scenarios"])
    def test_unknown_fingerprint_is_a_409_and_json_still_answers(
        self, server, client, path
    ):
        """The body is read whole before the 409, so the same
        keep-alive connection answers the JSON resend."""
        base = portfolio_problem(8, seed=0)
        field = {"/v1/sequence": "steps", "/v1/scenarios": "scenarios"}
        before = client.metrics()["counters"]
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request(
                "POST", path, body=pack_values(base),
                headers={
                    "Content-Type": VALUES_CONTENT_TYPE,
                    FINGERPRINT_HEADER: "0" * 64,
                },
            )
            refused = conn.getresponse()
            assert refused.status == 409
            assert refused.getheader("Connection") is None
            assert json.loads(refused.read())["status"] == "unknown_pattern"
            doc = {"problem": problem_to_dict(base), "timeout_s": 60.0}
            if path in field:
                doc[field[path]] = [{}]
            conn.request(
                "POST", path, body=json.dumps(doc).encode(),
                headers={"Content-Type": "application/json"},
            )
            answered = conn.getresponse()
            assert answered.status == 200
            assert json.loads(answered.read())["status"] == "ok"
        finally:
            conn.close()
        after = client.metrics()["counters"]
        assert after["unknown_pattern"] == before["unknown_pattern"] + 1
        assert after["responses_error"] == before["responses_error"]

    def test_pattern_registry_is_bounded_by_the_pool(self):
        """The server holds as many patterns' structure as its pool
        holds solvers; a forgotten one is a 409 the client resends as
        JSON, once and at once."""
        problems = [portfolio_problem(n, seed=0) for n in (4, 5, 6)]
        with ServeServer(
            port=0, workers=1, c=8, settings=FAST, capacity=2
        ) as server:
            client = ServeClient(port=server.port)
            for problem in problems:
                assert client.solve(problem, timeout_s=60.0).ok
            counters = client.metrics()["counters"]
            assert counters["values_requests"] == 0
            # problems[0] fell out of the registry: 409, then JSON.
            assert client.solve(problems[0], timeout_s=60.0).ok
            # problems[2] is still held: values.
            assert client.solve(problems[2], timeout_s=60.0).ok
            counters = client.metrics()["counters"]
        assert counters["unknown_pattern"] == 1
        assert counters["values_requests"] == 1
        assert counters["responses_error"] == 0

    def test_refused_body_does_not_evict_a_held_pattern(self):
        """A body refused for its ``scenarios`` field never admits its
        (valid) pattern, so it cannot push a held one out."""
        held, refused = portfolio_problem(4, seed=0), portfolio_problem(5)
        with ServeServer(
            port=0, workers=1, c=8, settings=FAST, capacity=1
        ) as server:
            client = ServeClient(port=server.port)
            assert client.solve(held, timeout_s=60.0).ok
            status, _ = client._request(
                "/v1/scenarios",
                body={"problem": problem_to_dict(refused), "scenarios": "x"},
                retry=False,
            )
            assert status == 400
            assert client.solve(held, timeout_s=60.0).ok
            counters = client.metrics()["counters"]
        assert counters["values_requests"] == 1
        assert counters["unknown_pattern"] == 0

    def test_registries_hold_under_concurrent_churn(self):
        """Six threads share one client and cycle three patterns
        through a two-pattern server registry: every call answers, each
        409 costs exactly one extra request, and neither registry
        outgrows its bound."""
        import sys

        from repro.serve.client import _KNOWN_PATTERNS

        problems = [portfolio_problem(n, seed=s) for n in (4, 5, 6)
                    for s in (0, 1)]
        calls, threads_n = 6, 6
        failures: list = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServeServer(
                port=0, workers=2, c=8, settings=FAST, capacity=2
            ) as server:
                client = ServeClient(port=server.port)

                def churn(tid: int) -> None:
                    for i in range(calls):
                        problem = problems[(tid + i) % len(problems)]
                        response = client.solve(problem, timeout_s=60.0)
                        if not (response.ok and response.solved):
                            failures.append(response.raw)

                threads = [
                    threading.Thread(target=churn, args=(t,))
                    for t in range(threads_n)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120.0)
                assert not any(t.is_alive() for t in threads)
                counters = client.metrics()["counters"]
                assert len(server.pool._entries) <= 2
                assert len(client._patterns) <= _KNOWN_PATTERNS
        finally:
            sys.setswitchinterval(switch)
        assert not failures
        assert counters["responses_ok"] == calls * threads_n
        assert (
            counters["requests_total"] - counters["unknown_pattern"]
            == calls * threads_n
        )
        assert counters["values_requests"] >= 1


class TestObservability:
    def test_health_reports_pool_and_queue(self, client, server):
        health = client.health()
        assert health["status"] == "ok"
        assert health["pool_capacity"] == 4
        assert 0 <= health["pool_size"] <= 4
        assert health["queue_capacity"] == server.queue.maxsize
        assert health["workers"] == 2
        assert health["uptime_s"] > 0

    def test_metrics_snapshot_shape(self, client):
        metrics = client.metrics()
        assert set(metrics) == {
            "counters", "latency", "batch_sizes", "pool_hit_rate",
            "controller", "pool_entries", "sessions",
        }
        assert metrics["controller"]["policy"] in ("adaptive", "greedy", "off")
        assert metrics["counters"]["responses_ok"] >= 1
        assert metrics["latency"]["total"]["count"] >= 1

    def test_metrics_name_active_backend_per_pool_entry(self, client):
        """Every resident solver is listed; none names an array
        backend, because no serving path executes traces on one."""
        client.solve(portfolio_problem(8, seed=2), timeout_s=60.0)
        entries = client.metrics()["pool_entries"]
        assert entries, "warm pool must have at least one resident solver"
        for entry in entries:
            assert set(entry) == {
                "fingerprint", "solves", "crossings_per_iter",
            }
            assert entry["solves"] >= 0


class TestFiveDomainSmoke:
    """Every benchmark domain round-trips ``POST /v1/solve`` — huber
    included, which had no serve-tier coverage before this suite."""

    def test_all_five_domains_round_trip(self):
        problems = {
            "lasso": lasso_problem(6, n_samples=16, seed=0),
            "mpc": mpc_problem(2, horizon=3, seed=0),
            "portfolio": portfolio_problem(8, seed=0),
            "svm": svm_problem(4, n_samples=12, seed=0),
            "huber": huber_problem(4, n_samples=10, seed=0),
        }
        with ServeServer(
            port=0, workers=2, c=8, settings=FAST, capacity=len(problems)
        ) as server:
            client = ServeClient(port=server.port)
            fingerprints = set()
            for name, problem in problems.items():
                response = client.solve(problem, timeout_s=120.0)
                assert response.ok and response.solved, (name, response.raw)
                fingerprints.add(response.fingerprint)
                reference = host_solve(problem, settings=FAST)
                assert response.result.objective == pytest.approx(
                    reference.objective, rel=1e-4, abs=1e-6
                ), name
            # Five distinct patterns, each resident after its solve.
            assert len(fingerprints) == len(problems)
            assert len(server.pool.fingerprints()) == len(problems)


class TestDeadlinesAndBackpressure:
    """Failure paths need a server whose queue never drains."""

    def test_deadline_expiry_is_a_structured_timeout(self):
        with ServeServer(port=0, workers=0, c=8, settings=FAST) as server:
            client = ServeClient(port=server.port)
            response = client.solve(portfolio_problem(8, seed=0), timeout_s=0.2)
            assert response.http_status == 504
            assert response.status == "timeout"
            assert response.result is None
            assert client.metrics()["counters"]["timeouts"] == 1

    def test_full_queue_rejects_with_503(self):
        with ServeServer(
            port=0, workers=0, queue_size=1, c=8, settings=FAST
        ) as server:
            client = ServeClient(port=server.port)
            occupant = threading.Thread(
                target=client.solve,
                args=(portfolio_problem(8, seed=0),),
                kwargs={"timeout_s": 2.0},
            )
            occupant.start()
            try:
                # Wait until the occupant actually holds the only slot.
                deadline_spins = 200
                while len(server.queue) == 0 and deadline_spins:
                    deadline_spins -= 1
                    threading.Event().wait(0.01)
                assert len(server.queue) == 1
                rejected = client.solve(
                    portfolio_problem(8, seed=1), timeout_s=2.0
                )
                assert rejected.http_status == 503
                assert rejected.status == "rejected"
                assert client.metrics()["counters"]["rejected"] >= 1
            finally:
                occupant.join(timeout=10.0)

    def test_shutdown_answers_stragglers(self):
        server = ServeServer(
            port=0, workers=0, c=8, settings=FAST
        ).start()
        client = ServeClient(port=server.port)
        responses: list = []
        straggler = threading.Thread(
            target=lambda: responses.append(
                client.solve(portfolio_problem(8, seed=0), timeout_s=30.0)
            )
        )
        straggler.start()
        deadline_spins = 200
        while len(server.queue) == 0 and deadline_spins:
            deadline_spins -= 1
            threading.Event().wait(0.01)
        server.stop()
        straggler.join(timeout=10.0)
        assert not straggler.is_alive()
        assert responses[0].status == "rejected"


class TestKeepAlive:
    """One client connection serves request after request (HTTP/1.1),
    and nothing a request leaves unread leaks into the next one."""

    def test_calls_reuse_one_connection(self, client):
        client.health()
        sock = client._local.conn.sock
        for _ in range(3):
            assert client.health()["status"] == "ok"
        assert client._local.conn.sock is sock
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    @pytest.mark.parametrize(
        "method, path, claimed, status",
        [
            ("POST", "/v1/nope", None, 404),  # unknown endpoint
            ("POST", "/v1/solve", str(MAX_BODY_BYTES + 1), 413),
            ("POST", "/v1/solve", "-1", 400),
            ("POST", "/v1/solve", "abc", 400),
            ("GET", "/v1/health", None, 200),  # a GET body is never read
        ],
    )
    def test_unread_body_does_not_poison_the_connection(
        self, server, method, path, claimed, status
    ):
        """A response sent before the body was read ends the connection;
        otherwise the unread body parses as the next request."""
        body = json.dumps(
            {"problem": problem_to_dict(portfolio_problem(8, seed=0))}
        ).encode()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.putrequest(method, path)
            conn.putheader("Content-Type", "application/json")
            conn.putheader(
                "Content-Length", claimed if claimed else str(len(body))
            )
            conn.endheaders(body)
            refused = conn.getresponse()
            refused.read()
            assert refused.status == status
            assert refused.getheader("Connection") == "close"
            conn.request("GET", "/v1/health")
            health = conn.getresponse()
            assert health.status == 200
            assert json.loads(health.read())["status"] == "ok"
        finally:
            conn.close()

    def test_answered_requests_keep_the_connection(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.request("POST", "/v1/solve", body=b"[1, 2, 3]")
            refused = conn.getresponse()
            refused.read()
            assert refused.status == 400  # body read whole, then judged
            conn.request("GET", "/v1/health")
            health = conn.getresponse()
            assert health.status == 200 and health.getheader("Connection") is None
            health.read()
            conn.request("GET", "/v1/metrics")
            assert conn.getresponse().status == 200
        finally:
            conn.close()


class TestConnectionLifecycle:
    def test_idle_timeout_is_a_constant(self):
        assert IDLE_TIMEOUT_S == 30.0  # a constant, not a flag

    def test_idle_connection_is_closed_and_replaced(self, monkeypatch):
        """The server closes a connection idle past its timeout; the
        client's next call reconnects without an error or a retry."""
        monkeypatch.setattr("repro.serve.server.IDLE_TIMEOUT_S", 0.2)
        naps: list[float] = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", lambda s: naps.append(s)
        )
        with ServeServer(port=0, workers=1, c=8, settings=FAST) as server:
            client = ServeClient(port=server.port)
            client.health()
            sock = client._local.conn.sock
            ready, _, _ = select.select([sock], [], [], 5.0)
            assert ready, "the idle connection was not closed"
            assert client._request("/v1/health", retry=False)[0] == 200
            assert client._local.conn.sock is not sock
            assert not naps

    def test_stop_closes_idle_keep_alive_connections(self):
        """``stop()`` does not wait on, or leave behind, a handler
        thread parked on an idle connection: the client's next call
        fails fast instead of being answered by a stopped server."""
        server = ServeServer(port=0, workers=1, c=8, settings=FAST).start()
        client = ServeClient(port=server.port)
        assert client.health()["status"] == "ok"
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 5.0
        started = time.monotonic()
        with pytest.raises(ConnectionError):
            client.health()
        assert time.monotonic() - started < 5.0
