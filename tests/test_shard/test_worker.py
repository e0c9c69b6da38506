"""In-process tests of the shard worker's pipe protocol.

``ShardWorker`` is deliberately testable without ``spawn``: a fake
connection collects outbound messages while ``handle()`` is driven
directly, so the register/submit/metrics/health protocol is covered in
the fast tier (process-level behaviour lives in ``test_shard_e2e``).
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.io import Skeleton, pack_values
from repro.problems import portfolio_problem
from repro.shard import ShardWorker
from repro.solver import Settings

FAST = Settings(eps_abs=1e-3, eps_rel=1e-3, max_iter=4000)
CONFIG = {
    "workers": 1,
    "queue_size": 8,
    "max_batch": 4,
    "batch_policy": "greedy",
    "pool_kwargs": {"c": 8, "settings": FAST, "capacity": 4},
}


class FakeConn:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def of_kind(self, kind):
        return [m for m in self.sent if m[0] == kind]

    def wait_for(self, kind, timeout_s=30.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            found = self.of_kind(kind)
            if found:
                return found[-1]
            time.sleep(0.005)
        raise AssertionError(f"no {kind!r} message within {timeout_s}s")


@pytest.fixture
def worker():
    conn = FakeConn()
    w = ShardWorker(0, conn, CONFIG)
    w.engine.start()
    try:
        yield w, conn
    finally:
        w.engine.stop()


def registered(w, seed=0):
    """Register a small portfolio pattern; returns (problem, fingerprint)."""
    problem = portfolio_problem(8, seed=seed)
    fp = w.engine.pool.fingerprint(problem)
    assert w.handle(("register", fp, Skeleton.of(problem), None))
    return problem, fp


def answered_once(conn, req_id):
    """The one ``done`` message for ``req_id`` (after a grace period in
    which a second one would have shown up)."""
    conn.wait_for("done")
    time.sleep(0.05)
    done = [m for m in conn.of_kind("done") if m[1] == req_id]
    assert len(done) == 1, done
    return done[0]


def submit(req_id, fp, kind, payloads, *, deadline=None, session=None):
    return ("submit", req_id, fp, deadline, session, kind, payloads)


class TestProtocol:
    def test_register_then_solve_inline(self, worker):
        w, conn = worker
        problem, fp = registered(w)
        assert w.handle(submit(7, fp, "solve", [pack_values(problem)]))
        _, req_id, status_code, payload = answered_once(conn, 7)
        assert (req_id, status_code) == (7, 200)
        assert payload["status"] == "ok"
        assert payload["result"]["status"] == "solved"
        # The engine counts the 200 just after forwarding it.
        deadline = time.monotonic() + 5.0
        while w.health()["solved"] != 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert w.health()["solved"] == 1

    def test_submit_sequence_answers_once_with_every_step(self, worker):
        w, conn = worker
        problem, fp = registered(w)
        steps = [portfolio_problem(8, seed=s) for s in range(3)]
        w.handle(
            submit(8, fp, "sequence", [pack_values(p) for p in steps],
                   session="s")
        )
        _, _, status_code, payload = answered_once(conn, 8)
        assert status_code == 200
        assert payload["steps_completed"] == 3 and len(payload["steps"]) == 3
        assert payload["session"] == "s"

    def test_submit_scenarios_answers_once_with_every_lane(self, worker):
        w, conn = worker
        problem, fp = registered(w)
        lanes = [portfolio_problem(8, seed=s) for s in range(4)]
        w.handle(submit(9, fp, "scenarios", [pack_values(p) for p in lanes]))
        _, _, status_code, payload = answered_once(conn, 9)
        assert status_code == 200
        assert payload["lanes"] == 4 and len(payload["scenarios"]) == 4

    def test_empty_payloads_is_a_400(self, worker):
        w, conn = worker
        _, fp = registered(w)
        for req_id, kind in enumerate(("solve", "sequence", "scenarios")):
            w.handle(submit(req_id, fp, kind, []))
        done = conn.of_kind("done")
        assert [m[2] for m in done] == [400, 400, 400]
        assert all("empty payload" in m[3]["detail"] for m in done)

    def test_unregistered_pattern_is_a_500(self, worker):
        w, conn = worker
        blob = pack_values(portfolio_problem(8, seed=0))
        for req_id, kind in enumerate(("solve", "sequence", "scenarios")):
            w.handle(submit(req_id, "sha256:missing", kind, [blob]))
        done = conn.of_kind("done")
        assert [m[2] for m in done] == [500, 500, 500]
        assert all("never registered" in m[3]["detail"] for m in done)

    def test_register_drops_what_the_front_end_evicted(self, worker):
        """A ``register`` naming ``dropped`` keeps the registry within
        capacity; a submit for the dropped pattern (a protocol bug, as
        the front end re-registers before it ships) is the 500."""
        w, conn = worker
        capacity = CONFIG["pool_kwargs"]["capacity"]
        fps = []
        for n in range(4, 4 + capacity + 2):
            problem = portfolio_problem(n, seed=0)
            fp = w.engine.pool.fingerprint(problem)
            dropped = fps[-capacity] if len(fps) >= capacity else None
            assert w.handle(("register", fp, Skeleton.of(problem), dropped))
            fps.append(fp)
            assert w.health()["patterns_registered"] == min(
                len(fps), capacity
            )
        blob = pack_values(portfolio_problem(4, seed=0))
        w.handle(submit(1, fps[0], "solve", [blob]))
        status_code, payload = conn.wait_for("done")[2:]
        assert status_code == 500
        assert "never registered" in payload["detail"]

    def test_corrupt_payload_is_a_400(self, worker):
        w, conn = worker
        problem, fp = registered(w)
        w.handle(submit(4, fp, "solve", [b"not a payload"]))
        w.handle(
            submit(5, fp, "sequence", [pack_values(problem), b"\x00" * 8])
        )
        assert [m[2] for m in conn.of_kind("done")] == [400, 400]

    def test_expired_deadline_times_out(self, worker):
        w, conn = worker
        problem, fp = registered(w)
        past = time.monotonic() - 1.0
        w.handle(submit(5, fp, "solve", [pack_values(problem)], deadline=past))
        done = conn.wait_for("done")
        assert done[2] == 504

    def test_solved_counts_every_drain_thread(self):
        """``health()["solved"]`` loses no 200 when several drain
        threads answer at once (more threads than cores, fast thread
        switching)."""
        conn = FakeConn()
        w = ShardWorker(
            0, conn, {**CONFIG, "workers": 4, "queue_size": 64,
                      "batch_policy": "off"}
        )
        # Four patterns, so solves on different resident solvers finish
        # concurrently.
        shipped = []
        for n in (6, 7, 8, 9):
            problem = portfolio_problem(n, seed=0)
            fp = w.engine.pool.fingerprint(problem)
            w.handle(("register", fp, Skeleton.of(problem), None))
            shipped.append((fp, pack_values(problem)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        w.engine.start()
        try:
            for req_id in range(48):
                fp, blob = shipped[req_id % 4]
                w.handle(submit(req_id, fp, "solve", [blob]))
            deadline = time.monotonic() + 60.0
            while (
                w.health()["solved"] < 48 and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        finally:
            sys.setswitchinterval(interval)
            w.engine.stop()
        assert [m[2] for m in conn.of_kind("done")] == [200] * 48
        assert w.health()["solved"] == 48

    def test_metrics_health_and_stop(self, worker):
        w, conn = worker
        assert w.handle(("metrics", 42))
        kind, query_id, snap = conn.wait_for("metrics")
        assert query_id == 42 and "counters" in snap and "controller" in snap
        assert w.handle(("health", 43))
        kind, query_id, doc = conn.wait_for("health")
        assert query_id == 43 and doc["shard_id"] == 0
        assert doc["patterns_resident"] == 0
        assert not w.handle(("stop",))

    def test_unknown_message_reports_error(self, worker):
        w, conn = worker
        assert w.handle(("warp", 1))
        assert conn.of_kind("error")
