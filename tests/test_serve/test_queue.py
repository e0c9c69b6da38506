"""Unit tests for the bounded coalescing request queue.

The queue is transport-agnostic: these tests exercise admission
control, same-pattern coalescing, deadlines and the write-once
response slot without any HTTP or solver machinery.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve import Hold, QueueFullError, RequestQueue, SolveRequest


def _request(fingerprint: str, *, deadline: float | None = None) -> SolveRequest:
    # The queue never inspects the payload; a sentinel object suffices.
    return SolveRequest(
        problems=[object()], fingerprint=fingerprint, deadline=deadline
    )


class TestCoalescing:
    def test_same_pattern_riders_join_the_head_batch(self):
        queue = RequestQueue(maxsize=16)
        submitted = [_request(f) for f in ("A", "B", "A", "C", "A")]
        for req in submitted:
            queue.submit(req)

        batch = queue.next_batch(timeout=0.1)
        assert [r.fingerprint for r in batch] == ["A", "A", "A"]
        # Riders are the original request objects, oldest first.
        assert batch == [submitted[0], submitted[2], submitted[4]]
        # Non-coalesced requests keep strict FIFO order.
        assert [r.fingerprint for r in queue.next_batch(timeout=0.1)] == ["B"]
        assert [r.fingerprint for r in queue.next_batch(timeout=0.1)] == ["C"]
        assert len(queue) == 0

    def test_max_batch_caps_the_ride_along(self):
        queue = RequestQueue(maxsize=16)
        for _ in range(5):
            queue.submit(_request("A"))
        batch = queue.next_batch(max_batch=3, timeout=0.1)
        assert len(batch) == 3
        assert len(queue) == 2
        assert len(queue.next_batch(max_batch=3, timeout=0.1)) == 2

    def test_max_batch_one_disables_coalescing(self):
        queue = RequestQueue(maxsize=16)
        for _ in range(3):
            queue.submit(_request("A"))
        assert len(queue.next_batch(max_batch=1, timeout=0.1)) == 1
        assert len(queue) == 2

    def test_invalid_max_batch_rejected(self):
        with pytest.raises(ValueError):
            RequestQueue().next_batch(max_batch=0)


class TestAdmission:
    def test_backpressure_raises_queue_full(self):
        queue = RequestQueue(maxsize=2)
        queue.submit(_request("A"))
        queue.submit(_request("B"))
        with pytest.raises(QueueFullError):
            queue.submit(_request("C"))
        # Draining one slot re-opens admission.
        queue.next_batch(timeout=0.1)
        queue.submit(_request("C"))

    def test_submit_after_close_raises(self):
        queue = RequestQueue()
        queue.close()
        with pytest.raises(QueueFullError):
            queue.submit(_request("A"))

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            RequestQueue(maxsize=0)


class TestBlockingAndShutdown:
    def test_empty_wait_times_out_with_empty_batch(self):
        queue = RequestQueue()
        assert queue.next_batch(timeout=0.05) == []

    def test_close_wakes_blocked_consumer_with_none(self):
        queue = RequestQueue()
        got: list = []
        consumer = threading.Thread(
            target=lambda: got.append(queue.next_batch(timeout=5.0))
        )
        consumer.start()
        time.sleep(0.05)
        queue.close()
        consumer.join(timeout=2.0)
        assert not consumer.is_alive()
        assert got == [None]

    def test_submit_wakes_blocked_consumer(self):
        queue = RequestQueue()
        got: list = []
        consumer = threading.Thread(
            target=lambda: got.append(queue.next_batch(timeout=5.0))
        )
        consumer.start()
        time.sleep(0.05)
        request = _request("A")
        queue.submit(request)
        consumer.join(timeout=2.0)
        assert got == [[request]]

    def test_drain_empties_pending(self):
        queue = RequestQueue()
        requests = [_request("A"), _request("B")]
        for req in requests:
            queue.submit(req)
        assert queue.drain() == requests
        assert len(queue) == 0


class TestSolveRequest:
    def test_respond_is_write_once(self):
        request = _request("A")
        assert request.respond(200, {"status": "ok"})
        assert request.done.is_set()
        # The losing side of the race is a no-op.
        assert not request.respond(504, {"status": "timeout"})
        assert request.status_code == 200
        assert request.response == {"status": "ok"}

    def test_concurrent_responders_publish_exactly_once(self):
        request = _request("A")
        barrier = threading.Barrier(8)
        wins: list[bool] = []
        lock = threading.Lock()

        def racer(code: int):
            barrier.wait()
            won = request.respond(code, {"code": code})
            with lock:
                wins.append(won)

        threads = [
            threading.Thread(target=racer, args=(code,))
            for code in range(200, 208)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=2.0)
        assert sum(wins) == 1
        assert request.response == {"code": request.status_code}

    def test_deadline_accounting(self):
        now = time.monotonic()
        request = _request("A", deadline=now + 60.0)
        assert not request.expired(now)
        assert request.remaining(now) == pytest.approx(60.0)
        assert request.expired(now + 61.0)
        # Unbounded requests never expire.
        unbounded = _request("B")
        assert not unbounded.expired()
        assert unbounded.remaining() is None


# ----------------------------------------------------------------------
# property/fuzz: drain invariants under arbitrary traffic shapes
# ----------------------------------------------------------------------
from hypothesis import given, settings as hyp_settings, strategies as st

# (fingerprint, already-expired) pairs: the queue only ever sees the
# routing key and the deadline, so this is the whole input space shape.
TRAFFIC = st.lists(
    st.tuples(st.sampled_from("ABC"), st.booleans()), max_size=30
)


def _submit_traffic(traffic) -> tuple[RequestQueue, list[SolveRequest]]:
    queue = RequestQueue(maxsize=max(1, len(traffic)))
    past = time.monotonic() - 60.0
    submitted = []
    for fingerprint, expired in traffic:
        req = _request(fingerprint, deadline=past if expired else None)
        queue.submit(req)
        submitted.append(req)
    return queue, submitted


def _drain(queue, *, max_batch=8, rider=None, cap=None):
    """Pop batches until the queue is empty; returns (batches, expired)."""
    batches, expired = [], []
    while len(queue):
        batch = queue.next_batch(
            max_batch=max_batch, timeout=0.05, rider=rider, cap=cap
        )
        expired.extend(batch.expired)
        if batch:
            batches.append(batch)
    return batches, expired


class TestQueueProperties:
    @hyp_settings(max_examples=60, deadline=None)
    @given(traffic=TRAFFIC, max_batch=st.integers(1, 8))
    def test_every_request_served_exactly_once(self, traffic, max_batch):
        """Conservation: batches ∪ expired is a partition of the
        submitted set — nothing dropped, nothing answered twice."""
        queue, submitted = _submit_traffic(traffic)
        batches, expired = _drain(queue, max_batch=max_batch)
        served = [req for batch in batches for req in batch] + expired
        assert sorted(id(r) for r in served) == sorted(
            id(r) for r in submitted
        )

    @hyp_settings(max_examples=60, deadline=None)
    @given(traffic=TRAFFIC, max_batch=st.integers(1, 8))
    def test_expired_requests_never_occupy_a_live_lane(
        self, traffic, max_batch
    ):
        queue, _ = _submit_traffic(traffic)
        batches, expired = _drain(queue, max_batch=max_batch)
        now = time.monotonic()
        for batch in batches:
            assert not any(req.expired(now) for req in batch)
        assert all(req.expired(now) for req in expired)

    @hyp_settings(max_examples=60, deadline=None)
    @given(traffic=TRAFFIC, max_batch=st.integers(1, 8))
    def test_batches_are_fingerprint_homogeneous_and_capped(
        self, traffic, max_batch
    ):
        queue, _ = _submit_traffic(traffic)
        batches, _ = _drain(queue, max_batch=max_batch)
        for batch in batches:
            assert len(batch) <= max_batch
            assert {req.fingerprint for req in batch} == {batch.fingerprint}

    @hyp_settings(max_examples=60, deadline=None)
    @given(traffic=TRAFFIC, max_batch=st.integers(1, 8))
    def test_fifo_order_within_every_fingerprint(self, traffic, max_batch):
        """Live requests of one pattern are served oldest-first, both
        within a batch and across consecutive batches."""
        queue, submitted = _submit_traffic(traffic)
        batches, _ = _drain(queue, max_batch=max_batch)
        for fingerprint in "ABC":
            served = [
                req
                for batch in batches
                for req in batch
                if req.fingerprint == fingerprint
            ]
            expected = [
                req
                for req in submitted
                if req.fingerprint == fingerprint and req.deadline is None
            ]
            assert served == expected

    @hyp_settings(max_examples=60, deadline=None)
    @given(traffic=TRAFFIC, cap=st.integers(1, 4))
    def test_policy_cap_bounds_batches_without_starving_anyone(
        self, traffic, cap
    ):
        """A cap hook (the adaptive controller's per-pattern limit)
        bounds every batch; vetoed riders still drain in FIFO order."""
        queue, submitted = _submit_traffic(traffic)
        batches, expired = _drain(queue, max_batch=8, cap=lambda head: cap)
        for batch in batches:
            assert len(batch) <= cap
        served = [req for batch in batches for req in batch] + expired
        assert len(served) == len(submitted)

    @hyp_settings(max_examples=60, deadline=None)
    @given(traffic=TRAFFIC)
    def test_rider_veto_leaves_requests_queued_not_lost(self, traffic):
        """A rider hook that rejects every ride-along degenerates the
        queue to solo FIFO dispatch — nothing starves, order holds."""
        queue, submitted = _submit_traffic(traffic)
        batches, expired = _drain(
            queue, max_batch=8, rider=lambda head, req, size: False
        )
        assert all(len(batch) == 1 for batch in batches)
        live = [req for batch in batches for req in batch]
        assert live == [r for r in submitted if r.deadline is None]
        assert len(live) + len(expired) == len(submitted)

    @hyp_settings(max_examples=30, deadline=None)
    @given(traffic=TRAFFIC)
    def test_coalesced_duplicates_answered_exactly_once(self, traffic):
        """Each request's response slot publishes once even when the
        worker answers a whole batch at a time."""
        queue, submitted = _submit_traffic(traffic)
        batches, expired = _drain(queue)
        wins = 0
        for batch in batches:
            for req in batch:
                wins += req.respond(200, {"status": "ok"})
        for req in expired:
            wins += req.respond(504, {"status": "timeout"})
        # A second sweep over everything is a no-op.
        for req in submitted:
            assert not req.respond(500, {"status": "error"})
        assert wins == len(submitted)


def _hold(seconds: float, lanes: int, grace: float = 0.02):
    """A window hook that always answers with the same decision."""
    return lambda head, size: Hold(seconds, lanes, grace)


def _consume(queue: RequestQueue, **kwargs) -> tuple[threading.Thread, list]:
    got: list = []
    consumer = threading.Thread(
        target=lambda: got.append(queue.next_batch(timeout=2.0, **kwargs))
    )
    consumer.start()
    return consumer, got


class TestDispatchWindow:
    def test_hook_sees_the_popped_size_and_none_dispatches_at_once(self):
        queue = RequestQueue(maxsize=8)
        for _ in range(3):
            queue.submit(_request("A"))
        seen: list = []

        def window(head, size):
            seen.append((head.fingerprint, size))
            return None

        t0 = time.monotonic()
        batch = queue.next_batch(max_batch=8, timeout=1.0, window=window)
        assert time.monotonic() - t0 < 0.2
        assert len(batch) == 3 and seen == [("A", 3)]
        # No hold was opened, so none is reported.
        assert batch.held_seconds == 0.0 and batch.held_riders == 0

    def test_window_gathers_late_arrivals_into_one_batch(self):
        queue = RequestQueue(maxsize=8)
        queue.submit(_request("A"))
        consumer, got = _consume(queue, max_batch=4, window=_hold(0.5, 4))
        time.sleep(0.05)  # consumer now holds the window open
        for _ in range(3):
            queue.submit(_request("A"))
        consumer.join(timeout=2.0)
        assert not consumer.is_alive()
        assert [r.fingerprint for r in got[0]] == ["A"] * 4
        # The outcome rides back on the batch, once.
        assert got[0].held_riders == 3
        assert 0.04 < got[0].held_seconds < 0.5

    def test_hold_closes_early_once_the_expected_group_is_in(self):
        """lanes=2 under a limit of 8 and a 5 s timer: the second
        arrival plus one quiet grace period closes the hold."""
        queue = RequestQueue(maxsize=8)
        queue.submit(_request("A"))
        consumer, got = _consume(
            queue, max_batch=8, window=_hold(5.0, 2, grace=0.05)
        )
        time.sleep(0.05)
        queue.submit(_request("A"))
        consumer.join(timeout=2.0)
        assert not consumer.is_alive()  # no 5 s stall
        assert len(got[0]) == 2
        assert got[0].held_riders == 1 and got[0].held_seconds < 1.0

    def test_hold_keeps_gathering_a_burst_larger_than_expected(self):
        """Arrivals inside the grace period extend the hold past the
        expected group: a burst is gathered whole, not cut at the
        size earlier holds happened to reach."""
        queue = RequestQueue(maxsize=8)
        queue.submit(_request("A"))
        consumer, got = _consume(
            queue, max_batch=8, window=_hold(5.0, 2, grace=0.25)
        )
        for _ in range(4):
            time.sleep(0.05)
            queue.submit(_request("A"))
        consumer.join(timeout=2.0)
        assert not consumer.is_alive()
        assert len(got[0]) == 5 and got[0].held_riders == 4

    def test_unproductive_hold_expires_and_reports_zero_riders(self):
        queue = RequestQueue(maxsize=8)
        queue.submit(_request("A"))
        queue.submit(_request("B"))  # another pattern is no rider
        batch = queue.next_batch(
            max_batch=4, timeout=1.0, window=_hold(0.05, 4)
        )
        assert [r.fingerprint for r in batch] == ["A"]
        assert batch.held_riders == 0
        assert 0.04 < batch.held_seconds < 0.5

    def test_window_closes_at_the_effective_cap_not_max_batch(self):
        """A policy cap below max_batch must close the window: riders
        past the cap can never join, so holding longer buys nothing."""
        queue = RequestQueue(maxsize=8)
        for _ in range(4):
            queue.submit(_request("A"))
        t0 = time.monotonic()
        batch = queue.next_batch(
            max_batch=8,
            timeout=1.0,
            window=_hold(5.0, 8),
            cap=lambda head: 4,
        )
        assert len(batch) == 4
        assert time.monotonic() - t0 < 1.0  # no pointless 5 s stall
        assert batch.held_seconds == 0.0

    def test_queue_closing_mid_hold_still_reports_the_outcome(self):
        queue = RequestQueue(maxsize=8)
        queue.submit(_request("A"))
        consumer, got = _consume(queue, max_batch=4, window=_hold(5.0, 4))
        time.sleep(0.05)
        queue.submit(_request("A"))
        time.sleep(0.05)
        queue.close()
        consumer.join(timeout=2.0)
        assert not consumer.is_alive()
        # The gathered batch is handed over for the worker to answer,
        # with the hold it sat through accounted.
        assert len(got[0]) == 2
        assert got[0].held_riders == 1 and got[0].held_seconds > 0.0

    def test_gathering_pattern_is_skipped_by_other_consumers(self):
        """While one consumer holds a window open for pattern A, a
        second consumer picks pattern B instead of splitting A."""
        queue = RequestQueue(maxsize=8)
        queue.submit(_request("A"))
        gatherer, first = _consume(
            queue, max_batch=4, window=_hold(0.4, 4)
        )
        time.sleep(0.05)
        queue.submit(_request("A"))  # should join the gatherer's batch
        queue.submit(_request("B"))
        second = queue.next_batch(max_batch=4, timeout=1.0)
        assert [r.fingerprint for r in second] == ["B"]
        gatherer.join(timeout=2.0)
        assert not gatherer.is_alive()
        assert [r.fingerprint for r in first[0]] == ["A", "A"]
