"""Bounded request queue with same-pattern coalescing.

Admission and dispatch policy between the HTTP front-end and the pool
workers:

* **bounded** — ``submit`` raises :class:`QueueFullError` once
  ``maxsize`` requests are pending; the server translates that into a
  structured ``REJECTED`` response (backpressure instead of unbounded
  latency).
* **coalescing** — :meth:`next_batch` pops the oldest request and
  pulls every other pending request *sharing its pattern fingerprint*
  (up to ``max_batch``) into the same batch.  The worker dispatches
  the batch consecutively to one warm solver, so a burst of
  same-pattern traffic pays construction at most once and every
  follow-up rides the ``bind_values`` rebind.  Requests that are not
  coalesced keep strict FIFO
  order.  An optional ``rider`` hook (the adaptive batching
  controller's bucketing policy) can veto individual ride-alongs;
  vetoed requests stay queued in order and head their own batches.
* **deadlines** — each request carries an absolute monotonic deadline;
  :meth:`SolveRequest.expired` lets workers discard requests whose
  client has already been answered with ``TIMEOUT``.

The queue itself is transport-agnostic (it stores
:class:`SolveRequest` objects, not HTTP anything) so it is directly
unit-testable and reusable by the load generator.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from ..solver import QPProblem

__all__ = [
    "KINDS",
    "DispatchBatch",
    "Hold",
    "QueueFullError",
    "RequestQueue",
    "SolveRequest",
]

# What a request asks for (see DESIGN.md §5.8): one instance solved
# (/v1/solve), an ordered step list run on one session (/v1/sequence),
# or a scenario fan-out over one pattern (/v1/scenarios).
KINDS = ("solve", "sequence", "scenarios")

_REQUEST_IDS = itertools.count(1)


class QueueFullError(RuntimeError):
    """Raised by :meth:`RequestQueue.submit` under backpressure."""


@dataclass
class SolveRequest:
    """One in-flight solve: payload, routing key, deadline, response.

    The response slot is write-once (``respond``): whichever side wins
    the race — a worker finishing the solve, or the waiting front-end
    declaring a timeout — publishes, and the loser's attempt is a
    no-op.  ``done`` is set after publication.

    ``on_done``, when set, is invoked exactly once with the request
    after its response publishes — the seam a shard worker uses to
    forward the response over its transport instead of (only) waking a
    local waiter.  It runs on the publishing thread and must not
    block.
    """

    problems: list[QPProblem]  # a solve's one instance, or the steps/lanes
    fingerprint: str
    kind: str = "solve"  # one of KINDS, set once where the request enters
    deadline: float | None = None  # absolute time.monotonic() deadline
    enqueued_at: float = field(default_factory=time.monotonic)
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))
    done: threading.Event = field(default_factory=threading.Event)
    status_code: int | None = None
    response: dict | None = None
    on_done: object | None = None  # callable(SolveRequest) | None
    # A sticky warm-start key (see repro.serve.session).
    session_key: str | None = None
    _publish_lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def streaming(self) -> bool:
        """Stateful or multi-solve requests dispatch alone: they hold
        session state or a whole pass, so they neither ride along in a
        coalesced batch nor accept riders."""
        return self.session_key is not None or self.kind != "solve"

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline

    def remaining(self, now: float | None = None) -> float | None:
        """Seconds until the deadline (``None`` when unbounded)."""
        if self.deadline is None:
            return None
        return self.deadline - (now if now is not None else time.monotonic())

    def respond(self, status_code: int, payload: dict) -> bool:
        """Publish the response; ``False`` if one was already published."""
        with self._publish_lock:
            if self.done.is_set():
                return False
            self.status_code = status_code
            self.response = payload
            self.done.set()
        if self.on_done is not None:
            self.on_done(self)
        return True


class Hold(NamedTuple):
    """A batching policy's decision to keep a popped batch open for
    same-pattern arrivals (the ``window`` hook of
    :meth:`RequestQueue.next_batch`)."""

    seconds: float  # longest the batch stays open
    lanes: int  # expected group: until it is in, only ``seconds`` closes
    grace: float  # once it is in, close after this long without a rider


class DispatchBatch(list):
    """A coalesced batch: the live same-fingerprint requests (as list
    elements) plus the requests found already expired at pop time.

    ``expired`` requests never occupy a solve lane — the worker answers
    them with ``TIMEOUT`` immediately.  ``fingerprint`` is the batch's
    common pattern key (``""`` when the sweep found only expired
    requests and the batch is empty).  ``held_seconds`` is how long a
    dispatch window kept the batch open (0.0: none was opened) and
    ``held_riders`` how many requests joined while it was.
    """

    def __init__(
        self,
        requests: list[SolveRequest] = (),
        *,
        fingerprint: str = "",
        expired: list[SolveRequest] | None = None,
    ) -> None:
        super().__init__(requests)
        self.fingerprint = fingerprint
        self.expired: list[SolveRequest] = expired or []
        self.held_seconds = 0.0
        self.held_riders = 0


class RequestQueue:
    """Thread-safe bounded FIFO with fingerprint coalescing."""

    def __init__(self, *, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._items: deque[SolveRequest] = deque()
        self._cond = threading.Condition()
        self._closed = False
        # Fingerprints a consumer is currently holding a dispatch
        # window open for; other consumers skip them when picking a
        # head so one worker gathers the whole burst instead of two
        # workers splitting it into fragmented passes.
        self._gathering: set[str] = set()

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    # ------------------------------------------------------------------
    def submit(self, request: SolveRequest) -> None:
        """Enqueue or raise :class:`QueueFullError` (admission control)."""
        with self._cond:
            if self._closed:
                raise QueueFullError("queue is closed")
            if len(self._items) >= self.maxsize:
                raise QueueFullError(
                    f"queue full ({self.maxsize} requests pending)"
                )
            self._items.append(request)
            self._cond.notify()

    def next_batch(
        self,
        *,
        max_batch: int = 8,
        timeout: float | None = None,
        rider=None,
        window=None,
        cap=None,
    ) -> DispatchBatch | None:
        """Dequeue the oldest live request plus same-pattern riders.

        Blocks until a request is available, the queue closes
        (returns ``None``) or ``timeout`` elapses (returns an empty
        batch).  The batch is ordered oldest-first and shares one
        fingerprint (exposed as ``batch.fingerprint``).  Requests whose
        deadline has already passed never occupy a lane: they are swept
        into ``batch.expired`` — both expired heads and expired riders
        of the head's fingerprint — for the worker to answer with
        ``TIMEOUT`` without displacing live work.

        ``rider``, when given, is the batching policy's bucketing
        hook: called as ``rider(head, candidate, size)`` for each live
        same-fingerprint candidate (``size`` = batch size so far,
        head included); a falsy return leaves the candidate queued, in
        order, to head its own later batch.  The head itself is never
        subject to the hook, so the oldest live request always
        dispatches first — bucketing can reorder riders, not starve
        heads.

        ``cap``, when given, is called as ``cap(head)`` once after the
        head is chosen and returns the batching policy's per-pattern
        batch-size limit; the effective limit is
        ``min(max_batch, cap(head))``.  Making the limit visible to
        the queue matters for the dispatch window: a rider hook that
        silently rejects at the policy's cap would leave the batch
        forever "unfilled" relative to ``max_batch``, so the gathering
        worker would stall out its entire window even though no rider
        can ever join.

        ``window``, when given, is called as ``window(head, size)`` once
        the riders already queued are collected (``size`` counts the
        head) and returns a :class:`Hold` or ``None``.  ``None`` — or a
        batch already at the limit — dispatches immediately: the queue
        is work-conserving unless the policy says holding pays.  A
        hold keeps the batch open for same-pattern arrivals at most
        ``seconds``; once ``lanes`` requests are in (the group the
        policy expects, possibly below the limit) it closes as soon
        as ``grace`` passes without a new rider, so a group that
        arrives early is not kept waiting for the timer while a burst
        larger than expected is still gathered whole.  While a hold
        is open the head's fingerprint is marked as *gathering*:
        concurrent consumers skip those requests when picking their
        own head — without the mark, two workers split one burst into
        fragmented passes — and are woken when it closes.  The outcome
        comes back on the batch (``held_seconds``, ``held_riders``),
        also when the queue closes mid-hold, so the policy can learn
        whether its holds gather anyone.
        """
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        wait_deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._cond:
            expired: list[SolveRequest] = []
            head: SolveRequest | None = None
            while True:
                now = time.monotonic()
                while self._items and self._items[0].expired(now):
                    expired.append(self._items.popleft())
                for i, req in enumerate(self._items):
                    # Oldest request not claimed by another consumer's
                    # open dispatch window.
                    if req.fingerprint not in self._gathering:
                        head = req
                        del self._items[i]
                        break
                if head is not None:
                    break
                if expired:
                    # Nothing live, but the sweep found work to fail
                    # fast — report it rather than blocking.
                    return DispatchBatch(expired=expired)
                if self._closed:
                    return None
                remaining = None
                if wait_deadline is not None:
                    remaining = wait_deadline - time.monotonic()
                    if remaining <= 0:
                        return DispatchBatch()
                if not self._cond.wait(timeout=remaining) and (
                    wait_deadline is not None
                ):
                    return DispatchBatch()
            limit = max_batch
            if cap is not None:
                limit = max(1, min(max_batch, int(cap(head))))
            batch = DispatchBatch(
                [head], fingerprint=head.fingerprint, expired=expired
            )
            if head.streaming:
                # Session/sequence/scenario heads dispatch alone —
                # their pass shape is fixed by the request itself.
                return batch
            self._collect_riders(batch, head, limit, rider)
            hold = window(head, len(batch)) if window is not None else None
            if hold is not None and hold.seconds > 0.0 and len(batch) < limit:
                opened = joined = time.monotonic()
                popped = len(batch)
                self._gathering.add(head.fingerprint)
                try:
                    while len(batch) < limit and not self._closed:
                        until = opened + hold.seconds
                        if len(batch) >= hold.lanes:
                            until = min(until, joined + hold.grace)
                        remaining = until - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(timeout=remaining)
                        size = len(batch)
                        self._collect_riders(batch, head, limit, rider)
                        if len(batch) > size:
                            joined = time.monotonic()
                finally:
                    self._gathering.discard(head.fingerprint)
                    self._cond.notify_all()
                    batch.held_seconds = time.monotonic() - opened
                    batch.held_riders = len(batch) - popped
            return batch

    def _collect_riders(
        self, batch: DispatchBatch, head: SolveRequest, max_batch: int, rider
    ) -> None:
        """Pull the head's live same-fingerprint riders from the queue
        (caller holds the lock)."""
        if not self._items:
            return
        now = time.monotonic()
        keep: deque[SolveRequest] = deque()
        for req in self._items:
            if req.fingerprint != head.fingerprint:
                keep.append(req)
            elif req.expired(now):
                # Same-pattern and already dead: sweep it even when
                # the batch is full or the policy would reject it — it
                # can only ever be answered TIMEOUT, so fail it fast.
                batch.expired.append(req)
            elif req.streaming:
                # Never a rider: stays queued to head its own dispatch.
                keep.append(req)
            elif len(batch) < max_batch and (
                rider is None or rider(head, req, len(batch))
            ):
                batch.append(req)
            else:
                keep.append(req)
        self._items = keep

    def close(self) -> None:
        """Stop admissions and wake every blocked consumer."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain(self) -> list[SolveRequest]:
        """Remove and return everything still pending (shutdown path)."""
        with self._cond:
            pending = list(self._items)
            self._items.clear()
            return pending
