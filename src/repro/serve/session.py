"""Server-side session state: carried iterates keyed by client session.

The serve tier's sticky warm-start store.  A client that tags its
requests with a ``session`` key gets its own
:class:`~repro.backends.session.SolveSession` — the stream's one record
of its carried ``(x, y, ρ)``, stepped in place on the pattern's
resident solver — so consecutive solves of a parametric stream warm
start from *that stream's* trajectory, not from whatever unrelated
request last touched the pattern.  It is the serve tier's only warm
start: an anonymous solve starts from the zero iterate (only the
resident solver's adapted ρ carries over).

Sessions are advisory state, not correctness state: losing one (TTL
expiry, capacity eviction, shard respawn) degrades the next step to a
cold start with the configured initial ρ — bitwise the same solve a
fresh session would run.  That is what makes the shard tier's
failure story safe: a died worker's sessions are simply gone, the
client's next request gets a fresh cold session (or a fast 503 while
the shard respawns) and the stream re-warms.

Locking: :meth:`SessionStore.acquire` returns the state object; the
caller holds ``state.lock`` for the whole span of a request's steps,
serializing concurrent requests on one session key.  The session lock
is taken strictly *outside* the pool's entry lock.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..backends.session import SolveSession
from .metrics import ServeMetrics

__all__ = ["SessionState", "SessionStore"]


@dataclass
class SessionState:
    """One client session (its ``session`` guarded by ``lock``)."""

    key: str
    fingerprint: str
    lock: threading.Lock = field(default_factory=threading.Lock)
    # The stream's carried state.  The pool lends it the pattern's
    # solver for the span of one request and detaches it afterwards,
    # so a stored session never keeps an evicted solver alive.
    session: SolveSession = field(default_factory=SolveSession)
    created_at: float = 0.0
    last_used: float = 0.0


class SessionStore:
    """Thread-safe TTL + LRU-capacity map of session states.

    Expiry is lazy: every :meth:`acquire` sweeps states idle past
    ``ttl_s`` and evicts least-recently-used beyond ``capacity``,
    skipping any whose lock is held (an in-flight solve is not idle).
    ``time_fn`` is injectable so churn tests drive the clock.
    """

    def __init__(
        self,
        *,
        capacity: int = 256,
        ttl_s: float = 300.0,
        metrics: ServeMetrics | None = None,
        time_fn=time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError("session capacity must be >= 1")
        if ttl_s <= 0:
            raise ValueError("session ttl must be positive")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self._time = time_fn
        self._states: OrderedDict[str, SessionState] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._states)

    # ------------------------------------------------------------------
    def acquire(self, key: str, fingerprint: str) -> SessionState:
        """The session for ``key``, created (or reset) as needed.

        A key reused with a different pattern fingerprint starts over:
        the carried iterate of another pattern has the wrong shape and
        the wrong meaning.  The caller must take ``state.lock`` before
        touching ``state.session``.
        """
        now = self._time()
        with self._lock:
            self._sweep_expired(now)
            state = self._states.get(key)
            if state is not None and state.fingerprint != fingerprint:
                # Same key, new pattern: this is a new stream.
                self._states.pop(key)
                self.metrics.inc("session_resets")
                state = None
            if state is None:
                state = SessionState(
                    key=key,
                    fingerprint=fingerprint,
                    created_at=now,
                    last_used=now,
                )
                self._states[key] = state
                self.metrics.inc("session_created")
            state.last_used = now
            self._states.move_to_end(key)
            self._trim(keep=key)
            return state

    def touch(self, key: str) -> None:
        """Refresh recency after a long-running solve finishes."""
        now = self._time()
        with self._lock:
            state = self._states.get(key)
            if state is not None:
                state.last_used = now
                self._states.move_to_end(key)

    def sweep(self) -> int:
        """Evict every expired idle session, then the least recently
        used idle ones beyond ``capacity``; returns the count."""
        with self._lock:
            before = len(self._states)
            self._sweep_expired(self._time())
            self._trim()
            return before - len(self._states)

    def _trim(self, keep: str | None = None) -> None:
        # Caller holds self._lock.  Neither ``keep`` (the state being
        # handed out) nor an in-flight state is ever the victim, so the
        # store may exceed capacity by the in-flight count until a
        # later acquire or sweep trims it.
        excess = len(self._states) - self.capacity
        if excess <= 0:
            return
        victims = [
            k
            for k, state in self._states.items()
            if k != keep and not state.lock.locked()
        ][:excess]
        for k in victims:
            del self._states[k]
        if victims:
            self.metrics.inc("session_evictions", len(victims))

    def _sweep_expired(self, now: float) -> None:
        # Caller holds self._lock.
        dead = [
            key
            for key, state in self._states.items()
            if now - state.last_used > self.ttl_s and not state.lock.locked()
        ]
        for key in dead:
            self._states.pop(key, None)
        if dead:
            self.metrics.inc("session_evictions", len(dead))

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Observability block for ``/v1/metrics``."""
        with self._lock:
            states = list(self._states.values())
            return {
                "active": len(states),
                "capacity": self.capacity,
                "ttl_s": self.ttl_s,
                "steps_total": sum(s.session.steps for s in states),
                "delta_binds_total": sum(
                    s.session.delta_binds for s in states
                ),
            }
