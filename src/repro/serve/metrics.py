"""Live service metrics: counters and latency histograms.

The serve layer's observability surface — exposed as JSON on
``GET /v1/metrics`` while the server runs and rendered as a report
block on shutdown.  The headline split mirrors the paper's economics:
*compile* latency (cold pattern, full lowering + scheduling) against
*warm-solve* latency (pattern already resident, ``bind_values``
rebind only), plus the queue/coalescing behaviour that keeps the warm
path hot.

Everything is guarded by one lock; the counters are incremented from
HTTP handler threads and pool worker threads concurrently.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["LatencyHistogram", "ServeMetrics"]

# Counter names, in report order.  Keeping the set closed (increment
# raises on an unknown name) catches typos at the call site instead of
# silently forking a new series.
COUNTERS = (
    "requests_total",
    "values_requests",  # requests admitted from a values-only body
    "unknown_pattern",  # values bodies answered 409 (pattern not held)
    "responses_ok",
    "responses_error",
    "rejected",        # queue-full admission failures
    "timeouts",        # deadline expiries (queued or unread responses)
    "pool_hits",       # request served by a resident warm solver
    "pool_misses",     # solver constructed (cache may still have helped)
    "pool_evictions",
    "compile_count",   # full lowering+scheduling runs (cold compiles)
    "warm_solve_count",  # solves on a pooled solver via bind_values
    "coalesced_batches",   # batches with >1 same-pattern request
    "coalesced_requests",  # requests that rode along in such batches
    "batched_solves",      # multi-lane passes (coalesced batch or fan-out)
    "batched_lanes",       # lanes solved inside those passes
    "expired_at_pop",      # requests already dead when dequeued (no lane)
    "admm_iterations",
    # Modelled host→numpy dispatch crossings: the pattern's
    # per-iteration crossings under trace replay x iterations solved.
    "host_crossings",
    # Adaptive batching controller (see repro.serve.controller):
    "rider_rejects_cap",       # ride-alongs refused by the learned cap
    "rider_rejects_distance",  # ride-alongs refused by value bucketing
    "bailout_lanes",           # always 0; read by benchmarks/e2e
    "early_responses",         # lanes answered before their pass ended
    "window_holds",            # dispatch-window holds opened
    "window_riders",           # requests that joined a batch during a hold
    # Sharded serve tier (see repro.shard); counted front-end side:
    "shard_respawns",          # worker deaths detected (and respawned)
    "shard_death_503",         # in-flight requests failed fast on death
    "shard_reroutes",          # requests routed off their home shard
    # Streaming sessions and scenario fan-out (see repro.serve.session):
    "session_created",         # new session keys admitted to the store
    "session_resets",          # keys reused with a different pattern
    "session_evictions",       # TTL expiries + LRU capacity evictions
    "session_solves",          # solves served with carried session state
    "session_503",             # session requests failed fast (shard down)
    "sequence_requests",       # POST /v1/sequence bodies admitted
    "sequence_steps",          # steps solved inside those sequences
    # Replies with delta_bind set: anonymous binds that skipped the
    # refactor, and session continuations (which may still refactor).
    "delta_binds",
    "scenario_requests",       # POST /v1/scenarios bodies admitted
    "scenario_lanes",          # perturbed variants fanned onto batch lanes
)

HISTOGRAMS = (
    "queue_wait",   # submit -> worker pickup
    "compile",      # solver construction on the miss path
    "warm_solve",   # bind_values + solve on the hit path
    "solve",        # solver.solve() wall time, both paths
    "total",        # submit -> response
)


class LatencyHistogram:
    """Bounded-sample latency series with percentile summaries.

    Samples are kept verbatim up to ``max_samples`` (a serve session's
    working set, not an unbounded log).  Beyond that the series thins
    to systematic sampling: the retention stride doubles and the
    buffer halves, so the retained samples stay uniformly spread over
    the *whole* stream rather than biased toward recent requests.
    Percentiles come from the retained samples; ``count``/``total``/
    ``max`` are exact regardless.
    """

    def __init__(self, *, max_samples: int = 65536) -> None:
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._samples: list[float] = []
        self._stride = 1
        self._skipped = 0  # samples since the last retained one

    def record(self, seconds: float) -> None:
        seconds = float(seconds)
        self.count += 1
        self.total += seconds
        self.max = max(self.max, seconds)
        self._skipped += 1
        if self._skipped < self._stride:
            return
        self._skipped = 0
        self._samples.append(seconds)
        if len(self._samples) >= self.max_samples:
            self._samples = self._samples[::2]
            self._stride *= 2

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100) of the retained samples."""
        if not self._samples:
            return 0.0
        return float(np.percentile(self._samples, p))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean_s": self.mean,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
            "max_s": self.max,
        }


class ServeMetrics:
    """Thread-safe counter/histogram registry for one serve session."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters = {name: 0 for name in COUNTERS}
        self._histograms = {name: LatencyHistogram() for name in HISTOGRAMS}
        # batch size -> number of batched-solve passes at that size
        self._batch_sizes: dict[int, int] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    def observe_batch(self, lanes: int, count: int = 1) -> None:
        """Record ``count`` batched solve passes of ``lanes`` lanes."""
        with self._lock:
            self._batch_sizes[int(lanes)] = (
                self._batch_sizes.get(int(lanes), 0) + count
            )

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            self._histograms[name].record(seconds)

    def count(self, name: str) -> int:
        with self._lock:
            return self._counters[name]

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One consistent JSON-ready view (the /v1/metrics payload)."""
        with self._lock:
            counters = dict(self._counters)
            latencies = {
                name: h.snapshot() for name, h in self._histograms.items()
            }
            batch_sizes = {
                str(size): count
                for size, count in sorted(self._batch_sizes.items())
            }
        lookups = counters["pool_hits"] + counters["pool_misses"]
        return {
            "counters": counters,
            "latency": latencies,
            "batch_sizes": batch_sizes,
            "pool_hit_rate": counters["pool_hits"] / lookups if lookups else 0.0,
        }

    def render(self) -> str:
        """Human-readable shutdown report."""
        from ..analysis import kv_block

        snap = self.snapshot()
        rows: list[tuple[str, object]] = list(snap["counters"].items())
        rows.append(("pool_hit_rate", f"{snap['pool_hit_rate']:.1%}"))
        if snap["batch_sizes"]:
            rows.append(
                (
                    "batch sizes (lanes x passes)",
                    ", ".join(
                        f"{size}x{count}"
                        for size, count in snap["batch_sizes"].items()
                    ),
                )
            )
        for name, h in snap["latency"].items():
            if h["count"]:
                rows.append(
                    (
                        f"{name} latency (p50/p95/p99)",
                        f"{h['p50_s'] * 1e3:.2f} / {h['p95_s'] * 1e3:.2f}"
                        f" / {h['p99_s'] * 1e3:.2f} ms",
                    )
                )
        return kv_block("serve metrics", rows)
