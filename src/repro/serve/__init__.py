"""``repro.serve`` — QP-as-a-service on top of the compiled backend.

The paper's workload is compile-once/solve-many: one sparsity pattern,
a stream of numeric instances (MPC loops, portfolio rebalancing,
per-request model fits).  This package turns the repo's batch
machinery — the pattern-keyed :class:`~repro.compiler.ScheduleCache`
and the cheap ``bind_values`` rebind — into a long-running service:

* :mod:`~repro.serve.pool` — warm :class:`~repro.backends.MIBSolver`
  instances keyed by pattern fingerprint (LRU, thread-safe);
* :mod:`~repro.serve.queue` — bounded admission with same-pattern
  request coalescing and per-request deadlines;
* :mod:`~repro.serve.controller` — the adaptive batching policy: a
  per-pattern cost model learned online decides batch caps, who rides
  together (value bucketing) and whether a batch is held open for
  arrivals;
* :mod:`~repro.serve.server` / :mod:`~repro.serve.client` — the
  stdlib HTTP front-end (JSON, plus values-only bodies for a pattern
  it already holds) and its Python client;
* :mod:`~repro.serve.metrics` — live counters and latency histograms
  (``/v1/metrics``);
* :mod:`~repro.serve.session` — sticky warm-start sessions: carried
  ``(x, y, ρ)`` per client session key, behind ``session=`` on
  ``/v1/solve``, the ordered ``/v1/sequence`` endpoint and the
  ``/v1/scenarios`` batch fan-out (DESIGN.md §5.8).

Start it with ``python -m repro serve`` or embed it::

    from repro.serve import ServeClient, ServeServer

    with ServeServer(port=0, workers=2, c=16) as server:
        client = ServeClient(port=server.port)
        response = client.solve(problem, timeout_s=10.0)
        assert response.solved
"""

from .client import ServeClient, SolveResponse, StreamResponse
from .controller import POLICIES, BatchController, PatternStats, value_distance
from .metrics import LatencyHistogram, ServeMetrics
from .pool import PoolSolve, SolverPool
from .queue import (
    DispatchBatch,
    Hold,
    QueueFullError,
    RequestQueue,
    SolveRequest,
)
from .server import ServeServer
from .session import SessionState, SessionStore

__all__ = [
    "BatchController",
    "DispatchBatch",
    "Hold",
    "LatencyHistogram",
    "PatternStats",
    "POLICIES",
    "PoolSolve",
    "QueueFullError",
    "RequestQueue",
    "ServeClient",
    "ServeMetrics",
    "ServeServer",
    "SessionState",
    "SessionStore",
    "SolveRequest",
    "SolveResponse",
    "SolverPool",
    "StreamResponse",
    "value_distance",
]
