"""Sharded multi-process serve tier.

Scale the serve tier past the GIL by running N worker processes, each
owning a private warm :class:`~repro.serve.pool.SolverPool` and
adaptive batching shard.  A consistent-hash router keyed on the
schedule-cache pattern fingerprint pins every sparsity pattern to one
home shard (compile-once/solve-many per *process*), each request's
numeric values ride the shard's pipe as raw float64 in one ``submit``
message, and a thin :class:`ShardFrontend` does admission, routing,
deadline propagation and response demultiplexing — including failing
in-flight requests fast and respawning the worker when a shard dies.

Layering::

    ShardFrontend        routing + admission + demux (threads)
      ShardManager       process lifecycle, one pipe per shard
        ShardWorker      pipe protocol around a SolveEngine (process)
    ConsistentHashRouter pattern fingerprint -> home shard

The value codec (``pack_values`` / ``unpack_values`` /
``rebuild_problem``) lives in :mod:`repro.io`.
"""

from .frontend import ShardFrontend
from .manager import ShardHandle, ShardManager
from .router import ConsistentHashRouter
from .worker import ShardWorker, shard_worker_main

__all__ = [
    "ConsistentHashRouter",
    "ShardFrontend",
    "ShardHandle",
    "ShardManager",
    "ShardWorker",
    "shard_worker_main",
]
