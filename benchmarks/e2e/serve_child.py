"""The server under test: one ``ServeServer`` in a child process.

Run as a script by :mod:`benchmarks.e2e.loadgen`; prints one JSON line
``{"port": ..., "pid": ...}`` once the listener is bound and stops
cleanly on SIGTERM (or when the pipe on its stdin closes).

The configuration is deliberately minimal.  ``c`` and ``settings`` are
the values every committed serving benchmark uses.  ``batch_policy`` is
passed only because the ``python -m repro serve`` default (``adaptive``)
and the ``ServeServer`` constructor default (``greedy``) disagree, and
the CLI is what users run.  Nothing else is passed, so a later change
to a product default (execution mode, workers, pool size) shows up in
the numbers as a product change, not as a benchmark edit.
"""

from __future__ import annotations

import json
import os
import signal
import stat
import sys
import threading

SETTINGS = {
    "eps_abs": 1e-3,
    "eps_rel": 1e-3,
    "max_iter": 4000,
    "check_interval": 5,
}
C = 8
BATCH_POLICY = "adaptive"

# The whole configuration, as stamped into every result document.
SERVE_CONFIG = {
    "port": 0,
    "c": C,
    "settings": SETTINGS,
    "batch_policy": BATCH_POLICY,
    "env": {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
}


def main() -> int:
    from repro.serve import ServeServer
    from repro.solver import Settings

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    if stat.S_ISFIFO(os.fstat(sys.stdin.fileno()).st_mode):
        # The load generator holds the other end of this pipe open; EOF
        # means it is gone, and the child must not outlive it.
        def watch_parent() -> None:
            # os.read, not sys.stdin: a daemon thread parked inside the
            # buffered reader's lock aborts interpreter shutdown.
            while os.read(sys.stdin.fileno(), 4096):
                pass
            stop.set()

        threading.Thread(target=watch_parent, daemon=True).start()
    with ServeServer(
        port=0, c=C, settings=Settings(**SETTINGS), batch_policy=BATCH_POLICY
    ) as server:
        print(json.dumps({"port": server.port, "pid": os.getpid()}), flush=True)
        stop.wait()
    return 0


if __name__ == "__main__":
    sys.exit(main())
