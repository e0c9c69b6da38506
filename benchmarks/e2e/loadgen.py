"""Server child lifecycle and the closed-loop load generator.

The generator talks to the child through the product's own
:class:`repro.serve.ServeClient` (a connection per request, JSON both
ways), so client encode and decode are inside every latency sample —
the latency a user of the package sees.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.serve import ServeClient
from repro.solver import SolveResult

from benchmarks.e2e.workloads import Plan, Request

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SRC = REPO_ROOT / "src"

SPAWN_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
NULL_RTT_SAMPLES = 50


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class ServerChild:
    """One ``serve_child.py`` process: spawn, address, memory, stop."""

    def __init__(self) -> None:
        self.spawned_at = time.perf_counter()
        # stdin stays open for the child's lifetime: the child exits
        # when it closes, so a killed generator leaves no orphan.
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=str(REPO_ROOT),
        )
        try:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], SPAWN_TIMEOUT_S
            )
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError("server child did not announce a port")
            hello = json.loads(line)
            self.port = int(hello["port"])
            self.pid = int(hello["pid"])
            self.client = ServeClient(port=self.port)
            if self.client.health().get("status") != "ok":
                raise RuntimeError("server child is not healthy")
        except BaseException:
            self.stop()
            raise

    def rss_hwm_mb(self) -> float:
        """Peak resident set of the child so far (``VmHWM``), in MB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found in /proc status")

    def terminate(self) -> None:
        """Ask the child to stop without waiting for it (``stop`` waits)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.terminate()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class Sample:
    """One timed exchange: what was sent, how long it took, what came back."""

    request: Request
    started_s: float
    latency_s: float
    http_status: int = 0
    raw: dict = field(default_factory=dict)
    results: list[SolveResult] = field(default_factory=list)
    error: str | None = None

    @property
    def blocks(self) -> list[dict]:
        """The per-instance payload blocks, in ``request.instances``
        order (the whole payload for ``/v1/solve``)."""
        if self.request.kind == "scenarios":
            return self.raw.get("scenarios") or []
        return [self.raw] if self.raw.get("status") == "ok" else []


def issue(client: ServeClient, request: Request) -> Sample:
    """Send one request, wait for its reply, time the whole exchange."""
    t0 = time.perf_counter()
    try:
        if request.kind == "scenarios":
            reply = client.scenarios(request.problem, list(request.variants))
            results = reply.results
        else:
            reply = client.solve(request.problem, session=request.session)
            results = [reply.result] if reply.result is not None else []
    except Exception as exc:  # a failed exchange is a failed sample
        return Sample(
            request,
            t0,
            time.perf_counter() - t0,
            error=f"{type(exc).__name__}: {exc}",
        )
    return Sample(
        request,
        t0,
        time.perf_counter() - t0,
        http_status=reply.http_status,
        raw=reply.raw,
        results=results,
    )


def setup(plan: Plan) -> tuple[ServerChild, float]:
    """Spawn a child and warm every pattern with one request of the
    workload's own kind; returns the child and the set-up seconds."""
    child = ServerChild()
    try:
        for request in plan.warmup:
            sample = issue(child.client, request)
            if sample.error or sample.http_status != 200:
                raise RuntimeError(
                    f"warm-up of {request.pattern} failed: "
                    f"{sample.error or sample.raw}"
                )
    except BaseException:
        child.stop()
        raise
    return child, time.perf_counter() - child.spawned_at


def run_phase(port: int, client_lists: list[list[Request]]) -> tuple[list[Sample], float]:
    """Drive one phase to completion; returns samples and wall seconds.

    One client runs in the calling thread.  Several clients run one
    thread each and meet at a barrier before every request index, so
    they present the server with simultaneous same-pattern requests.
    """
    if len(client_lists) == 1:
        client = ServeClient(port=port)
        t0 = time.perf_counter()
        samples = [issue(client, r) for r in client_lists[0]]
        return samples, time.perf_counter() - t0

    barrier = threading.Barrier(len(client_lists))
    per_client: list[list[Sample]] = [[] for _ in client_lists]

    def drive(index: int) -> None:
        client = ServeClient(port=port)
        for request in client_lists[index]:
            barrier.wait()
            per_client[index].append(issue(client, request))

    threads = [
        threading.Thread(target=drive, args=(i,), name=f"e2e-client-{i}")
        for i in range(len(client_lists))
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    # Round-major: the samples of one lock-step round sit together.
    return [s for round_ in zip(*per_client) for s in round_], wall


def null_rtt_ms(client: ServeClient, n: int = NULL_RTT_SAMPLES) -> list[float]:
    """Round trips of ``GET /v1/health``: connection set-up, HTTP
    framing and the handler thread, with no solver work behind them."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        client.health()
        out.append((time.perf_counter() - t0) * 1e3)
    return out
