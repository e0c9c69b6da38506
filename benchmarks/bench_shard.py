"""Multi-process closed-loop benchmark of the sharded serve tier.

Drives live ``ServeServer(shards=N)`` instances — real worker
processes, each request's values over the shard's pipe, real HTTP —
with a mixed five-pattern load (lasso / mpc / portfolio / svm / huber,
values perturbed per request) and measures what sharding is for:

* **scaling** — sustained warm closed-loop throughput at 1, 2 and 4
  shards (8 when the host has >= 8 cores), same offered concurrency,
  reported as requests/s — the median of ``SCALING_ROUNDS`` rounds per
  arm on a full run — plus efficiency against linear scaling from
  the 1-shard baseline, each count's rounds alternating with the
  baseline's (see :func:`run_scaling`).  The linear-scaling gate only
  applies up to the host's visible core count: processes can't scale
  past the physical machine, and CI boxes are small.
* **in-process arm** — the same clients, stream and settings against
  ``shards=0, workers=2`` (the tier the shards must beat).  On a full
  run with >= 2 cores, 2 shards must reach ``SHARD_GATE`` (1.3x) its
  throughput at no worse p50 latency, or the tier does not earn its
  keep; ``--smoke`` records the ratio without gating it.
* **bit-identical** — the same request stream against a fresh sharded
  server and a fresh in-process server must produce byte-identical
  solutions (iterations, x, y, objective).  This is the transport
  correctness gate: raw float64 values, no JSON on the hot path.
* **recovery** — SIGKILL one shard worker mid-load: every in-flight
  and subsequent request resolves within its deadline (re-routed 200
  or fast 503, never a hang), the shard respawns, and the pattern it
  owned serves again.  Around the whole start → kill → stop span, a
  census checks that no ``/dev/shm`` entry appeared and no
  ``repro-shard-*`` process outlived the server.

Writes ``benchmarks/results/BENCH_shard.json``.

Runnable two ways:

* ``pytest benchmarks/bench_shard.py`` — harness run;
* ``python benchmarks/bench_shard.py [--smoke] [--check]`` — CI
  entry point.  ``--smoke`` shrinks the load and skips the scaling
  sweep (2 shards only); ``--check`` exits non-zero unless every
  request resolved, the bit-identical, recovery and leak gates hold,
  every core-covered shard count reaches 70% of linear scaling and
  (full run, >= 2 cores) 2 shards beat the in-process arm 1.3x.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time

import numpy as np

from repro.problems import (
    huber_problem,
    lasso_problem,
    mpc_problem,
    portfolio_problem,
    svm_problem,
)
from repro.serve import ServeClient, ServeServer
from repro.solver import Settings

from benchmarks.common import (
    percentiles,
    perturbed,
    print_check_failures,
    write_json,
)

C = 8
REQUEST_TIMEOUT_S = 120.0
SCALING_GATE = 0.7  # fraction of linear scaling required (gated counts)
SCALING_ROUNDS = 3  # closed-loop rounds per arm; gates read their median
SHARD_GATE = 1.3  # 2-shard throughput over the in-process arm's
IN_PROCESS_WORKERS = 2

BENCH_SETTINGS = Settings(
    eps_abs=1e-3, eps_rel=1e-3, max_iter=4000, check_interval=5
)

# Same mixed suite as bench_serve: five sparsity patterns sized so a
# warm solve dominates per-request HTTP/transport overhead.
PATTERNS = {
    "lasso": lambda: lasso_problem(16, n_samples=64, seed=0),
    "mpc": lambda: mpc_problem(6, seed=0),
    "portfolio": lambda: portfolio_problem(48, seed=0),
    "svm": lambda: svm_problem(10, n_samples=40, seed=0),
    "huber": lambda: huber_problem(10, n_samples=30, seed=0),
}

# Small-pattern suite for the smoke tier (seconds, not minutes).
SMOKE_PATTERNS = {
    "lasso": lambda: lasso_problem(8, n_samples=24, seed=0),
    "mpc": lambda: mpc_problem(3, seed=0),
    "portfolio": lambda: portfolio_problem(12, seed=0),
    "svm": lambda: svm_problem(6, n_samples=16, seed=0),
    "huber": lambda: huber_problem(6, n_samples=12, seed=0),
}


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def shard_counts() -> tuple[int, ...]:
    counts = (1, 2, 4)
    if cores() >= 8:
        counts = counts + (8,)
    return counts


def _server(shards: int, workers: int = 1, **kwargs) -> ServeServer:
    return ServeServer(
        port=0,
        workers=workers,
        shards=shards,
        c=C,
        settings=BENCH_SETTINGS,
        capacity=8,
        batch_policy="greedy",
        **kwargs,
    )


def _mixed_stream(patterns: dict, count: int, *, seed0: int):
    names = sorted(patterns)
    base = {name: gen() for name, gen in patterns.items()}
    return [
        perturbed(base[names[i % len(names)]], seed=seed0 + i)
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# phase 1: throughput scaling
# ----------------------------------------------------------------------
class _Arm:
    """One server under the closed-loop mix: every pattern warmed once,
    then driven one round at a time (``clients`` threads sharing one
    client, ``requests_per_client`` requests each)."""

    def __init__(
        self,
        server: ServeServer,
        *,
        clients: int,
        requests_per_client: int,
        patterns: dict,
    ) -> None:
        self.client = ServeClient(port=server.port)
        for problem in _mixed_stream(patterns, len(patterns), seed0=0):
            response = self.client.solve(problem, timeout_s=REQUEST_TIMEOUT_S)
            assert response.ok, f"warmup failed: {response.raw}"
        self.clients = clients
        self.requests_per_client = requests_per_client
        self.patterns = patterns
        self.latencies: list[float] = []
        self.solved = 0
        self.round_rps: list[float] = []

    def round(self) -> float:
        """Run one round; returns its throughput (requests/s)."""
        index = len(self.round_rps)
        series: list[list[float]] = [[] for _ in range(self.clients)]
        hits = [0] * self.clients

        def loop(tid: int) -> None:
            stream = _mixed_stream(
                self.patterns,
                self.requests_per_client,
                seed0=1000 * (tid + 1) + 100_000 * index,
            )
            for problem in stream:
                t0 = time.perf_counter()
                response = self.client.solve(
                    problem, timeout_s=REQUEST_TIMEOUT_S
                )
                series[tid].append(time.perf_counter() - t0)
                hits[tid] += bool(response.solved)

        threads = [
            threading.Thread(target=loop, args=(tid,))
            for tid in range(self.clients)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        rps = self.clients * self.requests_per_client / elapsed
        self.round_rps.append(rps)
        self.latencies.extend(s for part in series for s in part)
        self.solved += sum(hits)
        return rps

    def summary(self) -> dict:
        per_round = self.clients * self.requests_per_client
        return {
            "requests": len(self.round_rps) * per_round,
            "solved": self.solved,
            "rounds": len(self.round_rps),
            "round_throughput_rps": self.round_rps,
            "throughput_rps": float(np.median(self.round_rps)),
            "latency": percentiles(self.latencies),
        }


def run_scaling(*, counts: tuple[int, ...], rounds: int, **load) -> dict:
    """Closed-loop mixed load at each shard count, same concurrency.

    One round is ~1 s and the box's speed drifts between seconds, so
    the base (first) count's server stays up and each other count's
    rounds alternate with rounds on it: a count's efficiency is the
    median, over its rounds, of its throughput against ``count`` times
    the base round run just before it.
    """
    scaling: dict[str, dict] = {}
    with _server(counts[0]) as base_server:
        base = _Arm(base_server, **load)
        for count in counts[1:]:
            with _server(count) as server:
                arm = _Arm(server, **load)
                ratios = []
                for _ in range(rounds):
                    base_rps = base.round()
                    ratios.append(arm.round() / (count * base_rps))
                scaling[str(count)] = {
                    "shards": count,
                    **arm.summary(),
                    "efficiency_vs_linear": float(np.median(ratios)),
                }
        while len(base.round_rps) < rounds:
            base.round()
        scaling = {
            str(counts[0]): {
                "shards": counts[0],
                **base.summary(),
                "efficiency_vs_linear": 1.0 / counts[0],
            },
            **scaling,
        }
    return scaling


def run_in_process(*, rounds: int, **load) -> dict:
    """The scaling load against the in-process tier (no shards)."""
    with _server(0, workers=IN_PROCESS_WORKERS) as server:
        arm = _Arm(server, **load)
        for _ in range(rounds):
            arm.round()
        return {"shards": 0, "workers": IN_PROCESS_WORKERS, **arm.summary()}


# ----------------------------------------------------------------------
# phase 2: bit-identical vs in-process
# ----------------------------------------------------------------------
def run_bit_identical(
    *, requests: int = 10, patterns: dict = PATTERNS
) -> dict:
    """The same stream against fresh sharded and in-process servers."""
    stream = _mixed_stream(patterns, requests, seed0=77)
    with _server(2) as sharded_server, _server(0) as reference_server:
        sharded = ServeClient(port=sharded_server.port)
        reference = ServeClient(port=reference_server.port)
        mismatches = []
        for i, problem in enumerate(stream):
            a = sharded.solve(problem, timeout_s=REQUEST_TIMEOUT_S)
            b = reference.solve(problem, timeout_s=REQUEST_TIMEOUT_S)
            assert a.ok and b.ok, (a.raw, b.raw)
            ra, rb = a.raw["result"], b.raw["result"]
            identical = (
                ra["iterations"] == rb["iterations"]
                and np.array_equal(np.asarray(ra["x"]), np.asarray(rb["x"]))
                and np.array_equal(np.asarray(ra["y"]), np.asarray(rb["y"]))
                and ra["objective"] == rb["objective"]
            )
            if not identical:
                mismatches.append({"request": i, "name": problem.name})
    return {
        "requests": len(stream),
        "mismatches": mismatches,
        "identical": not mismatches,
    }


# ----------------------------------------------------------------------
# phase 3: worker-death recovery under load
# ----------------------------------------------------------------------
def run_recovery(
    *, patterns: dict = PATTERNS, load_requests: int = 12
) -> dict:
    """SIGKILL one shard mid-load; nothing may hang, and nothing of the
    server outlives it."""
    shm_before, workers_before = _shm_entries(), _shard_workers()
    with _server(2) as server:
        client = ServeClient(port=server.port)
        base = sorted(patterns)[0]
        anchor = patterns[base]()
        first = client.solve(anchor, timeout_s=REQUEST_TIMEOUT_S)
        assert first.ok, first.raw
        home = server.frontend.router.home(first.fingerprint)

        outcomes: list[str] = []
        durations: list[float] = []
        lock = threading.Lock()

        def loop(tid: int) -> None:
            stream = _mixed_stream(
                patterns, load_requests, seed0=5000 * (tid + 1)
            )
            for problem in stream:
                t0 = time.perf_counter()
                response = client.solve(problem, timeout_s=10.0)
                with lock:
                    durations.append(time.perf_counter() - t0)
                    outcomes.append(response.status)

        threads = [
            threading.Thread(target=loop, args=(tid,)) for tid in range(3)
        ]
        for t in threads:
            t.start()
        time.sleep(0.05)  # let the load hit the pipes
        server.frontend.kill_shard(home)
        for t in threads:
            t.join()

        # Nothing hung: every request resolved well inside its
        # deadline plus the client's transport margin.
        hung = sum(d > 15.0 for d in durations)

        # The shard respawns and the pattern it owned serves again.
        deadline = time.monotonic() + 60.0
        health = client.health()
        while health["status"] != "ok" and time.monotonic() < deadline:
            time.sleep(0.2)
            health = client.health()
        again = client.solve(
            perturbed(anchor, seed=123), timeout_s=REQUEST_TIMEOUT_S
        )
        respawns = client.metrics()["counters"]["shard_respawns"]
        live = server.frontend.live_shards()
        back_home = (
            server.frontend.router.route(first.fingerprint, live=live) == home
        )
    shm_leaked = sorted(_shm_entries() - shm_before)
    workers_left = len(_shard_workers() - workers_before)
    counts: dict[str, int] = {}
    for status in outcomes:
        counts[status] = counts.get(status, 0) + 1
    return {
        "requests_during_outage": len(outcomes),
        "outcomes": counts,
        "hung": hung,
        "max_latency_s": max(durations) if durations else 0.0,
        "recovered": health["status"] == "ok",
        "respawns": respawns,
        "pattern_back_home": back_home,
        "pattern_served_after_respawn": bool(again.ok and again.solved),
        "shm_leaked": shm_leaked,
        "workers_left": workers_left,
    }


def _shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _shard_workers() -> set[int]:
    return {
        p.pid
        for p in multiprocessing.active_children()
        if p.name.startswith("repro-shard-")
    }


# ----------------------------------------------------------------------
def run_benchmark(*, smoke: bool = False) -> dict:
    patterns = SMOKE_PATTERNS if smoke else PATTERNS
    counts = (2,) if smoke else shard_counts()
    doc: dict = {
        "benchmark": "shard",
        "smoke": smoke,
        "cores": cores(),
        "config": {
            "c": C,
            "shard_counts": list(counts),
            "batch_policy": "greedy",
            "workers_per_shard": 1,
            "in_process_workers": IN_PROCESS_WORKERS,
        },
    }
    load = {
        "clients": 3 if smoke else 6,
        "requests_per_client": 4 if smoke else 15,
        "patterns": patterns,
        "rounds": 1 if smoke else SCALING_ROUNDS,
    }
    doc["scaling"] = run_scaling(counts=counts, **load)
    doc["in_process"] = run_in_process(**load)
    two, inproc = doc["scaling"]["2"], doc["in_process"]
    doc["shard_vs_in_process"] = {
        "throughput_ratio": two["throughput_rps"] / inproc["throughput_rps"],
        "p50_ratio": two["latency"]["p50_s"] / inproc["latency"]["p50_s"],
        "gated": not smoke and doc["cores"] >= 2,
    }
    doc["bit_identical"] = run_bit_identical(
        requests=5 if smoke else 10, patterns=patterns
    )
    doc["recovery"] = run_recovery(
        patterns=patterns, load_requests=4 if smoke else 12
    )
    return doc


def check(doc: dict) -> list[str]:
    """The CI gates; returns failure strings (empty = pass)."""
    failures: list[str] = []
    phases = {**doc["scaling"], "in-process": doc["in_process"]}
    for key, phase in phases.items():
        if phase["solved"] != phase["requests"]:
            failures.append(
                f"scaling@{key}: only {phase['solved']}/{phase['requests']}"
                " requests solved"
            )
    # The linear-scaling gate applies only where the host has the
    # cores to scale into (an N-shard tier can't beat an M-core box).
    base = min(doc["config"]["shard_counts"])
    for key, phase in doc["scaling"].items():
        count = phase["shards"]
        if count == base or count > doc["cores"]:
            continue
        if phase["efficiency_vs_linear"] < SCALING_GATE:
            failures.append(
                f"scaling@{key}: {phase['efficiency_vs_linear']:.2f} of "
                f"linear < required {SCALING_GATE:.2f}"
            )
    versus = doc["shard_vs_in_process"]
    if versus["gated"] and (
        versus["throughput_ratio"] < SHARD_GATE or versus["p50_ratio"] > 1.0
    ):
        failures.append(
            f"2 shards vs in-process: {versus['throughput_ratio']:.2f}x "
            f"throughput at {versus['p50_ratio']:.2f}x p50; the tier needs "
            f">= {SHARD_GATE:.1f}x at no worse p50"
        )
    if not doc["bit_identical"]["identical"]:
        failures.append(
            f"bit-identical: {len(doc['bit_identical']['mismatches'])} "
            "mismatched requests vs in-process serve"
        )
    recovery = doc["recovery"]
    if recovery["hung"]:
        failures.append(
            f"recovery: {recovery['hung']} requests hung past the deadline"
        )
    if not recovery["recovered"]:
        failures.append("recovery: shard never reported healthy again")
    if not recovery["pattern_served_after_respawn"]:
        failures.append(
            "recovery: the killed shard's pattern failed after respawn"
        )
    if not recovery["respawns"]:
        failures.append("recovery: no respawn recorded in metrics")
    if recovery["shm_leaked"]:
        failures.append(f"leak: /dev/shm gained {recovery['shm_leaked']}")
    if recovery["workers_left"]:
        failures.append(
            f"leak: {recovery['workers_left']} shard workers outlived stop()"
        )
    for status in recovery["outcomes"]:
        if status not in ("ok", "rejected"):
            failures.append(f"recovery: unexpected outcome {status!r}")
    return failures


def test_shard_tier():
    """Harness entry: smoke-scale run with the full gate set."""
    doc = run_benchmark(smoke=True)
    write_json("BENCH_shard.json", doc)
    assert not check(doc)


def _print_summary(doc: dict) -> None:
    print(f"\nshard benchmark (cores={doc['cores']}, smoke={doc['smoke']})")
    for key in sorted(doc["scaling"], key=int):
        phase = doc["scaling"][key]
        print(
            f"  {key} shard(s): {phase['throughput_rps']:7.2f} req/s  "
            f"p50 {phase['latency']['p50_s'] * 1e3:7.2f} ms  "
            f"efficiency {phase['efficiency_vs_linear']:.2f}x linear"
        )
    inproc, versus = doc["in_process"], doc["shard_vs_in_process"]
    print(
        f"  in-process (workers={inproc['workers']}): "
        f"{inproc['throughput_rps']:7.2f} req/s  "
        f"p50 {inproc['latency']['p50_s'] * 1e3:7.2f} ms  "
        f"2 shards: {versus['throughput_ratio']:.2f}x throughput, "
        f"{versus['p50_ratio']:.2f}x p50 (gated={versus['gated']})"
    )
    bit = doc["bit_identical"]
    print(
        f"  bit-identical vs in-process: {bit['identical']} "
        f"({bit['requests']} requests)"
    )
    rec = doc["recovery"]
    print(
        f"  recovery: outcomes={rec['outcomes']} hung={rec['hung']} "
        f"respawns={rec['respawns']} "
        f"served-after={rec['pattern_served_after_respawn']} "
        f"shm-leaked={rec['shm_leaked']} workers-left={rec['workers_left']}"
    )


def main(argv: list[str]) -> int:
    doc = run_benchmark(smoke="--smoke" in argv)
    path = write_json("BENCH_shard.json", doc)
    _print_summary(doc)
    print(f"[saved to {path}]")
    if "--check" in argv:
        return print_check_failures(check(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
