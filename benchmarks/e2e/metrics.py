"""End-to-end and live per-layer metrics of one untraced run.

Everything here is computed from outside the server: client-side wall
clocks, fields of the replies, and ``/v1/metrics`` counter deltas taken
around the measured phases.  Each metric is ``{"value", "n"}`` — the
number and the sample count behind it; units live in ``BENCHMARK.json``.

**The quiet-quarter rule.**  The two end-to-end timings are taken over
*blocks*: the main phase is a whole number of blocks, each the same
patterns in the same order with fresh values (``Plan.block_rounds``).
Every block gives a median request latency and a throughput;
``latency_p50_ms`` is the median over the quarter of the blocks with
the lowest latency and ``solves_per_s`` the median over the quarter
with the highest throughput.  On the shared 2-core box this benchmark
was sized on, a fixed pure-Python loop swings 18-35 ms from one
3-second window to the next: the noise is one-sided (a neighbour can
only slow the run down) and arrives in bursts.  The least disturbed
quarter of the blocks estimates what the program itself costs; plain
whole-run medians spread 10-35 % between runs of one commit, the quiet
quarter 1-15 % (README.md, *Steadiness*).
"""

from __future__ import annotations

import json
import math
import statistics

import numpy as np

from benchmarks.e2e import wire
from benchmarks.e2e.loadgen import Sample


def metric(value: float, n: int) -> dict:
    return {"value": float(value), "n": int(n)}


def p(values, q: float) -> dict:
    """The ``q``-th percentile of ``values`` (0 when there are none)."""
    values = list(values)
    return metric(np.percentile(values, q) if values else 0.0, len(values))


def share(hits: int, total: int) -> dict:
    return metric(hits / total if total else 0.0, total)


def server_seconds(sample: Sample) -> float:
    """Queue wait + compile + solve the server reported for a request
    (a fan-out's lanes run in one pass: its slowest lane is the pass)."""
    blocks = sample.blocks
    if not blocks:
        return 0.0
    return (
        sample.raw.get("queue_seconds", 0.0)
        + max(b["compile_seconds"] for b in blocks)
        + max(b["solve_seconds"] for b in blocks)
    )


def blocks_of(samples: list[Sample], size: int) -> list[list[Sample]]:
    """Consecutive equal-composition blocks (one block when ``size`` is 0)."""
    if not size:
        return [samples]
    return [samples[i : i + size] for i in range(0, len(samples), size)]


def block_wall_s(block: list[Sample]) -> float:
    return max(s.started_s + s.latency_s for s in block) - min(
        s.started_s for s in block
    )


def block_values(
    phases: dict[str, tuple[list[Sample], float]], block_size: int
) -> dict[str, list[float]]:
    """Per block of the main phase: median latency and throughput."""
    blocks = blocks_of(phases["main"][0], block_size)
    return {
        "p50_ms": [
            float(np.percentile([s.latency_s * 1e3 for s in block], 50))
            for block in blocks
        ],
        "solves_per_s": [
            sum(len(s.request.instances) for s in block) / block_wall_s(block)
            for block in blocks
        ],
    }


def quiet_quarter(values: list[float], *, best) -> float:
    """The median of the quarter of ``values`` nearest ``best`` (``min``
    for a latency, ``max`` for a throughput)."""
    ranked = sorted(values, reverse=best is max)
    return statistics.median(ranked[: math.ceil(len(ranked) / 4)])


def end_to_end(
    phases: dict[str, tuple[list[Sample], float]],
    per_block: dict[str, list[float]],
    setup_seconds: list[float],
    rss_mb: float,
) -> dict[str, dict]:
    samples = [s for group, _ in phases.values() for s in group]
    n_blocks = len(per_block["p50_ms"])
    if n_blocks > 1:
        throughput = quiet_quarter(per_block["solves_per_s"], best=max)
    else:
        # One block: every phase counts, first touches and re-admissions.
        throughput = sum(len(s.request.instances) for s in samples) / sum(
            wall for _, wall in phases.values()
        )
    cycles = [b["cycles"] for s in samples for b in s.blocks]
    return {
        "latency_p50_ms": metric(
            quiet_quarter(per_block["p50_ms"], best=min), n_blocks
        ),
        "solves_per_s": metric(throughput, n_blocks),
        "setup_s": metric(statistics.median(setup_seconds), len(setup_seconds)),
        "sim_cycles_per_solve": metric(
            np.mean(cycles) if cycles else 0.0, len(cycles)
        ),
        "server_rss_mb": metric(rss_mb, 1),
    }


def live_layers(
    phases: dict[str, tuple[list[Sample], float]],
    before: dict,
    after: dict,
    null_rtt: list[float],
    verdict: dict,
) -> dict[str, dict]:
    """Per-layer metrics available without tracing."""
    samples = [s for group, _ in phases.values() for s in group]
    answered = [s for s in samples if s.blocks]
    blocks = [b for s in answered for b in s.blocks]
    delta = {
        name: after["counters"][name] - before["counters"][name]
        for name in after["counters"]
    }
    lookups = delta["pool_hits"] + delta["pool_misses"]
    misses = [b for b in blocks if not b["warm"] and "cache_hit" in b]
    compiles = [
        max(b["compile_seconds"] for b in s.blocks) * 1e3
        for s in answered
        if any(b["compile_seconds"] > 0 for b in s.blocks)
    ]
    lanes = [
        s.raw["lanes"] if s.request.kind == "scenarios" else s.raw["batch_lanes"]
        for s in answered
    ]
    iterations = [b["result"]["iterations"] for b in blocks]
    main = [s.latency_s * 1e3 for s in phases["main"][0]]
    readmit = [s.latency_s * 1e3 for s in phases.get("readmit", ([], 0))[0]]
    return {
        "failed_share": share(verdict["failed"], verdict["attempted"]),
        "latency_p90_ms": p(main, 90),
        "latency_whole_run_p50_ms": p(main, 50),
        "readmit_p50_ms": p(readmit, 50),
        "serve.queue.wait_p50_ms": p(
            (s.raw["queue_seconds"] * 1e3 for s in answered), 50
        ),
        "serve.pool.solve_p50_ms": p(
            (max(b["solve_seconds"] for b in s.blocks) * 1e3 for s in answered),
            50,
        ),
        "serve.pool.compile_p50_ms": p(compiles, 50),
        "serve.pool.hit_share": share(delta["pool_hits"], lookups),
        "serve.pool.evictions": metric(delta["pool_evictions"], lookups),
        "compiler.cache.artifact_hit_share": share(
            sum(bool(b["cache_hit"]) for b in misses), len(misses)
        ),
        "serve.controller.coalesced_share": share(
            sum(bool(s.raw.get("batched")) for s in answered), len(answered)
        ),
        "serve.controller.batch_lanes_mean": metric(
            np.mean(lanes) if lanes else 0.0, len(lanes)
        ),
        "serve.controller.bailout_lanes": metric(
            delta["bailout_lanes"], len(blocks)
        ),
        "backends.session.delta_bind_share": share(
            sum(bool(b["delta_bind"]) for b in blocks), len(blocks)
        ),
        "solver.admm.iters_per_solve": metric(
            np.mean(iterations) if iterations else 0.0, len(iterations)
        ),
        "arch.host_crossings_per_iter": metric(
            delta["host_crossings"] / delta["admm_iterations"]
            if delta["admm_iterations"]
            else 0.0,
            delta["admm_iterations"],
        ),
        "serve.unattributed_p50_ms": p(
            ((s.latency_s - server_seconds(s)) * 1e3 for s in answered), 50
        ),
        "serve.server.null_rtt_p50_ms": p(null_rtt, 50),
        "serve.client.request_bytes": metric(
            np.mean(
                [len(wire.encode(wire.request_body(s.request))) for s in samples]
            ),
            len(samples),
        ),
        "serve.server.response_bytes": metric(
            np.mean([len(json.dumps(s.raw).encode()) for s in answered])
            if answered
            else 0.0,
            len(answered),
        ),
    }
