"""Closed-loop load generation against the serve layer.

Drives a live :class:`~repro.serve.ServeServer` (real HTTP, real
threads) with a mixed request stream over five sparsity patterns
(lasso / mpc / portfolio / svm / huber), perturbing the numeric values
of every request (fresh seed, same pattern).  The measurement is the
serving economics of the paper's compile-once/solve-many argument:

* **cold** — the first request of each pattern pays solver
  construction (lowering + scheduling) on top of the solve;
* **warm** — every later request of that pattern rides a resident
  solver via ``bind_values`` (only ``q`` moves, so after the first
  rebind each one is a vectors-only delta bind);
* **policy comparison** — the same concurrent same-pattern burst
  driven under each batching policy (``off`` — every request a solo
  warm solve; ``greedy`` — coalesce everything waiting; ``adaptive``
  — the learned controller with per-pattern caps, value bucketing
  and dispatch holds), reporting p50 latency and burst throughput
  side by side.  A coalesced batch is its requests solved in order on
  the resident solver, each answered as its own solve finishes, so
  the policies differ in hold/window behaviour under a burst and in
  how many requests one worker drains per dispatch, never in the
  answers.  Run on a separate
  server, so its counters and controller history stay apart from the
  cold/warm phases; the controller warms up on unmeasured bursts
  first, the way a live service would have history.

No phase warm-starts from a previous answer: every solve starts from
the zero iterate on the pattern's resident solver (only its adapted
ρ carries), so the warm gain is construction skipped, not iterations
saved.

Writes ``benchmarks/results/BENCH_serve.json`` with
p50/p95/p99 latency and throughput for every phase.

Runnable two ways:

* ``pytest benchmarks/bench_serve.py`` — harness run;
* ``python benchmarks/bench_serve.py [--check]`` — CI smoke entry
  point; ``--check`` exits non-zero unless every request solved, the
  pattern count matches the cold-compile count, warm p50 latency is
  at least 5x below cold p50, the adaptive policy's burst p50 is
  within 0.9x of the better of unbatched and greedy on every pattern,
  and its aggregate burst throughput within 0.9x of the better of the
  two.  ``--policy-only`` runs just the policy-comparison phase (the
  perf-smoke entry point).
"""

from __future__ import annotations

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
from repro.solver import QPProblem, Settings

from benchmarks.common import (
    percentiles,
    perturbed,
    print_check_failures,
    write_json,
)

C = 8
WARM_REQUESTS_PER_PATTERN = 12
BATCH_BURST = 16  # concurrent same-pattern requests per burst
MEASURED_BURSTS = 6  # measured bursts per policy (pooled)
SETTLE_ROUNDS = 2  # unmeasured off/greedy/adaptive rounds before them
REQUEST_TIMEOUT_S = 120.0

# The paper's default tolerances with an embedded-style responsive
# termination check: a solve of these small patterns converges in tens
# of iterations, and a 25-iteration check interval would round every
# such solve up to the next multiple of 25.
BENCH_SETTINGS = Settings(
    eps_abs=1e-3, eps_rel=1e-3, max_iter=4000, check_interval=5
)

# The mixed pattern suite: one base problem per domain, dimensioned
# for the regime the serve layer exists for — patterns whose
# lowering+scheduling cost dominates a single solve.
PATTERNS = {
    # Sized so a warm solo solve costs ~5-25 ms: the regime the serve
    # tier exists for, where solve cost dominates the ~1 ms/request
    # HTTP overhead and batching economics are measurable rather than
    # noise.
    "lasso": lambda: lasso_problem(16, n_samples=64, seed=0),
    "mpc": lambda: mpc_problem(6, seed=0),
    "portfolio": lambda: portfolio_problem(48, seed=0),
    "svm": lambda: svm_problem(10, n_samples=40, seed=0),
    "huber": lambda: huber_problem(10, n_samples=30, seed=0),
}

POLICY_PHASES = ("off", "greedy", "adaptive")


def _closed_loop(client: ServeClient, requests) -> tuple[list[float], int]:
    """Issue requests one at a time; return latencies + solved count."""
    latencies: list[float] = []
    solved = 0
    for problem in requests:
        t0 = time.perf_counter()
        response = client.solve(problem, timeout_s=REQUEST_TIMEOUT_S)
        latencies.append(time.perf_counter() - t0)
        solved += bool(response.solved)
        assert response.ok, f"serve request failed: {response.raw}"
    return latencies, solved


def _concurrent_burst(
    client: ServeClient, requests: list[QPProblem]
) -> list[float]:
    """Issue all requests at once; return per-request latencies."""
    latencies = [0.0] * len(requests)

    def issue(i: int, problem: QPProblem) -> None:
        t0 = time.perf_counter()
        response = client.solve(problem, timeout_s=REQUEST_TIMEOUT_S)
        latencies[i] = time.perf_counter() - t0
        assert response.ok and response.solved, (
            f"burst request failed: {response.raw}"
        )

    threads = [
        threading.Thread(target=issue, args=(i, p))
        for i, p in enumerate(requests)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return latencies


def run_policy_comparison(burst: int = BATCH_BURST) -> dict:
    """One identical concurrent burst per pattern under each policy.

    One fresh server for the whole comparison (warm starting off: the
    pool's previous-solution seeding applies to solo solves only and
    would bias the unbatched side).  Per pattern the same perturbed
    burst is driven under ``off`` (every request a solo warm solve —
    the unbatched baseline), ``greedy`` (coalesce everything waiting —
    the pre-controller behaviour) and ``adaptive`` (learned caps,
    bucketing, holds), in rounds of one burst per
    policy so all three sample the same stretch of machine time (a
    shared runner drifts by more than the gate's margin between
    back-to-back phases).  The controller carries its learned state
    through every burst exactly as a live service would: the ``off``
    bursts feed its solo cost model, the ``greedy`` bursts its pass
    model at full size.  ``SETTLE_ROUNDS`` unmeasured rounds let the
    cap decisions settle; the latencies of the following
    ``MEASURED_BURSTS`` rounds are pooled per policy.

    A pass costs what its lanes cost solo, so ``adaptive`` has
    nothing to win over ``off`` — the honest outcome is a ~1x ratio,
    and the gate is that the hold/window machinery loses nothing.
    """
    per_pattern: dict[str, dict] = {}
    deltas = (
        ("batched_passes", "batched_solves"),
        ("batched_lanes", "batched_lanes"),
        ("early_responses", "early_responses"),
    )
    with ServeServer(
        port=0,
        workers=2,
        capacity=len(PATTERNS),
        queue_size=4 * burst,
        max_batch=burst,
        batch_policy="off",
        variant="direct",
        c=C,
        settings=BENCH_SETTINGS,
    ) as server:
        client = ServeClient(port=server.port)
        for name, gen in PATTERNS.items():
            base = gen()
            client.solve(base, timeout_s=REQUEST_TIMEOUT_S)  # cold compile
            requests = [
                perturbed(base, 1000 + seed) for seed in range(burst)
            ]
            latencies = {policy: [] for policy in POLICY_PHASES}
            walls = dict.fromkeys(POLICY_PHASES, 0.0)
            counts = {
                policy: dict.fromkeys((key for key, _ in deltas), 0)
                for policy in POLICY_PHASES
            }
            for round_no in range(SETTLE_ROUNDS + MEASURED_BURSTS):
                for policy in POLICY_PHASES:
                    server.controller.policy = policy
                    if round_no < SETTLE_ROUNDS:
                        _concurrent_burst(client, requests)
                        continue
                    before = client.metrics()["counters"]
                    t0 = time.perf_counter()
                    burst_latencies = _concurrent_burst(client, requests)
                    wall = time.perf_counter() - t0
                    after = client.metrics()["counters"]
                    latencies[policy].extend(burst_latencies)
                    walls[policy] += wall
                    for key, counter in deltas:
                        counts[policy][key] += after[counter] - before[counter]
            measured = {
                policy: {
                    "p50_s": float(np.percentile(latencies[policy], 50)),
                    "p95_s": float(np.percentile(latencies[policy], 95)),
                    "wall_s": walls[policy],
                    "throughput_rps": (
                        MEASURED_BURSTS * burst / walls[policy]
                    ),
                    **counts[policy],
                }
                for policy in POLICY_PHASES
            }
            per_pattern[name] = {
                **measured,
                "adaptive_speedup_p50": (
                    measured["off"]["p50_s"] / measured["adaptive"]["p50_s"]
                ),
                "adaptive_speedup_throughput": (
                    measured["adaptive"]["throughput_rps"]
                    / measured["off"]["throughput_rps"]
                ),
                "adaptive_vs_best_p50": (
                    min(measured["off"]["p50_s"], measured["greedy"]["p50_s"])
                    / measured["adaptive"]["p50_s"]
                ),
            }
    aggregate = {
        policy: {
            "wall_s": sum(p[policy]["wall_s"] for p in per_pattern.values()),
            "throughput_rps": (
                len(per_pattern)
                * MEASURED_BURSTS
                * burst
                / sum(p[policy]["wall_s"] for p in per_pattern.values())
            ),
        }
        for policy in POLICY_PHASES
    }
    aggregate["adaptive_speedup_throughput"] = (
        aggregate["adaptive"]["throughput_rps"]
        / aggregate["off"]["throughput_rps"]
    )
    aggregate["adaptive_vs_best_throughput"] = aggregate["adaptive"][
        "throughput_rps"
    ] / max(
        aggregate["off"]["throughput_rps"],
        aggregate["greedy"]["throughput_rps"],
    )
    return {"burst": burst, "patterns": per_pattern, "aggregate": aggregate}


def run_benchmark(
    warm_per_pattern: int = WARM_REQUESTS_PER_PATTERN,
    batch_burst: int = BATCH_BURST,
) -> dict:
    with ServeServer(
        port=0,
        workers=2,
        capacity=len(PATTERNS),
        variant="direct",
        c=C,
        settings=BENCH_SETTINGS,
    ) as server:
        client = ServeClient(port=server.port)

        # Phase 1 — cold: first contact with every pattern.
        bases = [gen() for gen in PATTERNS.values()]
        t0 = time.perf_counter()
        cold_latencies, cold_solved = _closed_loop(client, bases)
        cold_wall = time.perf_counter() - t0

        # Phase 2 — warm: the steady-state request mix, values
        # perturbed per request, patterns interleaved.
        warm_problems = [
            perturbed(base, seed)
            for seed in range(1, warm_per_pattern + 1)
            for base in bases
        ]
        t1 = time.perf_counter()
        warm_latencies, warm_solved = _closed_loop(client, warm_problems)
        warm_wall = time.perf_counter() - t1

        # Snapshot before any later phase touches the counters: the
        # gates below price exactly the cold/warm phases above.
        metrics = client.metrics()

    policy = run_policy_comparison(batch_burst)

    cold = percentiles(cold_latencies)
    warm = percentiles(warm_latencies)
    counters = metrics["counters"]
    return {
        "benchmark": "serve_closed_loop_latency",
        "c": C,
        "variant": "direct",
        "patterns": list(PATTERNS),
        "warm_requests_per_pattern": warm_per_pattern,
        "cold": {
            **cold,
            "solved": cold_solved,
            "throughput_rps": len(cold_latencies) / cold_wall,
        },
        "warm": {
            **warm,
            "solved": warm_solved,
            "throughput_rps": len(warm_latencies) / warm_wall,
        },
        "warm_speedup_p50": cold["p50_s"] / warm["p50_s"],
        "policy": policy,
        "compile_count": counters["compile_count"],
        "warm_solve_count": counters["warm_solve_count"],
        "pool_hit_rate": metrics["pool_hit_rate"],
        "server_latency": metrics["latency"],
    }


def check(doc: dict) -> list[str]:
    """CI gate: the serving layer must actually amortize compilation."""
    failures = []
    total = doc["cold"]["count"] + doc["warm"]["count"]
    if doc["cold"]["solved"] + doc["warm"]["solved"] != total:
        failures.append("not every request solved to optimality")
    if doc["compile_count"] != len(doc["patterns"]):
        failures.append(
            f"expected exactly {len(doc['patterns'])} cold compiles, "
            f"saw {doc['compile_count']}"
        )
    if doc["warm_solve_count"] != doc["warm"]["count"]:
        failures.append(
            f"expected {doc['warm']['count']} warm solves, "
            f"saw {doc['warm_solve_count']}"
        )
    if doc["warm_speedup_p50"] < 5.0:
        failures.append(
            f"warm p50 must be >= 5x below cold p50, got "
            f"{doc['warm_speedup_p50']:.1f}x"
        )
    failures.extend(check_policy(doc["policy"]))
    return failures


def check_policy(policy: dict) -> list[str]:
    """CI gate: the adaptive policy must track the better fixed policy.

    What the controller promises is that it learns, per pattern,
    whichever of "never batch" (``off``) and "always batch"
    (``greedy``) serves the burst better — not that batching wins.
    Per pattern the adaptive p50 must be within 0.9x of the better of
    the two (the floor absorbs scheduler jitter), and aggregate
    adaptive burst throughput within 0.9x of the better aggregate.
    """
    failures = []
    for name, p in policy["patterns"].items():
        if p["adaptive_vs_best_p50"] < 0.9:
            failures.append(
                f"{name}: adaptive burst p50 must be >= 0.9x the better "
                f"of off/greedy, got {p['adaptive_vs_best_p50']:.2f}x"
            )
    agg = policy["aggregate"]["adaptive_vs_best_throughput"]
    if agg < 0.9:
        failures.append(
            "aggregate adaptive burst throughput must be >= 0.9x the "
            f"better of off/greedy, got {agg:.2f}x"
        )
    return failures


def test_serve_latency_split():
    """Harness entry point (pytest benchmarks/bench_serve.py)."""
    doc = run_benchmark(warm_per_pattern=4, batch_burst=8)
    write_json("BENCH_serve.json", doc)
    assert not check(doc)


def _print_policy(policy: dict) -> None:
    for name, p in policy["patterns"].items():
        adaptive = p["adaptive"]
        print(
            f"burst x{policy['burst']} {name:<10} "
            f"off p50 {p['off']['p50_s'] * 1e3:.1f} ms | "
            f"greedy p50 {p['greedy']['p50_s'] * 1e3:.1f} ms | "
            f"adaptive p50 {adaptive['p50_s'] * 1e3:.1f} ms "
            f"({p['adaptive_speedup_p50']:.2f}x p50, "
            f"{p['adaptive_speedup_throughput']:.1f}x rps, "
            f"{adaptive['batched_lanes']} lanes / "
            f"{adaptive['batched_passes']} passes, "
            f"{adaptive['early_responses']} early)"
        )
    agg = policy["aggregate"]
    print(
        f"aggregate burst throughput: off "
        f"{agg['off']['throughput_rps']:.1f} req/s | greedy "
        f"{agg['greedy']['throughput_rps']:.1f} req/s | adaptive "
        f"{agg['adaptive']['throughput_rps']:.1f} req/s "
        f"({agg['adaptive_speedup_throughput']:.1f}x)"
    )


def main(argv: list[str]) -> int:
    if "--policy-only" in argv:
        # Perf-smoke entry: just the policy comparison, no cold/warm
        # phases, gated on the policy gates alone.
        policy = run_policy_comparison()
        _print_policy(policy)
        if "--check" in argv:
            return print_check_failures(check_policy(policy))
        return 0
    doc = run_benchmark()
    write_json("BENCH_serve.json", doc)
    print(
        f"cold p50 {doc['cold']['p50_s'] * 1e3:.1f} ms | "
        f"warm p50 {doc['warm']['p50_s'] * 1e3:.1f} ms | "
        f"speedup {doc['warm_speedup_p50']:.1f}x | "
        f"warm throughput {doc['warm']['throughput_rps']:.1f} req/s"
    )
    _print_policy(doc["policy"])
    if "--check" in argv:
        return print_check_failures(check(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
