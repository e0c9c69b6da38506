"""Streaming fast-path benchmark: sessions vs cold solo serving.

Drives the three parametric-stream workloads from ``examples/`` through
a live :class:`~repro.serve.ServeServer` (real HTTP) twice per domain:

* **cold** — every step an anonymous ``POST /v1/solve`` on a server
  with pool warm starting off: each request starts from a zero iterate
  (the pre-session serving behaviour for a parametric stream), though
  its rebind rides the pool's delta bind whenever only vectors moved;
* **warm** — the same stream through the session machinery: the open
  loops (lasso λ path, portfolio backtest) as one ``POST /v1/sequence``
  each, the closed loop (MPC) as session-keyed ``POST /v1/solve`` per
  period (the next QP depends on the returned state, so it cannot be
  batched ahead).

Each domain runs ``ROUNDS`` cold/warm phase pairs, the order
alternating from round to round, and every timing below is taken over
all of them.  Round 0 runs the cold phase first, so it also pins the
pool entry each pattern's session rides — warm-phase timings never pay
construction.  Every warm phase opens a fresh session key, so every
round replays the same session trajectory.

Alongside the timings the benchmark enforces the determinism contract
of DESIGN.md §5.8: every warm step must be **bit-identical** to a solo
solve of the same instance on a same-lineage twin solver given the
same carried iterate —

    twin.bind_instance(problem_i, rho0=rho_{i-1})
    twin.solve(x0=x_{i-1}, y0=y_{i-1})

with the twin's own trajectory supplying ``(x, y, ρ)``.  Sessions are
an amortization, not an approximation, and the JSON wire preserves
float64 exactly, so the comparison is ``np.array_equal`` — no
tolerance.

Writes ``benchmarks/results/BENCH_stream.json``.

Runnable two ways:

* ``pytest benchmarks/bench_stream.py`` — harness run (reduced sizes);
* ``python benchmarks/bench_stream.py [--check]`` — CI smoke entry
  point; ``--check`` exits non-zero unless every step solved, every
  warm step is bit-identical to its twin-oracle solve, the lasso
  sequence rode the delta bind on all steps after the first, the warm
  steps took <= 0.75x the cold steps' ADMM iterations on every domain,
  and warm p50 per-step wall time is below cold on every domain.

Why the gate counts iterations: both phases skip the refactorization
(sessions through their continuation, anonymous requests through the
pool's delta bind), so what a session buys over an anonymous request
is the carried iterate and ρ — fewer iterations, an exact count
(0.64 / 0.61 / 0.72 of cold on lasso / portfolio / mpc over five
rounds; later cold rounds start from the ρ the phase before them left
on the resident solver, so round 0 alone reads 0.64 / 0.62 / 0.69).
The earlier
wall-ratio gate (<= 0.6x on 2 of 3 domains) priced the refactorization
the cold phase no longer pays and failed one run in five on a shared
2-vCPU host.  Wall time has to be lower on every domain.  One phase
lasts under a second, so a single slow stretch of such a host can
cover it and put one domain's ratio above 1 (mpc 1.10 once in ten
single-round runs); over five alternating rounds that stretch moves
one of five samples, not the median.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.backends import MIBSolver
from repro.serve import ServeClient, ServeServer
from repro.solver import Settings

from benchmarks.common import percentiles, print_check_failures, write_json
from examples.lasso_path import lambda_steps
from examples.mpc_control_loop import run_closed_loop
from examples.portfolio_backtest import backtest_steps

C = 8
MPC_PERIODS = 25
PORTFOLIO_DAYS = 4
REQUEST_TIMEOUT_S = 120.0
SEQUENCE_TIMEOUT_S = 600.0
ROUNDS = 5  # cold/warm phase pairs per domain, order alternating
ITERATION_RATIO = 0.75  # warm ADMM iterations vs cold, every domain

# Paper-default tolerances with a responsive termination check: warm
# re-solves converge in a handful of iterations and must not be rounded
# up to a coarse check interval.
STREAM_SETTINGS = Settings(
    eps_abs=1e-3, eps_rel=1e-3, max_iter=4000, check_interval=5
)


def _timed_solo(client: ServeClient, problems, *, session=None):
    """Anonymous (or session-keyed) solo solves, one request per step."""
    latencies, results, blocks = [], [], []
    for problem in problems:
        t0 = time.perf_counter()
        response = client.solve(
            problem, session=session, timeout_s=REQUEST_TIMEOUT_S
        )
        latencies.append(time.perf_counter() - t0)
        assert response.ok and response.solved, (
            f"stream request failed: {response.raw}"
        )
        results.append(response.result)
        blocks.append(response.raw)
    return latencies, results, blocks


def _closed_loop_phase(client: ServeClient, n_periods, *, session=None):
    """The MPC closed loop driven through the server, step-timed."""
    latencies, blocks = [], []

    def solve(problem):
        t0 = time.perf_counter()
        response = client.solve(
            problem, session=session, timeout_s=REQUEST_TIMEOUT_S
        )
        latencies.append(time.perf_counter() - t0)
        assert response.ok and response.solved, (
            f"mpc request failed: {response.raw}"
        )
        blocks.append(response.raw)
        return response.result

    problems, results, _ = run_closed_loop(solve, n_periods=n_periods)
    return problems, results, blocks, latencies


def twin_oracle_mismatches(problems, served_results) -> int:
    """Replay the stream on a same-lineage twin; count bitwise diffs.

    The twin is constructed from the stream's first instance with the
    server pool's exact configuration, then carries its own
    ``(x, y, ρ)`` with the session's continuation scoping — carried
    state applies only to vectors-only continuations; regime-change
    steps solve cold — the DESIGN.md §5.8 contract verbatim.
    """
    twin = MIBSolver(
        problems[0], variant="direct", c=C, settings=STREAM_SETTINGS
    )
    x = y = None
    rho = STREAM_SETTINGS.rho
    last_a = last_p = None
    mismatches = 0
    for problem, served in zip(problems, served_results):
        continuation = last_a is not None and (
            np.array_equal(problem.a.data, last_a)
            and np.array_equal(problem.p_upper.data, last_p)
        )
        if not continuation:
            x = y = None
            rho = STREAM_SETTINGS.rho
        twin.bind_instance(problem, rho0=rho)
        result = twin.solve(x0=x, y0=y).result
        if not (
            np.array_equal(result.x, served.x)
            and np.array_equal(result.y, served.y)
        ):
            mismatches += 1
        x, y = result.x, result.y
        rho = float(twin.reference.rho)
        last_a, last_p = problem.a.data, problem.p_upper.data
    return mismatches


@dataclass
class _Domain:
    """One stream's phases, pooled over the rounds."""

    mode: str
    steps: list | None  # None: the MPC closed loop builds its own
    cold_latencies: list = field(default_factory=list)
    cold_results: list = field(default_factory=list)
    warm_walls: list = field(default_factory=list)  # per-step walls
    warm_wall_s: float = 0.0
    warm_runs: list = field(default_factory=list)  # (problems, results)
    warm_blocks: list = field(default_factory=list)


def _cold_phase(client: ServeClient, d: _Domain, mpc_periods: int) -> None:
    """One anonymous pass over the stream, one request per step."""
    if d.steps is None:
        _, results, _, latencies = _closed_loop_phase(client, mpc_periods)
    else:
        latencies, results, _ = _timed_solo(client, d.steps)
    d.cold_latencies += latencies
    d.cold_results += results


def _warm_phase(
    client: ServeClient, d: _Domain, mpc_periods: int, session: str
) -> None:
    """One session pass over the stream under a fresh key.

    A sequence is one request, so it adds one per-step wall (its wall
    over its steps); the closed loop adds every request's latency.
    """
    if d.steps is None:
        problems, results, blocks, latencies = _closed_loop_phase(
            client, mpc_periods, session=session
        )
        walls, wall = latencies, float(sum(latencies))
    else:
        problems = d.steps
        t0 = time.perf_counter()
        response = client.sequence(
            problems[0], problems, session=session,
            timeout_s=SEQUENCE_TIMEOUT_S,
        )
        wall = time.perf_counter() - t0
        assert response.ok, f"{session} sequence failed: {response.raw}"
        assert len(response.results) == len(problems)
        assert all(b["solved"] for b in response.steps)
        results, blocks = response.results, response.steps
        walls = [wall / len(problems)]
    d.warm_walls += walls
    d.warm_wall_s += wall
    d.warm_runs.append((problems, results))
    d.warm_blocks += blocks


def _domain_doc(d: _Domain, rounds: int) -> dict:
    cold = percentiles(d.cold_latencies)
    blocks = d.warm_blocks
    warm_p50 = float(np.percentile(d.warm_walls, 50))
    mismatches = sum(
        twin_oracle_mismatches(problems, results)
        for problems, results in d.warm_runs
    )
    cold_iters = int(sum(r.iterations for r in d.cold_results))
    warm_iters = int(
        sum(r.iterations for _, results in d.warm_runs for r in results)
    )
    return {
        "mode": d.mode,
        "rounds": rounds,
        "steps": len(blocks) // rounds,  # per round
        "cold": {**cold, "iterations": cold_iters},
        "warm": {
            "wall_s": d.warm_wall_s,
            "count": len(blocks),
            "per_step_wall_p50_s": warm_p50,
            "solve_p50_s": float(
                np.percentile([b["solve_seconds"] for b in blocks], 50)
            ),
            "delta_binds": sum(1 for b in blocks if b["delta_bind"]),
            "warm_requests": sum(1 for b in blocks if b["warm"]),
            "iterations": warm_iters,
        },
        "warm_over_cold_p50": warm_p50 / cold["p50_s"],
        "warm_over_cold_iterations": warm_iters / cold_iters,
        "oracle_mismatches": mismatches,
        "bitwise_identical": mismatches == 0,
    }


def run_benchmark(
    mpc_periods: int = MPC_PERIODS,
    portfolio_days: int = PORTFOLIO_DAYS,
    rounds: int = ROUNDS,
) -> dict:
    streams = {
        "lasso": _Domain("sequence", lambda_steps()),
        "portfolio": _Domain(
            "sequence", backtest_steps(n_days=portfolio_days)
        ),
        # One session-keyed solve per period: the next QP depends on
        # the returned state, so it cannot be batched ahead.
        "mpc": _Domain("session_solo", None),
    }
    with ServeServer(
        port=0,
        workers=2,
        capacity=4,
        variant="direct",
        c=C,
        settings=STREAM_SETTINGS,
    ) as server:
        client = ServeClient(port=server.port)
        for r in range(rounds):
            for name, d in streams.items():
                session = f"bench-{name}-{r}"
                warm_first = r % 2 == 1
                if warm_first:
                    _warm_phase(client, d, mpc_periods, session)
                _cold_phase(client, d, mpc_periods)
                if not warm_first:
                    _warm_phase(client, d, mpc_periods, session)
        metrics = client.metrics()

    return {
        "benchmark": "stream_warm_vs_cold",
        "c": C,
        "variant": "direct",
        "settings": {"eps_abs": 1e-3, "eps_rel": 1e-3, "check_interval": 5},
        "iteration_ratio_threshold": ITERATION_RATIO,
        "domains": {
            name: _domain_doc(d, rounds) for name, d in streams.items()
        },
        "sessions": metrics["sessions"],
        "counters": {
            k: v
            for k, v in metrics["counters"].items()
            if k.startswith(("session", "sequence", "delta", "scenario"))
        },
    }


def check(doc: dict) -> list[str]:
    """CI gate: sessions must be faster than cold serving *and* exact."""
    failures = []
    threshold = doc["iteration_ratio_threshold"]
    for name, d in doc["domains"].items():
        if not d["bitwise_identical"]:
            failures.append(
                f"{name}: {d['oracle_mismatches']}/{d['warm']['count']} "
                "warm steps diverge bitwise from the twin-oracle solo "
                "solves (DESIGN.md §5.8 contract)"
            )
        if d["warm_over_cold_iterations"] > threshold:
            failures.append(
                f"{name}: warm steps took {d['warm_over_cold_iterations']:.3f}x "
                f"the cold iterations; must be <= {threshold}x"
            )
        if d["warm_over_cold_p50"] >= 1.0:
            failures.append(
                f"{name}: warm p50 per-step wall is "
                f"{d['warm_over_cold_p50']:.3f}x cold; must be below it"
            )
    lasso = doc["domains"]["lasso"]
    want = lasso["rounds"] * (lasso["steps"] - 1)
    if lasso["warm"]["delta_binds"] < want:
        failures.append(
            "lasso: a λ path changes only q, so every step after the "
            f"first must delta-bind; got {lasso['warm']['delta_binds']}"
            f"/{lasso['warm']['count']}, want >= {want}"
        )
    return failures


def test_stream_warm_vs_cold():
    """Harness entry point (pytest benchmarks/bench_stream.py).

    ``mpc_periods`` stays at full size: the closed loop's warm p50 is
    its steady state, which a short loop never reaches.
    """
    doc = run_benchmark(mpc_periods=MPC_PERIODS, portfolio_days=2)
    write_json("BENCH_stream.json", doc)
    assert not check(doc)


def _print(doc: dict) -> None:
    for name, d in doc["domains"].items():
        warm = d["warm"]
        print(
            f"{name:<10} {d['mode']:<12} {d['steps']:>3} steps "
            f"x {d['rounds']} | "
            f"cold p50 {d['cold']['p50_s'] * 1e3:6.1f} ms/step | "
            f"warm p50 {warm['per_step_wall_p50_s'] * 1e3:6.1f} ms/step "
            f"({d['warm_over_cold_p50']:.2f}x) | "
            f"{warm['delta_binds']}/{warm['count']} delta binds | "
            f"iters {d['cold']['iterations']} -> {warm['iterations']} "
            f"({d['warm_over_cold_iterations']:.2f}x) | "
            f"bitwise {'OK' if d['bitwise_identical'] else 'DIVERGED'}"
        )
    print(
        f"gate: warm iterations <= {doc['iteration_ratio_threshold']}x cold "
        "and warm p50 wall < cold, on every domain"
    )


def main(argv: list[str]) -> int:
    doc = run_benchmark()
    write_json("BENCH_stream.json", doc)
    _print(doc)
    if "--check" in argv:
        return print_check_failures(check(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
