"""Streaming fast-path benchmark: sessions vs cold solo serving.

Drives the three parametric-stream workloads from ``examples/`` through
a live :class:`~repro.serve.ServeServer` (real HTTP) twice per domain:

* **cold** — every step an anonymous ``POST /v1/solve`` on a server
  with pool warm starting off: each request solves from scratch (the
  pre-session serving behaviour for a parametric stream);
* **warm** — the same stream through the session machinery: the open
  loops (lasso λ path, portfolio backtest) as one ``POST /v1/sequence``
  each, the closed loop (MPC) as session-keyed ``POST /v1/solve`` per
  period (the next QP depends on the returned state, so it cannot be
  batched ahead).

The cold phase runs first, so it also pins the pool entry each
pattern's session rides — warm-phase timings never pay construction.

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
  sequence rode the delta bind on all steps after the first, and warm
  p50 per-step wall time is <= 0.6x cold on at least 2 of the 3
  domains (the closed MPC loop still pays one HTTP round trip per
  step, so one domain is allowed to fall short on a noisy host).
"""

from __future__ import annotations

import sys
import time

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
RATIO_THRESHOLD = 0.6  # warm p50 per-step wall vs cold
MIN_DOMAINS_PASSING = 2

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


def _domain_doc(
    name, mode, cold_latencies, cold_results, warm_doc, problems, warm_results
):
    cold = percentiles(cold_latencies)
    ratio = warm_doc["per_step_wall_p50_s"] / cold["p50_s"]
    mismatches = twin_oracle_mismatches(problems, warm_results)
    return {
        "mode": mode,
        "steps": len(problems),
        "cold": {
            **cold,
            "iterations": int(sum(r.iterations for r in cold_results)),
        },
        "warm": {
            **warm_doc,
            "iterations": int(sum(r.iterations for r in warm_results)),
        },
        "warm_over_cold_p50": ratio,
        "oracle_mismatches": mismatches,
        "bitwise_identical": mismatches == 0,
    }


def run_benchmark(
    mpc_periods: int = MPC_PERIODS,
    portfolio_days: int = PORTFOLIO_DAYS,
) -> dict:
    domains: dict[str, dict] = {}
    with ServeServer(
        port=0,
        workers=2,
        capacity=4,
        variant="direct",
        c=C,
        settings=STREAM_SETTINGS,
        warm_start=False,
    ) as server:
        client = ServeClient(port=server.port)

        # ---- open-loop sequences: lasso path, portfolio backtest ----
        for name, steps, session in (
            ("lasso", lambda_steps(), "bench-lasso"),
            (
                "portfolio",
                backtest_steps(n_days=portfolio_days),
                "bench-portfolio",
            ),
        ):
            cold_latencies, cold_results, _ = _timed_solo(client, steps)
            t0 = time.perf_counter()
            response = client.sequence(
                steps[0], steps, session=session,
                timeout_s=SEQUENCE_TIMEOUT_S,
            )
            wall = time.perf_counter() - t0
            assert response.ok, f"{name} sequence failed: {response.raw}"
            assert len(response.results) == len(steps)
            assert all(b["solved"] for b in response.steps)
            warm_doc = {
                "wall_s": wall,
                "count": len(steps),
                "per_step_wall_p50_s": wall / len(steps),
                "solve_p50_s": float(
                    np.percentile(
                        [b["solve_seconds"] for b in response.steps], 50
                    )
                ),
                "delta_binds": sum(
                    1 for b in response.steps if b["delta_bind"]
                ),
            }
            domains[name] = _domain_doc(
                name, "sequence", cold_latencies, cold_results,
                warm_doc, steps, response.results,
            )

        # ---- closed loop: MPC, one session-keyed solve per period ----
        _, cold_results, _, cold_latencies = _closed_loop_phase(
            client, mpc_periods
        )
        problems, warm_results, blocks, warm_latencies = _closed_loop_phase(
            client, mpc_periods, session="bench-mpc"
        )
        warm_doc = {
            **{
                f"per_step_wall_{k.split('_')[0]}_s": v
                for k, v in percentiles(warm_latencies).items()
                if k.endswith("_s")
            },
            "wall_s": float(sum(warm_latencies)),
            "count": len(warm_latencies),
            "solve_p50_s": float(
                np.percentile([b["solve_seconds"] for b in blocks], 50)
            ),
            "delta_binds": sum(1 for b in blocks if b["delta_bind"]),
            "warm_requests": sum(1 for b in blocks if b["warm"]),
        }
        domains["mpc"] = _domain_doc(
            "mpc", "session_solo", cold_latencies, cold_results,
            warm_doc, problems, warm_results,
        )

        metrics = client.metrics()

    return {
        "benchmark": "stream_warm_vs_cold",
        "c": C,
        "variant": "direct",
        "settings": {"eps_abs": 1e-3, "eps_rel": 1e-3, "check_interval": 5},
        "ratio_threshold": RATIO_THRESHOLD,
        "min_domains_passing": MIN_DOMAINS_PASSING,
        "domains": domains,
        "domains_passing": sum(
            d["warm_over_cold_p50"] <= RATIO_THRESHOLD
            for d in domains.values()
        ),
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
    for name, d in doc["domains"].items():
        if not d["bitwise_identical"]:
            failures.append(
                f"{name}: {d['oracle_mismatches']}/{d['steps']} warm steps "
                "diverge bitwise from the twin-oracle solo solves "
                "(DESIGN.md §5.8 contract)"
            )
    lasso = doc["domains"]["lasso"]
    if lasso["warm"]["delta_binds"] < lasso["steps"] - 1:
        failures.append(
            "lasso: a λ path changes only q, so every step after the "
            f"first must delta-bind; got {lasso['warm']['delta_binds']}"
            f"/{lasso['steps']}"
        )
    passing = doc["domains_passing"]
    if passing < doc["min_domains_passing"]:
        ratios = {
            name: round(d["warm_over_cold_p50"], 3)
            for name, d in doc["domains"].items()
        }
        failures.append(
            f"warm p50 per-step wall must be <= {doc['ratio_threshold']}x "
            f"cold on >= {doc['min_domains_passing']} domains; "
            f"only {passing} pass ({ratios})"
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
            f"{name:<10} {d['mode']:<12} {d['steps']:>3} steps | "
            f"cold p50 {d['cold']['p50_s'] * 1e3:6.1f} ms/step | "
            f"warm p50 {warm['per_step_wall_p50_s'] * 1e3:6.1f} ms/step "
            f"({d['warm_over_cold_p50']:.2f}x) | "
            f"{warm['delta_binds']}/{d['steps']} delta binds | "
            f"iters {d['cold']['iterations']} -> {warm['iterations']} | "
            f"bitwise {'OK' if d['bitwise_identical'] else 'DIVERGED'}"
        )
    print(
        f"domains passing <= {doc['ratio_threshold']}x: "
        f"{doc['domains_passing']}/{len(doc['domains'])} "
        f"(gate: >= {doc['min_domains_passing']})"
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
