"""ADMM iteration-loop throughput: interpret vs replay.

The motivating profile for trace compilation: a fully network-executed
solve spends essentially all of its wall time inside the per-iteration
kernel loop of :meth:`MIBSolver.solve_on_network`.  This benchmark
times that loop under both execution modes on one representative of
each of the five problem domains, verifies replay results are
bit-identical to the interpretive oracle, and writes
``benchmarks/results/BENCH_solve.json``.

Runnable two ways:

* ``pytest benchmarks/bench_solve_throughput.py`` — harness run;
* ``python benchmarks/bench_solve_throughput.py [--check]`` — CI
  perf-smoke entry point; ``--check`` exits non-zero unless replay
  beats the interpreter on every domain and both modes agree bit for
  bit on every domain.

Timing protocol (see :func:`benchmarks.common.seconds_per_iteration`):
fixed-length runs with checks deferred past the horizon, per-iteration
cost isolated as ``(t(N) - t(1)) / (N - 1)``, endpoints min-of-repeats.
The replay loop costs hundreds of *micro*seconds per iteration, so it
is timed over long runs; the interpreter costs one to two orders of
magnitude more and gets a short one.
"""

from __future__ import annotations

import sys

from repro.backends.mib import MIBSolver
from repro.problems import (
    huber_problem,
    lasso_problem,
    mpc_problem,
    portfolio_problem,
    svm_problem,
)
from repro.solver import Settings

from benchmarks.common import (
    print_check_failures,
    seconds_per_iteration,
    write_json,
)

C = 8

# (timed iterations, min-of repeats) per mode: the differential
# estimator needs long runs where per-iteration cost is micro-scale.
MODE_PLAN = {
    "interpret": (12, 3),
    "replay": (400, 7),
}

# Fixed-length runs: residual checks deferred past the horizon, no rho
# adaptation, tolerances far below reach — every run executes exactly
# max_iter iterations of exactly the same kernels.
BENCH_SETTINGS = Settings(
    max_iter=4000,
    check_interval=10_000,
    adaptive_rho=False,
    eps_abs=1e-14,
    eps_rel=1e-14,
)

DOMAINS = {
    "lasso": lambda: lasso_problem(8, seed=7),
    "mpc": lambda: mpc_problem(3, horizon=4, seed=7),
    "portfolio": lambda: portfolio_problem(10, seed=7),
    "svm": lambda: svm_problem(5, n_samples=15, seed=7),
    "huber": lambda: huber_problem(8, n_samples=20, seed=7),
}

# Bit-identity runs use realistic solver behaviour (termination checks,
# rho adaptation) so replay is exercised through residual checks and
# mid-solve refactorizations, not just the steady loop.
VERIFY_SETTINGS = Settings(max_iter=500, check_interval=25)


def _report_key(r):
    return (
        r.status,
        r.iterations,
        r.cycles,
        r.x.tobytes(),
        r.z.tobytes(),
        r.y.tobytes(),
        r.primal_residual,
        r.dual_residual,
    )


def bench_domain(name: str, plan: dict[str, tuple[int, int]]) -> dict:
    problem = DOMAINS[name]()
    row: dict = {"n": problem.n, "m": problem.m, "nnz": problem.nnz}

    keys = {}
    for mode in plan:
        solver = MIBSolver(
            problem, variant="direct", c=C,
            settings=VERIFY_SETTINGS, execution=mode,
        )
        keys[mode] = _report_key(solver.solve_on_network())
    bit_identical = keys["replay"] == keys["interpret"]

    per_iter: dict[str, float] = {}
    for mode, (timed_iters, repeats) in plan.items():
        solver = MIBSolver(
            problem, variant="direct", c=C,
            settings=BENCH_SETTINGS, execution=mode,
        )
        # Warm-up: trace compilation and allocator effects stay out of
        # the timed runs.
        solver.solve_on_network(max_iter=1)
        per_iter.update(
            seconds_per_iteration(
                {mode: solver}, timed_iters=timed_iters, repeats=repeats
            )
        )

    for mode, cost in per_iter.items():
        row[mode] = {
            "seconds_per_iteration": cost,
            "iterations_per_second": 1.0 / cost,
        }
    row["speedup"] = per_iter["interpret"] / per_iter["replay"]
    row["bit_identical"] = bit_identical
    return row


def run_benchmark(plan: dict[str, tuple[int, int]] | None = None) -> dict:
    plan = dict(MODE_PLAN) if plan is None else plan
    domains = {name: bench_domain(name, plan) for name in DOMAINS}
    doc = {
        "benchmark": "admm_iteration_loop_throughput",
        "c": C,
        "variant": "direct",
        "modes": list(plan),
        "domains": domains,
        "all_bit_identical": all(
            d["bit_identical"] for d in domains.values()
        ),
        "min_speedup": min(d["speedup"] for d in domains.values()),
    }
    return doc


def check(doc: dict) -> list[str]:
    """CI gate: compiled execution must pay for itself and must not
    change the math."""
    failures = []
    if not doc["all_bit_identical"]:
        bad = [
            name
            for name, d in doc["domains"].items()
            if not d["bit_identical"]
        ]
        failures.append(f"execution modes diverge bitwise on: {bad}")
    if doc["min_speedup"] <= 1.0:
        failures.append(
            "replay slower than interpretive execution "
            f"(min speedup {doc['min_speedup']:.2f}x)"
        )
    return failures


def _print_summary(doc: dict) -> None:
    for name, d in doc["domains"].items():
        cols = [f"{name:>10}:"]
        for mode in doc["modes"]:
            cols.append(
                f"{mode} {d[mode]['iterations_per_second']:9.0f} it/s"
            )
        cols.append(f"replay {d['speedup']:6.1f}x")
        cols.append(f"bit-identical: {d['bit_identical']}")
        print(" | ".join(cols))


def test_solve_throughput():
    """Harness entry: quick plan (short runs), same gates."""
    plan = {
        "interpret": (8, 2),
        "replay": (120, 3),
    }
    doc = run_benchmark(plan)
    write_json("BENCH_solve.json", doc, sort_keys=False)
    _print_summary(doc)
    assert doc["all_bit_identical"]
    assert doc["min_speedup"] > 1.0


def main(argv: list[str]) -> int:
    doc = run_benchmark()
    write_json("BENCH_solve.json", doc, sort_keys=False)
    _print_summary(doc)
    if "--check" in argv:
        failures = check(doc)
        if not failures:
            print("perf-smoke OK")
        return print_check_failures(failures)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
