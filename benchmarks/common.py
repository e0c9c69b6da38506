"""Shared helpers for the benchmark harness (see conftest.py for the
session fixtures that feed most benchmarks): result emission, the
JSON writers, percentile summaries, the MPC-style value perturbation
and the robust fixed-iteration timing protocol used by the perf-smoke
entry points."""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.solver import QPProblem, Settings

RESULTS_DIR = Path(__file__).parent / "results"

# Benchmark-harness solver settings: the paper's default tolerances.
BENCH_SETTINGS = Settings(eps_abs=1e-3, eps_rel=1e-3, max_iter=4000)


def n_scales() -> int:
    """Scales per domain: REPRO_FULL=1 -> the paper's 20, else
    REPRO_SCALES (default 4)."""
    if os.environ.get("REPRO_FULL"):
        return 20
    return int(os.environ.get("REPRO_SCALES", "4"))


def n_jobs() -> int:
    """Worker processes for the per-problem fan-out (REPRO_JOBS,
    default 1 = serial; results are identical either way)."""
    return int(os.environ.get("REPRO_JOBS", "1"))


def cache_dir() -> str | None:
    """Shared compilation-cache directory (REPRO_CACHE_DIR, optional).

    Pointing reruns at one directory amortizes pattern scheduling
    across the whole benchmark session — the paper's compile-once/
    solve-many lever applied to the harness itself."""
    return os.environ.get("REPRO_CACHE_DIR") or None


def write_result(name: str, text: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path


def emit(name: str, text: str) -> None:
    """Print a block and persist it under benchmarks/results/."""
    print()
    print(text)
    path = write_result(name, text)
    print(f"[saved to {path}]")


def write_json(name: str, doc: dict, *, sort_keys: bool = True) -> Path:
    """Persist a benchmark document under ``benchmarks/results/`` (the
    one home of every ``BENCH_*.json`` artifact)."""
    return write_result(
        name, json.dumps(doc, indent=2, sort_keys=sort_keys)
    )


def print_check_failures(failures: list[str]) -> int:
    """Report CI-gate failures to stderr; returns the exit code."""
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def percentiles(latencies: list[float]) -> dict:
    """p50/p95/p99/mean summary of a latency sample."""
    arr = np.asarray(latencies)
    return {
        "count": len(latencies),
        "p50_s": float(np.percentile(arr, 50)),
        "p95_s": float(np.percentile(arr, 95)),
        "p99_s": float(np.percentile(arr, 99)),
        "mean_s": float(arr.mean()),
    }


def perturbed(base: QPProblem, seed: int, scale: float = 0.05) -> QPProblem:
    """A fresh numeric instance of ``base``'s pattern (MPC-style).

    Perturbs the linear objective multiplicatively — the parametric
    update of tracking problems: constraints and curvature persist,
    the target moves every request.  Feasibility is untouched.
    """
    rng = np.random.default_rng(seed)
    q = base.q * (1.0 + scale * rng.standard_normal(base.n))
    return QPProblem(
        p=base.p, q=q, a=base.a, l=base.l, u=base.u, name=base.name
    )


def time_solve_iters(solver, max_iter: int) -> float:
    """Wall seconds of one fixed-length ``solve_on_network`` run."""
    t0 = time.perf_counter()
    solver.solve_on_network(max_iter=max_iter)
    return time.perf_counter() - t0


def seconds_per_iteration(
    solvers: dict[str, object],
    *,
    timed_iters: int,
    repeats: int,
) -> dict[str, float]:
    """Robust per-iteration cost of each solver's ADMM loop.

    Per solver the cost is isolated as ``(t(N) - t(1)) / (N - 1)`` —
    the one-time factorization, data load and final residual check
    cancel in the difference — with each endpoint taken as the minimum
    over ``repeats`` runs, *interleaved across solvers* so slow drifts
    of the host (frequency scaling, competing load) hit every
    execution mode equally rather than whichever happened to run last.
    """
    t_one = {m: float("inf") for m in solvers}
    t_many = {m: float("inf") for m in solvers}
    for _ in range(repeats):
        for mode, solver in solvers.items():
            t_one[mode] = min(t_one[mode], time_solve_iters(solver, 1))
        for mode, solver in solvers.items():
            t_many[mode] = min(
                t_many[mode], time_solve_iters(solver, timed_iters)
            )
    return {
        m: max((t_many[m] - t_one[m]) / (timed_iters - 1), 1e-12)
        for m in solvers
    }
