"""Batched trace replay throughput: B same-pattern QPs in one pass.

Sweeps the batch width B over {1, 4, 16, 64, 256} on the serving pattern
suite (lasso / mpc / portfolio / svm) and measures the aggregate ADMM
iteration throughput of :meth:`~repro.backends.MIBSolver.solve_batch`
against B independent passes.  Lanes are fresh numeric instances of
one sparsity pattern (perturbed linear objectives, the MPC-style
parametric update), all driven in lockstep for a fixed iteration
count so every batch width does exactly the same arithmetic per lane:

* throughput(B) = B * iterations / wall seconds of one batched pass;
* speedup(B)    = throughput(B) / throughput(1).

The win is pure interpreter amortization — one pass through the
compiled trace's flat-numpy plan executes all lanes per opcode, so the
per-opcode Python dispatch cost is paid once instead of B times.

Correctness rides along: at the gated width (B=16) every lane is
compared bitwise against the sequential oracle — ``bind_instance`` +
``solve_on_network`` on the same solver — and the per-lane verdicts
land in the JSON as ``bit_identical_lanes``.

Writes ``benchmarks/results/BENCH_batch.json``.

Runnable two ways:

* ``pytest benchmarks/bench_batch.py`` — harness run (quick sweep);
* ``python benchmarks/bench_batch.py [--quick] [--check]`` — CI smoke
  entry point; ``--check`` exits non-zero unless batch-16 aggregate
  throughput is >= 4x batch-1 on at least 3 of the 4 domains and every
  verified lane is bit-identical.
"""

from __future__ import annotations

import sys
import time

from repro.backends import MIBSolver
from repro.problems import (
    lasso_problem,
    mpc_problem,
    portfolio_problem,
    svm_problem,
)
from repro.solver import QPProblem, Settings

from benchmarks.common import perturbed, print_check_failures, write_json

C = 8
ITERS = 16          # fixed lockstep depth: identical arithmetic per B
GATE_BATCH = 16     # the width the CI gate prices
GATE_SPEEDUP = 4.0  # batch-16 must beat batch-1 by at least this
GATE_DOMAINS = 3    # ... on at least this many of the 4 domains

# Fixed-iteration lockstep settings: tolerances no solve can reach, a
# check interval no solve can hit, adaptation off — every lane runs
# exactly ITERS iterations and checks residuals once, at the end.
# Throughput then measures the replay engine, not termination luck.
BATCH_SETTINGS = Settings(
    eps_abs=1e-12,
    eps_rel=1e-12,
    max_iter=ITERS,
    check_interval=10**9,
    adaptive_rho=False,
)

# The serving pattern suite (same dimensions as bench_serve.py).
PATTERNS = {
    "lasso": lambda: lasso_problem(10, n_samples=40, seed=0),
    "mpc": lambda: mpc_problem(4, seed=0),
    "portfolio": lambda: portfolio_problem(32, seed=0),
    "svm": lambda: svm_problem(6, n_samples=24, seed=0),
}

FULL_SWEEP = (1, 4, 16, 64, 256)
QUICK_SWEEP = (1, GATE_BATCH)


def _time_batch(
    solver: MIBSolver, problems: list[QPProblem], reps: int
) -> tuple[float, int]:
    """Best-of-``reps`` wall time of one batched pass + its iterations."""
    best = float("inf")
    iterations = 0
    for _ in range(reps):
        t0 = time.perf_counter()
        batch = solver.solve_batch(problems)
        wall = time.perf_counter() - t0
        iterations = sum(lane.iterations for lane in batch.lanes)
        best = min(best, wall)
    return best, iterations


def _verify_lanes(
    solver: MIBSolver, problems: list[QPProblem]
) -> list[bool]:
    """Bitwise per-lane verdicts of solve_batch vs the solo oracle."""
    batch = solver.solve_batch(problems)
    verdicts = []
    for problem, lane in zip(problems, batch.lanes):
        solver.bind_instance(problem)
        solo = solver.solve_on_network()
        verdicts.append(
            lane.status is solo.status
            and lane.iterations == solo.iterations
            and lane.cycles == solo.cycles
            and lane.x.tobytes() == solo.x.tobytes()
            and lane.y.tobytes() == solo.y.tobytes()
            and lane.z.tobytes() == solo.z.tobytes()
        )
    return verdicts


def run_benchmark(*, quick: bool = False) -> dict:
    sweep = QUICK_SWEEP if quick else FULL_SWEEP
    reps = 2 if quick else 3
    domains: dict[str, dict] = {}
    for name, gen in PATTERNS.items():
        base = gen()
        solver = MIBSolver(
            base, variant="direct", c=C, settings=BATCH_SETTINGS
        )
        lanes = [
            perturbed(base, seed) for seed in range(1, max(sweep) + 1)
        ]
        solver.solve_batch(lanes[:1])  # warm up maps, traces, scratch
        batches: dict[str, dict] = {}
        for b in sweep:
            wall, iterations = _time_batch(solver, lanes[:b], reps)
            batches[str(b)] = {
                "lanes": b,
                "iterations": iterations,
                "wall_s": wall,
                "agg_iters_per_s": iterations / wall,
                "solves_per_s": b / wall,
            }
        verdicts = _verify_lanes(solver, lanes[:GATE_BATCH])
        speedup = (
            batches[str(GATE_BATCH)]["agg_iters_per_s"]
            / batches["1"]["agg_iters_per_s"]
        )
        domains[name] = {
            "n": base.n,
            "m": base.m,
            "nnz": base.nnz,
            "batch": batches,
            "speedup_16_vs_1": speedup,
            "bit_identical_lanes": verdicts,
            "bit_identical": all(verdicts),
        }
    passing = sum(
        1 for d in domains.values()
        if d["speedup_16_vs_1"] >= GATE_SPEEDUP
    )
    return {
        "benchmark": "batched_trace_replay_throughput",
        "c": C,
        "variant": "direct",
        "array_backend": solver.xp.name,
        "iterations_per_lane": ITERS,
        "quick": quick,
        "batch_sweep": list(sweep),
        "domains": domains,
        "gate": {
            "batch": GATE_BATCH,
            "threshold": GATE_SPEEDUP,
            "min_domains": GATE_DOMAINS,
            "domains_passing": passing,
            "pass": passing >= GATE_DOMAINS,
        },
    }


def check(doc: dict) -> list[str]:
    """CI gate: batching must amortize and must not change the math."""
    failures = []
    for name, d in doc["domains"].items():
        if not d["bit_identical"]:
            bad = [
                i for i, ok in enumerate(d["bit_identical_lanes"]) if not ok
            ]
            failures.append(f"{name}: lanes {bad} diverge from solo solves")
    gate = doc["gate"]
    if gate["domains_passing"] < gate["min_domains"]:
        slow = {
            name: f"{d['speedup_16_vs_1']:.1f}x"
            for name, d in doc["domains"].items()
            if d["speedup_16_vs_1"] < gate["threshold"]
        }
        failures.append(
            f"batch-{gate['batch']} must reach {gate['threshold']}x "
            f"batch-1 aggregate throughput on >= {gate['min_domains']} "
            f"of {len(doc['domains'])} domains; below gate: {slow}"
        )
    return failures


def test_batch_throughput_gate():
    """Harness entry point (pytest benchmarks/bench_batch.py)."""
    doc = run_benchmark(quick=True)
    write_json("BENCH_batch.json", doc)
    assert not check(doc)


def main(argv: list[str]) -> int:
    doc = run_benchmark(quick="--quick" in argv)
    write_json("BENCH_batch.json", doc)
    for name, d in doc["domains"].items():
        per_b = " | ".join(
            f"B={b['lanes']}: "
            f"{b['agg_iters_per_s']:.0f} it/s"
            for b in d["batch"].values()
        )
        print(
            f"{name:<10} {per_b} | x{d['speedup_16_vs_1']:.1f} @16 | "
            f"bit_identical={d['bit_identical']}"
        )
    gate = doc["gate"]
    print(
        f"gate: {gate['domains_passing']}/{len(doc['domains'])} domains "
        f">= {gate['threshold']}x at B={gate['batch']} -> "
        f"{'pass' if gate['pass'] else 'FAIL'}"
    )
    if "--check" in argv:
        return print_check_failures(check(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
