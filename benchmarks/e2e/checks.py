"""Correctness of every answer, checked off the clock.

A request counts as *failed* unless it came back HTTP 200, every
instance in it is ``solved``, every returned ``(x, y, z)`` meets the
solver's termination test when the residuals are recomputed here from
the instance that was sent, and — for every tenth request — the
objective of one of its instances agrees with an independent reference
solve of that instance from a cold iterate.

The oracle solves to 1e-5, a hundred times tighter than the server's
1e-3, and the band is 1e-1 * max(1, |objective|).  A same-tolerance
oracle with a 1e-2 band rejects correct answers: at 1e-3 the served
objective of the portfolio patterns sits up to 3.6 % from the optimum,
and two independent 1e-3 solves of one instance up to 4.8 % apart.  The
recomputed termination test is the sharp check; the oracle catches an
answer that is self-consistent but for the wrong problem.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.solver import OSQPSolver, QPProblem, Settings, SolveResult

from benchmarks.e2e.loadgen import Sample
from benchmarks.e2e.serve_child import SETTINGS

ORACLE_STRIDE = 10
ORACLE_RTOL = 1e-1
ORACLE_SETTINGS = {**SETTINGS, "eps_abs": 1e-5, "eps_rel": 1e-5, "max_iter": 20000}
# Residuals are recomputed in unscaled space from the wire values; the
# solver tested them on scaled iterates, so allow rounding noise only.
RESIDUAL_SLACK = 1.0 + 1e-6


def _norm_inf(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def termination_failure(
    problem: QPProblem, result: SolveResult, settings: Settings
) -> str | None:
    """``None`` when ``result`` meets the OSQP termination test on
    ``problem``, else a one-line reason."""
    if result.x.shape != (problem.n,) or result.y.shape != (problem.m,):
        return "solution has the wrong shape"
    ax = problem.a.matvec(result.x)
    px = problem.p_full.matvec(result.x)
    aty = problem.a.rmatvec(result.y)
    prim = _norm_inf(ax - result.z)
    dual = _norm_inf(px + problem.q + aty)
    eps_prim = settings.eps_abs + settings.eps_rel * max(
        _norm_inf(ax), _norm_inf(result.z)
    )
    eps_dual = settings.eps_abs + settings.eps_rel * max(
        _norm_inf(px), _norm_inf(aty), _norm_inf(problem.q)
    )
    if prim > eps_prim * RESIDUAL_SLACK:
        return f"primal residual {prim:.3e} > {eps_prim:.3e}"
    if dual > eps_dual * RESIDUAL_SLACK:
        return f"dual residual {dual:.3e} > {eps_dual:.3e}"
    return None


class ColdOracle:
    """Tight reference solves from a cold iterate, one host solver per
    pattern (rebound with ``update_values``, so ordering and symbolic
    factorization are paid once per pattern, not once per check)."""

    def __init__(self) -> None:
        self._solvers: dict[str, OSQPSolver] = {}

    def __call__(self, pattern: str, problem: QPProblem) -> float:
        solver = self._solvers.get(pattern)
        if solver is None:
            solver = self._solvers[pattern] = OSQPSolver(
                problem, settings=Settings(**ORACLE_SETTINGS)
            )
        else:
            solver.update_values(problem)
        return solver.solve().objective


def check_samples(
    samples: list[Sample],
    oracle: Callable[[str, QPProblem], float] | None = None,
) -> dict:
    """Verdict over a run's samples.

    Returns ``{"attempted", "failed", "instances", "oracle_checked",
    "reasons"}``; ``reasons`` holds the first few failure lines.
    """
    oracle = oracle if oracle is not None else ColdOracle()
    settings = Settings(**SETTINGS)
    failed = 0
    instances = 0
    oracle_checked = 0
    reasons: list[str] = []
    for index, sample in enumerate(samples):
        reason = None
        problems = sample.request.instances
        blocks = sample.blocks
        instances += len(problems)
        if sample.error is not None:
            reason = sample.error
        elif sample.http_status != 200 or sample.raw.get("status") != "ok":
            reason = f"HTTP {sample.http_status}: {sample.raw.get('detail')}"
        elif not (len(problems) == len(blocks) == len(sample.results)):
            reason = "reply does not cover every instance sent"
        else:
            for problem, block, result in zip(problems, blocks, sample.results):
                if not (block.get("solved") and result.solved):
                    reason = f"not solved ({result.status.value})"
                else:
                    reason = termination_failure(problem, result, settings)
                if reason is not None:
                    break
        if reason is None and index % ORACLE_STRIDE == 0:
            # One instance of the request, a different lane each time.
            lane = (index // ORACLE_STRIDE) % len(problems)
            oracle_checked += 1
            expected = oracle(sample.request.pattern, problems[lane])
            served = sample.results[lane].objective
            if abs(served - expected) > ORACLE_RTOL * max(1.0, abs(expected)):
                reason = (
                    f"objective {served:.6g} differs from the cold "
                    f"oracle's {expected:.6g}"
                )
        if reason is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{sample.request.pattern}: {reason}")
    return {
        "attempted": len(samples),
        "failed": failed,
        "instances": instances,
        "oracle_checked": oracle_checked,
        "reasons": reasons,
    }
