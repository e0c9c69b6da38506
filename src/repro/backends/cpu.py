"""Reference (host) execution of the solver, with wall-clock timing.

This is the "same algorithm variation running on CPU backends" of the
paper's comparison, in the only form available here: the pure-Python
reference implementation.  Wall-clock numbers from Python carry no
fidelity to MKL/QDLDL (that is what :mod:`repro.backends.models` is
for); this backend exists as the functional oracle and for relative
sanity checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..solver import OSQPSolver, QPProblem, Settings, SolveResult

__all__ = ["ReferenceRun", "run_reference"]


@dataclass(frozen=True)
class ReferenceRun:
    """A timed host-side solve."""

    result: SolveResult
    wall_seconds: float
    setup_seconds: float


def run_reference(
    problem: QPProblem,
    *,
    variant: str = "direct",
    settings: Settings | None = None,
    **solver_kwargs,
) -> ReferenceRun:
    """Solve on the host reference implementation with timing."""
    t0 = time.perf_counter()
    solver = OSQPSolver(problem, variant=variant, settings=settings, **solver_kwargs)
    t1 = time.perf_counter()
    result = solver.solve()
    t2 = time.perf_counter()
    return ReferenceRun(
        result=result, wall_seconds=t2 - t1, setup_seconds=t1 - t0
    )

