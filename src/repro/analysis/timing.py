"""End-to-end runtime, utilization, energy and jitter evaluation
(Fig. 10, Fig. 11, Table III).

For every (problem, variant) the evaluation performs one reference
solve (shared by all platforms — the algorithm trace is platform-
independent), prices the MIB prototype from its compiled kernel
schedules, and prices each baseline platform from its analytical model.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..backends.mib import MIBSolver
from ..backends.models import (
    PLATFORMS,
    Platform,
    cpu_platform_for,
    model_runtime,
    sample_jittered_runtimes,
)
from ..compiler import ScheduleCache
from ..problems import ProblemSpec, parallel_map
from ..solver import QPProblem, Settings

__all__ = [
    "HOST_IDLE_WATTS",
    "MIB_JITTER_CV",
    "PlatformMeasurement",
    "ProblemEvaluation",
    "evaluate_problem",
    "evaluate_suite",
    "geomean",
    "jitter_experiment",
    "process_cache",
]

HOST_IDLE_WATTS = 22.0  # the CPU idles while FPGA/GPU devices solve
MIB_JITTER_CV = 0.005  # residual PCIe/DMA variability; compute is exact


def geomean(values) -> float:
    """Geometric mean (the paper's aggregate for all ratios)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0 or np.any(arr <= 0):
        raise ValueError("geomean needs positive values")
    return float(np.exp(np.mean(np.log(arr))))


@dataclass(frozen=True)
class PlatformMeasurement:
    """One platform's modeled performance on one problem."""

    platform: str
    runtime_s: float
    peak_flops: float
    total_flops: float
    device_watts: float
    system_watts: float
    jitter_cv: float

    @property
    def utilization(self) -> float:
        """Achieved fraction of peak FLOPs (Fig. 10 middle row)."""
        return self.total_flops / self.runtime_s / self.peak_flops

    @property
    def problems_per_joule_device(self) -> float:
        """Problems per second per watt, device power only."""
        return 1.0 / (self.runtime_s * self.device_watts)

    @property
    def problems_per_joule_system(self) -> float:
        return 1.0 / (self.runtime_s * self.system_watts)


@dataclass(frozen=True)
class ProblemEvaluation:
    """All platforms on one (problem, variant) cell."""

    name: str
    domain: str
    dimension: int
    nnz: int
    variant: str
    iterations: int
    measurements: dict[str, PlatformMeasurement]
    # Per-stage observability.  Wall times never participate in
    # equality: a --jobs 4 run must compare equal to --jobs 1 even
    # though each stage's wall clock differs run to run.
    compile_seconds: float = field(default=0.0, compare=False)
    solve_seconds: float = field(default=0.0, compare=False)
    cache_hit: bool = field(default=False, compare=False)

    def speedup_over(self, baseline: str, target: str = "mib") -> float:
        return (
            self.measurements[baseline].runtime_s
            / self.measurements[target].runtime_s
        )

    def efficiency_gain_over(
        self, baseline: str, *, system: bool = False, target: str = "mib"
    ) -> float:
        t = self.measurements[target]
        b = self.measurements[baseline]
        if system:
            return t.problems_per_joule_system / b.problems_per_joule_system
        return t.problems_per_joule_device / b.problems_per_joule_device


# FPGA device power (Section V-C: 12 W idle, ~18 W full load).  The
# efficiency metric divides by the *average of the power trace over the
# solve*, which sits between the two because the datapath is not
# saturated every cycle; 13 W reproduces the paper's efficiency ratios.
_MIB_LOAD_WATTS = 13.0


def evaluate_problem(
    problem: QPProblem,
    *,
    domain: str = "",
    dimension: int = 0,
    variant: str = "direct",
    c: int = 32,
    settings: Settings | None = None,
    platforms: dict[str, Platform] | None = None,
    baselines: tuple[str, ...] | None = None,
    cache: ScheduleCache | None = None,
) -> ProblemEvaluation:
    """Evaluate one problem across the MIB prototype and baselines.

    The direct variant is compared against the CPU only (the paper:
    OSQP offers no GPU direct backend, and RSQP supports only the
    indirect variant).  With ``cache``, compilation is served from the
    pattern-keyed cache when possible; the evaluation records the
    compile/solve stage wall times and whether the cache hit.  The
    MIB price comes from :meth:`~repro.backends.MIBSolver.solve`, the
    host reference priced from kernel counts, which executes no kernel.
    """
    platforms = platforms or PLATFORMS
    if baselines is None:
        baselines = ("cpu",) if variant == "direct" else ("cpu", "gpu", "rsqp")
    mib = MIBSolver(
        problem,
        variant=variant,
        c=c,
        settings=settings,
        cache=cache,
    )
    t_solve = time.perf_counter()
    report = mib.solve()
    solve_seconds = time.perf_counter() - t_solve
    result = report.result
    total_flops = result.trace.total_flops
    measurements: dict[str, PlatformMeasurement] = {}
    mib_peak = 2.0 * c * report.clock_hz  # one FMA per lane per clock
    measurements["mib"] = PlatformMeasurement(
        platform=f"MIB C={c}",
        runtime_s=report.runtime_seconds,
        peak_flops=mib_peak,
        total_flops=total_flops,
        device_watts=_MIB_LOAD_WATTS,
        system_watts=_MIB_LOAD_WATTS + HOST_IDLE_WATTS,
        jitter_cv=MIB_JITTER_CV,
    )
    link_words = problem.n + problem.m
    for key in baselines:
        plat = cpu_platform_for(variant) if key == "cpu" else platforms[key]
        runtime = model_runtime(plat, result, vector_words_per_iter=link_words)
        if key == "cpu":
            # The CPU is the whole system.
            system_watts = plat.load_watts
        else:
            # Accelerators keep the host awake at idle power.
            system_watts = plat.load_watts + HOST_IDLE_WATTS
        measurements[key] = PlatformMeasurement(
            platform=plat.name,
            runtime_s=runtime,
            peak_flops=plat.peak_flops,
            total_flops=total_flops,
            device_watts=plat.load_watts,
            system_watts=system_watts,
            jitter_cv=plat.jitter_cv,
        )
    return ProblemEvaluation(
        name=problem.name,
        domain=domain or problem.name.split("-")[0],
        dimension=dimension,
        nnz=problem.nnz,
        variant=variant,
        iterations=result.iterations,
        measurements=measurements,
        compile_seconds=mib.compile_seconds,
        solve_seconds=solve_seconds,
        cache_hit=mib.cache_hit,
    )


# One ScheduleCache per (process, cache_dir): worker processes of the
# parallel suite driver share compiled patterns through the directory,
# while repeated serial calls share the in-memory LRU.
_PROCESS_CACHES: dict[str, ScheduleCache] = {}


def process_cache(cache_dir: str | Path | None) -> ScheduleCache | None:
    """The calling process's cache bound to ``cache_dir`` (or None)."""
    if cache_dir is None:
        return None
    key = str(cache_dir)
    cache = _PROCESS_CACHES.get(key)
    if cache is None:
        cache = _PROCESS_CACHES[key] = ScheduleCache(cache_dir)
    return cache


def _evaluate_spec(task) -> ProblemEvaluation:
    """Top-level worker (picklable) for the parallel suite driver."""
    spec, variant, c, settings, seed, cache_dir = task
    return evaluate_problem(
        spec.generate(seed),
        domain=spec.domain,
        dimension=spec.dimension,
        variant=variant,
        c=c,
        settings=settings,
        cache=process_cache(cache_dir),
    )


def evaluate_suite(
    specs: list[ProblemSpec],
    *,
    variant: str = "indirect",
    c: int = 32,
    settings: Settings | None = None,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
) -> list[ProblemEvaluation]:
    """Evaluate a set of benchmark specs under one variant.

    ``jobs > 1`` fans the per-problem compile+solve work out across
    processes with results in spec order — deterministically identical
    to the serial run.  ``cache_dir`` shares compiled patterns across
    workers and across reruns through the on-disk schedule cache; when
    it is not given, a parallel run still shares compilations between
    sibling workers through a session-scoped temporary directory
    (worker processes have no shared memory, so without a disk cache
    every worker would recompile patterns its siblings already built).
    """
    if jobs > 1 and cache_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-suite-cache-") as tmp:
            return evaluate_suite(
                specs,
                variant=variant,
                c=c,
                settings=settings,
                seed=seed,
                jobs=jobs,
                cache_dir=tmp,
            )
    tasks = [
        (spec, variant, c, settings, seed,
         str(cache_dir) if cache_dir is not None else None)
        for spec in specs
    ]
    return parallel_map(_evaluate_spec, tasks, jobs=jobs)


def jitter_experiment(
    evaluation: ProblemEvaluation,
    *,
    n_runs: int = 20,
    seed: int = 0,
) -> dict[str, float]:
    """Repeated-solve normalized jitter per platform (Fig. 11).

    Each problem is "executed" ``n_runs`` times (the paper uses 20);
    the reported metric is the standard deviation of solve time
    normalized by the mean solve time.
    """
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    for key, m in evaluation.measurements.items():
        samples = sample_jittered_runtimes(m.runtime_s, m.jitter_cv, n_runs, rng)
        out[key] = float(np.std(samples) / np.mean(samples))
    return out
