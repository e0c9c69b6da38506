"""Solver settings, status codes, results and the operation trace.

The operation trace records how much work of each *primitive kind* the
solve performed — the accounting behind Fig. 3 of the paper, which
splits total FLOPs into MAC, vector permutation, column elimination and
element-wise work.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = ["SolverStatus", "Settings", "OpTrace", "SolveResult", "Primitive"]


class SolverStatus(Enum):
    """Termination status of a solve."""

    SOLVED = "solved"
    MAX_ITERATIONS = "max_iterations"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"


class Primitive(Enum):
    """The four primitive computation patterns of Section II."""

    MAC = "mac"
    PERMUTE = "permute"
    COLUMN_ELIM = "column_elim"
    ELEMENTWISE = "elementwise"


@dataclass
class Settings:
    """ADMM solver settings (defaults mirror OSQP)."""

    rho: float = 0.1
    sigma: float = 1e-6
    alpha: float = 1.6
    eps_abs: float = 1e-3
    eps_rel: float = 1e-3
    eps_prim_inf: float = 1e-4
    eps_dual_inf: float = 1e-4
    max_iter: int = 4000
    check_interval: int = 25
    scaling_iters: int = 10
    adaptive_rho: bool = True
    adaptive_rho_interval: int = 50
    adaptive_rho_tolerance: float = 5.0
    rho_eq_scale: float = 1e3  # rho multiplier on equality constraints
    rho_min: float = 1e-6
    rho_max: float = 1e6
    # Indirect (PCG) specific settings.
    cg_max_iter: int = 2000
    cg_tol_fraction: float = 0.15  # tolerance relative to residual norms
    # Solution polishing (off by default, as in the paper's benchmarks).
    polish: bool = False
    polish_delta: float = 1e-6
    polish_refine_iters: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must be in (0, 2)")
        if self.rho <= 0 or self.sigma <= 0:
            raise ValueError("rho and sigma must be positive")
        if self.check_interval < 1 or self.adaptive_rho_interval < 1:
            raise ValueError(
                "check_interval and adaptive_rho_interval must be >= 1"
            )
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")


@dataclass
class OpTrace:
    """Accumulated FLOPs per primitive and per named operation.

    ``add`` is called by the KKT backends and the ADMM loop; the
    benchmark harness reads ``by_primitive``/``by_operation`` to build
    the Fig. 3 breakdowns.
    """

    by_primitive: dict[Primitive, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    by_operation: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def add(self, operation: str, primitive: Primitive, flops: float) -> None:
        """Record ``flops`` of work attributed to ``operation``."""
        self.by_primitive[primitive] += flops
        self.by_operation[operation] += flops
        self.calls[operation] += 1

    @property
    def total_flops(self) -> float:
        return float(sum(self.by_primitive.values()))

    def fraction(self, primitive: Primitive) -> float:
        """Share of the total attributed to one primitive (0 if empty)."""
        total = self.total_flops
        return self.by_primitive[primitive] / total if total else 0.0

    def merge(self, other: "OpTrace") -> None:
        for k, v in other.by_primitive.items():
            self.by_primitive[k] += v
        for k, v in other.by_operation.items():
            self.by_operation[k] += v
        for k, v in other.calls.items():
            self.calls[k] += v

    def to_dict(self) -> dict:
        """JSON-ready summary (primitive keys become their ``.value``)."""
        return {
            "total_flops": self.total_flops,
            "by_primitive": {
                p.value: float(v) for p, v in self.by_primitive.items()
            },
            "by_operation": {k: float(v) for k, v in self.by_operation.items()},
            "calls": {k: int(v) for k, v in self.calls.items()},
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "OpTrace":
        trace = cls()
        for name, flops in raw.get("by_primitive", {}).items():
            trace.by_primitive[Primitive(name)] += float(flops)
        for name, flops in raw.get("by_operation", {}).items():
            trace.by_operation[name] += float(flops)
        for name, count in raw.get("calls", {}).items():
            trace.calls[name] += int(count)
        return trace


@dataclass
class SolveResult:
    """Outcome of one QP solve."""

    status: SolverStatus
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    iterations: int
    objective: float
    primal_residual: float
    dual_residual: float
    rho_updates: int
    trace: OpTrace
    # Certificates (populated only for infeasible statuses).
    primal_infeasibility_certificate: np.ndarray | None = None
    dual_infeasibility_certificate: np.ndarray | None = None
    # Whether the returned triple was improved by solution polishing.
    polished: bool = False

    @property
    def solved(self) -> bool:
        return self.status is SolverStatus.SOLVED

    def to_dict(self, *, include_trace: bool = True) -> dict:
        """JSON-ready encoding of the full result.

        The wire format of ``repro.serve``: every field survives a
        round-trip through :meth:`from_dict` (the operation trace as
        its aggregate summary, which is all the service consumers
        read).  ``include_trace=False`` drops the trace block for
        callers that only need the solution triple.
        """
        doc = {
            "status": self.status.value,
            "x": self.x.tolist(),
            "y": self.y.tolist(),
            "z": self.z.tolist(),
            "iterations": int(self.iterations),
            "objective": float(self.objective),
            "primal_residual": float(self.primal_residual),
            "dual_residual": float(self.dual_residual),
            "rho_updates": int(self.rho_updates),
            "polished": bool(self.polished),
        }
        if include_trace:
            doc["trace"] = self.trace.to_dict()
        if self.primal_infeasibility_certificate is not None:
            doc["primal_infeasibility_certificate"] = (
                self.primal_infeasibility_certificate.tolist()
            )
        if self.dual_infeasibility_certificate is not None:
            doc["dual_infeasibility_certificate"] = (
                self.dual_infeasibility_certificate.tolist()
            )
        return doc

    @classmethod
    def from_dict(cls, raw: dict) -> "SolveResult":
        """Rebuild a result encoded by :meth:`to_dict`."""

        def cert(name: str) -> np.ndarray | None:
            value = raw.get(name)
            return None if value is None else np.asarray(value, dtype=np.float64)

        return cls(
            status=SolverStatus(raw["status"]),
            x=np.asarray(raw["x"], dtype=np.float64),
            y=np.asarray(raw["y"], dtype=np.float64),
            z=np.asarray(raw["z"], dtype=np.float64),
            iterations=int(raw["iterations"]),
            objective=float(raw["objective"]),
            primal_residual=float(raw["primal_residual"]),
            dual_residual=float(raw["dual_residual"]),
            rho_updates=int(raw["rho_updates"]),
            trace=OpTrace.from_dict(raw.get("trace", {})),
            primal_infeasibility_certificate=cert(
                "primal_infeasibility_certificate"
            ),
            dual_infeasibility_certificate=cert(
                "dual_infeasibility_certificate"
            ),
            polished=bool(raw.get("polished", False)),
        )
