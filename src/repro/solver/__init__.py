"""ADMM-based QP solver substrate (reimplementation of OSQP [38]).

Two algorithm variants are provided, matching Section II of the paper:
``direct`` (LDLᵀ-factorization KKT solver) and ``indirect``
(preconditioned conjugate gradient on the reduced system).
"""

from .admm import (
    OSQPSolver,
    residuals_from_products,
    solve,
)
from .direct import DirectKKTSolver, factorization_flops, triangular_solve_flops
from .indirect import CGDiagnostics, IndirectKKTSolver
from .kkt import KKTMatrix, assemble_kkt
from .polish import PolishResult, polish
from .problem import OSQP_INFTY, QPProblem
from .results import OpTrace, Primitive, Settings, SolveResult, SolverStatus
from .scaling import Scaling, identity_scaling, ruiz_scale

__all__ = [
    "CGDiagnostics",
    "DirectKKTSolver",
    "IndirectKKTSolver",
    "KKTMatrix",
    "OSQP_INFTY",
    "OSQPSolver",
    "OpTrace",
    "PolishResult",
    "Primitive",
    "polish",
    "QPProblem",
    "Scaling",
    "Settings",
    "SolveResult",
    "SolverStatus",
    "assemble_kkt",
    "factorization_flops",
    "identity_scaling",
    "residuals_from_products",
    "ruiz_scale",
    "solve",
    "triangular_solve_flops",
]
