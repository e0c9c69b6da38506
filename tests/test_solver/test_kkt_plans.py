"""The direct KKT backend on level plans: same algorithm as the loops.

ADMM-level differential against the sequential loop oracles, the
values-only refactorization gather, and construction-time validation
of ``lower_method``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import MIBSolver
from repro.linalg import LDLFactor, ldl_factor
from repro.problems import (
    huber_problem,
    lasso_problem,
    mpc_problem,
    portfolio_problem,
    svm_problem,
)
from repro.solver import DirectKKTSolver, OSQPSolver, Settings
from tests.triangular_oracles import oracle_factor_solve

SETTINGS = Settings(eps_abs=1e-3, eps_rel=1e-3, max_iter=4000, check_interval=5)

DOMAINS = {
    "lasso": lambda seed=0: lasso_problem(8, n_samples=24, seed=seed),
    "mpc": lambda seed=0: mpc_problem(3, seed=seed),
    "portfolio": lambda seed=0: portfolio_problem(20, seed=seed),
    "svm": lambda seed=0: svm_problem(6, n_samples=20, seed=seed),
    "huber": lambda seed=0: huber_problem(6, n_samples=16, seed=seed),
}


@pytest.mark.parametrize("lower_method", ["column", "row"])
@pytest.mark.parametrize("domain", DOMAINS)
def test_admm_on_plans_matches_admm_on_loops(domain, lower_method, monkeypatch):
    """Swapping the loop oracles into ``LDLFactor.solve`` changes no
    count the algorithm or the cycle model reports.  The iterates may
    differ in the last bits (the column plan does not skip exact-zero
    pivots; ``row`` and ``Lt`` are byte-equal), far below 1e-8."""

    def solve():  # a fresh solver each time: a solve leaves its rho behind
        return MIBSolver(
            DOMAINS[domain](), c=8, settings=SETTINGS, lower_method=lower_method
        ).solve()

    planned = solve()
    monkeypatch.setattr(LDLFactor, "solve", oracle_factor_solve)
    looped = solve()
    assert planned.result.iterations == looped.result.iterations
    assert planned.result.rho_updates == looped.result.rho_updates
    assert planned.cycles == looped.cycles
    assert planned.result.status is looped.result.status
    np.testing.assert_allclose(planned.result.x, looped.result.x, atol=1e-8)
    np.testing.assert_allclose(planned.result.y, looped.result.y, atol=1e-8)


@pytest.mark.parametrize("ordering", ["amd", "natural"])
def test_refactor_gather_equals_rebuilding_the_permuted_matrix(ordering):
    """``update_values`` / ``update_rho`` refresh the permuted upper
    triangle through one gather; the values must be those the
    symmetrize -> permute -> upper-triangle pipeline produces."""
    solver = OSQPSolver(DOMAINS["portfolio"](), settings=SETTINGS, ordering=ordering)
    kkt = solver.kkt_solver
    assert isinstance(kkt, DirectKKTSolver)
    held = kkt._permuted_upper
    solver.update_values(DOMAINS["portfolio"](seed=7))
    kkt.update_rho(solver.rho_vec * 3.0)
    rebuilt = kkt.perm.permute_symmetric(
        kkt.kkt.matrix.symmetrize_from_upper()
    ).upper_triangle()
    assert kkt._permuted_upper is held  # refreshed in place
    assert rebuilt.pattern_equal(held)
    assert rebuilt.data.tobytes() == held.data.tobytes()
    fresh = ldl_factor(rebuilt, kkt.symbolic)
    assert fresh.l_data.tobytes() == kkt.factor.l_data.tobytes()
    assert fresh.d.tobytes() == kkt.factor.d.tobytes()


class TestLowerMethodValidation:
    def test_direct_kkt_solver_rejects_at_construction(self):
        problem = DOMAINS["portfolio"]()
        with pytest.raises(ValueError, match="lower_method"):
            DirectKKTSolver(
                problem, 1e-6, np.full(problem.m, 0.1), lower_method="diagonal"
            )

    def test_osqp_solver_rejects_at_construction(self):
        with pytest.raises(ValueError, match="lower_method"):
            OSQPSolver(DOMAINS["portfolio"](), lower_method="rows")

    def test_mib_solver_rejects_before_compiling(self, monkeypatch):
        """Used to compile the *row* schedule for any unknown string
        and only fail inside the first ``factor.solve``."""
        compiled = []
        monkeypatch.setattr(
            MIBSolver, "_compile_direct", lambda self: compiled.append(self)
        )
        with pytest.raises(ValueError, match="lower_method"):
            MIBSolver(DOMAINS["portfolio"](), c=8, lower_method="rows")
        assert not compiled
