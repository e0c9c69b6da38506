"""``MIBSolver.solve_batch``: N one-lane network solves.

Lane *i* of ``solve_batch(problems)`` is ``bind_instance(problems[i])``
+ ``solve_on_network()`` on the *same* solver (same Ruiz scaling, ρ
reset to its configured initial value), and the contract is bitwise:
status, iteration count, executed cycles, ρ adaptations, iterates,
residuals, objective and infeasibility certificates.  A call that is
rejected leaves the bound instance as it was.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import run_reference
from repro.backends.mib import MIBSolver
from repro.linalg import CSCMatrix
from repro.problems import mpc_problem
from repro.solver import QPProblem, Settings, SolverStatus

C = 8

# Perturbation scales chosen so the lanes reach several exits: mixed
# convergence (lanes converge at different iterations), ρ
# refactorization, MAX_ITERATIONS and a primal-infeasible lane.
SEED_SCALES = [(11, 3.0), (12, 6.0), (13, 12.0), (14, 25.0), (15, 50.0),
               (16, 4.0)]

SETTINGS = Settings(
    max_iter=300, check_interval=5, adaptive_rho=True,
    eps_abs=1e-8, eps_rel=1e-8,
)


def perturbed_full(base: QPProblem, seed: int, scale: float) -> QPProblem:
    """A same-pattern instance with every value family perturbed."""
    rng = np.random.default_rng(seed)
    q = base.q * (1.0 + scale * rng.standard_normal(base.n))
    a = base.a.copy()
    a.data = a.data * (1.0 + scale * 0.3 * rng.standard_normal(a.nnz))
    p = base.p.copy()  # keep P PSD: one positive factor for the matrix
    p.data = p.data * float(np.exp(scale * rng.standard_normal()))
    fin_l = base.l > -1e20
    fin_u = base.u < 1e20
    l, u = base.l.copy(), base.u.copy()
    l[fin_l] -= scale * np.abs(rng.standard_normal(int(fin_l.sum())))
    u[fin_u] += scale * np.abs(rng.standard_normal(int(fin_u.sum())))
    eq = base.l == base.u  # keep equalities equal but shift them
    shift = scale * 0.1 * rng.standard_normal(int(eq.sum()))
    l[eq] = base.l[eq] + shift
    u[eq] = base.u[eq] + shift
    return QPProblem(p=p, q=q, a=a, l=l, u=u, name=base.name)


def report_key(r):
    return (
        r.status,
        r.iterations,
        r.cycles,
        r.rho_updates,
        r.x.tobytes(),
        r.z.tobytes(),
        r.y.tobytes(),
        r.primal_residual,
        r.dual_residual,
        r.objective,
    )


def cert_bytes(cert):
    return None if cert is None else cert.tobytes()


@pytest.fixture(scope="module")
def base():
    return mpc_problem(2, horizon=3, seed=5)


@pytest.fixture(scope="module")
def solver(base):
    return MIBSolver(base, variant="direct", c=C, settings=SETTINGS)


@pytest.fixture(scope="module")
def batch_and_solo(base, solver):
    problems = [perturbed_full(base, s, sc) for s, sc in SEED_SCALES]
    batch = solver.solve_batch(problems)
    solos = []
    for pr in problems:
        solver.bind_instance(pr)
        solos.append(solver.solve_on_network())
    return problems, batch, solos


class TestBitwiseDifferential:
    def test_every_lane_bit_identical_to_solo(self, batch_and_solo):
        _, batch, solos = batch_and_solo
        assert len(batch.lanes) == len(SEED_SCALES)
        for i, (lane, solo) in enumerate(zip(batch.lanes, solos)):
            assert report_key(lane) == report_key(solo), f"lane {i}"
            assert cert_bytes(lane.primal_infeasibility_certificate) == (
                cert_bytes(solo.primal_infeasibility_certificate)
            ), f"lane {i}"
            assert cert_bytes(lane.dual_infeasibility_certificate) == (
                cert_bytes(solo.dual_infeasibility_certificate)
            ), f"lane {i}"

    def test_batch_covers_mixed_convergence(self, batch_and_solo):
        """The lanes above must reach different exits: lanes converge
        at different iteration counts."""
        _, batch, _ = batch_and_solo
        solved_iters = {
            r.iterations
            for r in batch.lanes
            if r.status is SolverStatus.SOLVED
        }
        assert len(solved_iters) >= 2

    def test_batch_covers_primal_infeasible_lane(self, batch_and_solo):
        _, batch, _ = batch_and_solo
        infeasible = [
            r
            for r in batch.lanes
            if r.status is SolverStatus.PRIMAL_INFEASIBLE
        ]
        assert infeasible
        for r in infeasible:
            assert r.primal_infeasibility_certificate is not None


class TestAgainstHostReference:
    def test_solved_lanes_match_cpu_reference(self, batch_and_solo):
        """The independent host solves (own scaling, to-tolerance) must
        agree with the lanes on every lane solved by both."""
        problems, batch, _ = batch_and_solo
        compared = 0
        for lane, problem in zip(batch.lanes, problems):
            host = run_reference(
                problem, variant="direct", settings=SETTINGS
            ).result
            if not (
                lane.status is SolverStatus.SOLVED
                and host.status is SolverStatus.SOLVED
            ):
                continue
            np.testing.assert_allclose(
                lane.x, host.x, rtol=1e-4, atol=1e-5
            )
            np.testing.assert_allclose(
                lane.objective, host.objective, rtol=1e-5, atol=1e-7
            )
            compared += 1
        assert compared >= 1


class TestExplicitInfeasibleLane:
    def test_contradictory_equalities_mid_batch(self):
        """A hand-built primal-infeasible lane (two copies of one row
        pinned to different equality values) between feasible ones
        certifies, and the lane after it still solves."""
        p = CSCMatrix((1, 1), [0, 1], [0], [1.0])
        a = CSCMatrix((2, 1), [0, 2], [0, 1], [1.0, 1.0])
        feasible = QPProblem(
            p=p, q=np.array([1.0]), a=a,
            l=np.zeros(2), u=np.zeros(2), name="tiny",
        )
        infeasible = QPProblem(
            p=p, q=np.array([1.0]), a=a,
            l=np.array([0.0, 1.0]), u=np.array([0.0, 1.0]), name="tiny",
        )
        st = Settings(max_iter=200, check_interval=5, adaptive_rho=False)
        solver = MIBSolver(feasible, variant="direct", c=C, settings=st)
        batch = solver.solve_batch([feasible, infeasible, feasible])
        assert batch.lanes[0].status is SolverStatus.SOLVED
        assert batch.lanes[2].status is SolverStatus.SOLVED
        assert batch.lanes[1].status is SolverStatus.PRIMAL_INFEASIBLE
        assert batch.lanes[1].primal_infeasibility_certificate is not None
        for row in (0, 2):
            np.testing.assert_allclose(
                batch.lanes[row].x, [0.0], atol=1e-3
            )
        assert report_key(batch.lanes[0]) == report_key(batch.lanes[2])


class TestValidation:
    def test_empty_batch_rejected(self, solver):
        with pytest.raises(ValueError, match="at least one"):
            solver.solve_batch([])

    def test_pattern_mismatch_rejected(self, base, solver):
        """Every lane is checked before any binds: a bad lane behind a
        good one leaves the bound instance, its ρ and ρ vector as they
        were."""
        problem = solver.problem
        rho = solver.reference.rho
        rho_vec = solver.reference.rho_vec.tobytes()
        good = perturbed_full(base, 1, 0.5)
        other = mpc_problem(3, seed=0)
        with pytest.raises(ValueError, match="identical patterns"):
            solver.solve_batch([good, other])
        assert solver.problem is problem
        assert solver.reference.rho == rho
        assert solver.reference.rho_vec.tobytes() == rho_vec

    def test_indirect_variant_rejected(self, base):
        indirect = MIBSolver(
            base, variant="indirect", c=C, settings=SETTINGS
        )
        with pytest.raises(ValueError, match="direct"):
            indirect.solve_batch([base])

    def test_single_lane_batch_matches_solo(self, base):
        st = Settings(max_iter=60, check_interval=10, adaptive_rho=True)
        solver = MIBSolver(base, variant="direct", c=C, settings=st)
        batch = solver.solve_batch([base])
        solver.bind_instance(base)
        assert report_key(batch.lanes[0]) == report_key(
            solver.solve_on_network()
        )
