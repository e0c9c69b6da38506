"""There is one ADMM loop, and it kept its numbers.

The host ``solve()`` runs it over numpy iterates, ``solve_on_network``
over the simulator image; ``solve_batch`` is the latter once per
instance.  Four guards:

* **single definition** — patching the one ρ proposal the ADMM loop
  evaluates silences adaptation on the host ``solve()`` and on both
  network entry points, in every execution mode (a second copy of the
  rule would leave its caller adapting);
* **one budget** — ``max_iter = 0`` stops every entry point at
  iteration 0 with the zero iterates, and a negative budget is an
  error;
* **one answer per mode** — ``replay`` equals the ``interpret`` oracle
  bit for bit on every domain at C = 8, 16 and 32, on a fresh solver
  and on warm re-solves after ``update_values``;
* **same numbers** — ``golden_network_solves.json`` pins a fresh
  (never rebound) solver's ``solve_on_network()`` on the five
  ``bench_serve`` domains at C = 8, the solver state a mid-solve ρ
  update leaves behind, and (the ``"host"`` half) the priced host
  ``solve()`` of both variants, twice in a row, on those domains, a
  ρ-adapting case and both infeasibility exits.  The host half was
  recorded before the host and network loops became one
  ``admm_loop``.  The fresh-solver half was generated on
  b21aac5, before the scalar loop was removed, and RE-RECORDED when
  construction started scaling an instance through the rebind's
  one-shot ``Scaling.apply`` instead of keeping what the Ruiz passes
  leave behind: x / y / z moved in the last digits (within 1e-9
  relative, in norm), every status, iteration, ρ-update and cycle
  count stayed.  For a fresh solver, streaming the bound instance and
  re-scaling the raw problem are now the same bits, so the record no
  longer tells them apart; it pins the network loop's answer on each
  domain.  The write-through record was re-recorded when the ρ
  write-through started refreshing ``reference.rho_vec`` (see its
  test), and with the fresh half (ρ bits and ``next_x`` / ``next_y``
  moved, no count did).  Both halves' cycle fields were re-recorded
  when the factorization took one scratch accumulator per lane (only
  ``factor`` got shorter; no digest, status or count moved).  The
  host half's second indirect solves were re-recorded when an
  indirect solve started being billed only its own CG work: their
  ``cycles`` and ``apply_s`` / ``cg_vector`` invocations dropped to
  the first solve's share, no digest, status or iteration moved.
  Regenerate only together with a change that is meant to move a
  network solve:

      PYTHONPATH=src:. python tests/test_backends/test_one_loop.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.backends.mib import MIBSolver
from repro.problems import (
    huber_problem,
    lasso_problem,
    mpc_problem,
    portfolio_problem,
    svm_problem,
)
from repro.solver import QPProblem, Settings, SolverStatus, admm
from tests.test_backends.test_solve_on_network import (
    FAST,
    dual_infeasible_problem,
    primal_infeasible_problem,
)

GOLDEN = Path(__file__).with_name("golden_network_solves.json")
C = 8
MODES = ("replay", "interpret")
WIDTHS = (8, 16, 32)

# bench_serve's settings and patterns.
BENCH_SETTINGS = Settings(
    eps_abs=1e-3, eps_rel=1e-3, max_iter=4000, check_interval=5
)
PATTERNS = {
    "lasso": lambda: lasso_problem(16, n_samples=64, seed=0),
    "mpc": lambda: mpc_problem(6, seed=0),
    "portfolio": lambda: portfolio_problem(48, seed=0),
    "svm": lambda: svm_problem(10, n_samples=40, seed=0),
    "huber": lambda: huber_problem(10, n_samples=30, seed=0),
}

# Adapts ρ mid-solve (test_network_solve_with_rho_refactorization).
ADAPTING = Settings(rho=1e-3, eps_abs=1e-4, eps_rel=1e-4, max_iter=4000)

# Small instances of the five domains for the mode differential: the
# interpreter steps every op, so these keep a full solve under a
# second.  Residual checks every 25 iterations, adaptive ρ on.
SMALL = {
    "lasso": lambda: lasso_problem(6, seed=0),
    "mpc": lambda: mpc_problem(3, horizon=4, seed=0),
    "portfolio": lambda: portfolio_problem(10, seed=0),
    "svm": lambda: svm_problem(5, n_samples=15, seed=0),
    "huber": lambda: huber_problem(6, n_samples=15, seed=0),
}
SMALL_SETTINGS = Settings(max_iter=300, check_interval=25)


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def fresh_solve_digest(pattern: str) -> dict:
    r = MIBSolver(
        PATTERNS[pattern](), c=C, settings=BENCH_SETTINGS
    ).solve_on_network()
    return {
        "status": r.status.name,
        "iterations": r.iterations,
        "cycles": r.cycles,
        "rho_updates": r.rho_updates,
        "x": _sha(r.x),
        "y": _sha(r.y),
        "z": _sha(r.z),
    }


# The host half: the five patterns, a ρ-adapting case and both
# infeasibility exits, each solved twice in a row (the second solve
# starts from the ρ the first left), by both variants.
HOST_CASES = {
    **{p: (f, BENCH_SETTINGS) for p, f in PATTERNS.items()},
    "portfolio_adapting": (lambda: portfolio_problem(10), ADAPTING),
    "primal_infeasible": (primal_infeasible_problem, FAST),
    "dual_infeasible": (dual_infeasible_problem, FAST),
}
VARIANTS = ("direct", "indirect")


def host_solve_digest(case: str, variant: str) -> list[dict]:
    """The priced host ``solve()``, twice on one solver, bytes-exact."""
    factory, settings = HOST_CASES[case]
    solver = MIBSolver(factory(), variant=variant, c=C, settings=settings)
    digests = []
    for _ in range(2):
        report = solver.solve()
        r = report.result
        certs = (
            r.primal_infeasibility_certificate,
            r.dual_infeasibility_certificate,
        )
        digests.append(
            {
                "status": r.status.name,
                "iterations": r.iterations,
                "rho_updates": r.rho_updates,
                "cycles": report.cycles,
                "kernel_invocations": report.kernel_invocations,
                "x": _sha(r.x),
                "y": _sha(r.y),
                "z": _sha(r.z),
                "certificates": [None if c is None else _sha(c) for c in certs],
                "by_operation": dict(r.trace.by_operation),
            }
        )
    return digests


def write_through_digest() -> dict:
    """Solver state after a network solve that adapted ρ, and what the
    host ``solve()`` that follows makes of it."""
    solver = MIBSolver(portfolio_problem(10), c=C, settings=ADAPTING)
    net = solver.solve_on_network()
    ref = solver.reference
    rho, rho_vec = float(ref.rho), ref.rho_vec.copy()
    after = solver.solve()
    return {
        "net_rho_updates": net.rho_updates,
        "rho": rho.hex(),
        "rho_vec": _sha(rho_vec),
        "next_iterations": after.result.iterations,
        "next_rho_updates": after.result.rho_updates,
        "next_cycles": after.cycles,
        "next_x": _sha(after.result.x),
        "next_y": _sha(after.result.y),
    }


@pytest.mark.parametrize("pattern", PATTERNS)
def test_fresh_solver_matches_parent_digest(pattern):
    golden = json.loads(GOLDEN.read_text())
    assert fresh_solve_digest(pattern) == golden["fresh"][pattern]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("case", HOST_CASES)
def test_host_solve_matches_parent_digest(case, variant):
    golden = json.loads(GOLDEN.read_text())["host"]
    assert host_solve_digest(case, variant) == golden[f"{variant}/{case}"]


def test_rho_write_through_matches_parent():
    """What an adapting network solve leaves on the solver, pinned.

    RE-RECORDED with the fix it pins: the write-through used to set
    ``reference.rho`` and the host factorization but not
    ``reference.rho_vec``, so the ``solve()`` that followed paired a
    stale vector with the new factor and ran all 4 000 iterations into
    overflow warnings (the previous record).  ρ, ``net_rho_updates``
    and the network solve itself did not move; ``rho_vec`` and the
    ``next_*`` fields did.  The following ``solve()`` now equals
    ``bind_rho(<adapted ρ>)`` + ``solve()`` on a twin, bitwise."""
    golden = json.loads(GOLDEN.read_text())["write_through"]
    assert golden["net_rho_updates"] >= 1, "needs a mid-solve ρ update"
    assert write_through_digest() == golden

    solver = MIBSolver(portfolio_problem(10), c=C, settings=ADAPTING)
    solver.solve_on_network()
    after = solver.solve()
    twin = MIBSolver(portfolio_problem(10), c=C, settings=ADAPTING)
    assert twin.bind_rho(float(solver.reference.rho))
    expected = twin.solve()
    assert after.result.status is expected.result.status
    assert after.result.iterations == expected.result.iterations < 4000
    assert after.result.rho_updates == expected.result.rho_updates
    for name in "xyz":
        assert np.array_equal(
            getattr(after.result, name), getattr(expected.result, name)
        ), name
    assert after.cycles == expected.cycles


def _perturbed(base: QPProblem, seed: int) -> QPProblem:
    rng = np.random.default_rng(seed)
    q = base.q * (1.0 + 0.05 * rng.standard_normal(base.n))
    return QPProblem(
        p=base.p, q=q, a=base.a, l=base.l, u=base.u, name=base.name
    )


def report_key(r):
    """Everything a network solve reports, bytes-exact.  Host crossings
    are left out: they are what the two modes differ in.  Scalars
    compare as float64 bit patterns."""
    return (
        r.status,
        r.iterations,
        r.cycles,
        r.rho_updates,
        r.x.tobytes(),
        r.z.tobytes(),
        r.y.tobytes(),
        np.float64(r.primal_residual).tobytes(),
        np.float64(r.dual_residual).tobytes(),
        np.float64(r.objective).tobytes(),
    )


def _mode_pair(base: QPProblem, c: int):
    return tuple(
        MIBSolver(base, c=c, settings=SMALL_SETTINGS, execution=mode)
        for mode in MODES
    )


@pytest.mark.parametrize("c", WIDTHS)
@pytest.mark.parametrize("pattern", SMALL)
def test_replay_matches_interpret(pattern, c):
    """The compiled mode against its oracle, a whole fresh solve, every
    width."""
    replay, interpret = _mode_pair(SMALL[pattern](), c)
    assert report_key(replay.solve_on_network()) == report_key(
        interpret.solve_on_network()
    )


@pytest.mark.parametrize("c", WIDTHS)
@pytest.mark.parametrize("pattern", SMALL)
def test_warm_resolve_replay_matches_interpret(pattern, c):
    """Two warm re-solves after ``update_values``, every width: they
    ride the already-lowered traces with rebound coefficients and start
    from the previous solve's iterates."""
    base = SMALL[pattern]()
    replay, interpret = _mode_pair(base, c)
    replay.solve_on_network()
    interpret.solve_on_network()
    for seed in (1, 2):
        instance = _perturbed(base, seed)
        replay.update_values(instance)
        interpret.update_values(instance)
        assert report_key(replay.solve_on_network()) == report_key(
            interpret.solve_on_network()
        ), seed


@pytest.mark.parametrize("execution", MODES)
def test_one_rho_proposal_serves_both_entry_points(execution, monkeypatch):
    """Patching the one ρ rule silences adaptation on the host solve,
    the network solve and every lane of a batch: a second copy of the
    rule anywhere would leave its caller adapting."""
    base = portfolio_problem(10)
    lanes = [_perturbed(base, seed) for seed in range(1, 4)]
    solver = MIBSolver(base, c=C, settings=ADAPTING, execution=execution)
    assert solver.solve_on_network().rho_updates >= 1
    assert all(r.rho_updates >= 1 for r in solver.solve_batch(lanes).lanes)
    solver.bind_instance(base)
    assert solver.solve().result.rho_updates >= 1

    def never_adapt(rho, prim, dual, eps_prim, eps_dual, settings):
        return rho, False

    monkeypatch.setattr(admm, "propose_rho", never_adapt)
    solver.bind_instance(base)
    assert solver.solve_on_network().rho_updates == 0
    batch = solver.solve_batch(lanes)
    assert [r.rho_updates for r in batch.lanes] == [0, 0, 0]
    solver.bind_instance(base)
    assert solver.solve().result.rho_updates == 0


def test_zero_budget_is_zero_iterations_everywhere():
    zero = Settings(max_iter=0)
    reports = [MIBSolver(portfolio_problem(10), c=C, settings=zero).solve().result]
    for execution in MODES:
        reports.append(
            MIBSolver(
                portfolio_problem(10), c=C, settings=zero, execution=execution
            ).solve_on_network()
        )
        reports.append(
            MIBSolver(
                portfolio_problem(10), c=C, execution=execution
            ).solve_on_network(max_iter=0)
        )
    for r in reports:
        assert r.status is SolverStatus.MAX_ITERATIONS
        assert r.iterations == 0
        for name in "xyz":
            v = getattr(r, name)
            assert v.size and not v.any(), name


def test_negative_budget_is_rejected():
    solver = MIBSolver(portfolio_problem(10), c=C)
    with pytest.raises(ValueError, match="max_iter"):
        solver.solve_on_network(max_iter=-1)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {
                "fresh": {p: fresh_solve_digest(p) for p in PATTERNS},
                "host": {
                    f"{v}/{case}": host_solve_digest(case, v)
                    for case in HOST_CASES
                    for v in VARIANTS
                },
                "write_through": write_through_digest(),
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
