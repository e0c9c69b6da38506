"""The product scheduler against the set-based oracle.

``repro.compiler.scheduler`` prices an instruction's bin-packing request
once and probes with integer masks; ``tests/scheduler_oracle.py`` is the
scheduler it replaced.  The two must emit the same schedule slot by
slot, op by op — for every kernel of a real solver at every network
width, and across the scheduling-option matrix — and every schedule
compared here also passes ``check_schedule`` (structural and data
hazards) and executes on the hazard-checking ``NetworkSimulator``.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.arch import StreamBuffers, check_schedule
from repro.backends import mib as mib_module
from repro.backends.mib import MIBSolver
from repro.compiler import schedule_program
from tests.scheduler_oracle import assert_same_schedule, oracle_schedule_program
from tests.test_compiler.test_golden_schedules import PATTERNS

# The five bench_serve patterns.
DOMAINS = {
    name: PATTERNS[name] for name in ("lasso", "mpc", "portfolio", "svm", "huber")
}
KERNELS = {
    "factor", "kkt_solve", "admm_vector", "residuals", "iter_pre", "iter_post",
}


@pytest.fixture
def compared(monkeypatch):
    """Route every ``MIBSolver`` compile through the differential.

    Yields ``(names, overrides)``: the kernel names compared so far, and
    a dict of ``ScheduleOptions`` fields to force on every kernel (for
    the options ``MIBSolver`` has no argument for).
    """
    names: list[str] = []
    overrides: dict = {}

    def checked(program, c, options):
        options = dataclasses.replace(options, **overrides)
        twin = copy.deepcopy(program)
        got = schedule_program(program, c, options)
        want = oracle_schedule_program(twin, c, options)
        assert_same_schedule(got, want)
        check_schedule(got.slots, c=c, extra_latency=got.extra_latency)
        names.append(program.name)
        return got

    monkeypatch.setattr(mib_module, "schedule_program", checked)
    return names, overrides


def execute_with_hazards_checked(solver: MIBSolver) -> None:
    """Run all six kernels op by op on the hazard-checking simulator."""
    assert solver.execution == "interpret"
    # factor, iter_pre, kkt_solve, iter_post and (on the last, checked
    # iteration) residuals.
    solver.solve_on_network(max_iter=2)
    sp = solver.reference.scaling.scaled
    streams = StreamBuffers()
    streams.bind("q", sp.q)
    streams.bind("bounds", sp.l.tolist() + sp.u.tolist())
    streams.bind("rho", solver.reference.rho_vec)
    streams.bind("rho_inv", 1.0 / solver.reference.rho_vec)
    solver._run_kernel(solver._network_sim(), "admm_vector", streams)


@pytest.mark.parametrize("c", [8, 16, 32])
@pytest.mark.parametrize("domain", DOMAINS)
def test_six_kernels_match_oracle(domain, c, compared):
    names, _ = compared
    solver = MIBSolver(DOMAINS[domain](), c=c, execution="interpret")
    assert set(names) == KERNELS
    execute_with_hazards_checked(solver)


OPTION_MATRIX = {
    "no_prefetch": ({"prefetch": False}, {}),
    "single_issue": ({"multi_issue": False, "prefetch": False}, {}),
    "dynamic_w4": ({}, {"mode": "dynamic", "dynamic_window": 4}),
    "dynamic_w16": ({}, {"mode": "dynamic", "dynamic_window": 16}),
    "critical_path": ({}, {"priority": "critical_path"}),
    "super_pipelined": ({"super_pipelined": True}, {}),
    "max_prefetch_0": ({}, {"max_prefetch": 0}),
    # Kernels that prefetch want far more than three copies, so the cap
    # is reached mid-program (asserted below).
    "max_prefetch_3": ({}, {"max_prefetch": 3}),
}


@pytest.mark.parametrize("case", OPTION_MATRIX)
@pytest.mark.parametrize("domain", ["lasso", "mpc"])
def test_option_matrix_matches_oracle(domain, case, compared):
    names, overrides = compared
    solver_args, forced = OPTION_MATRIX[case]
    overrides.update(forced)
    solver = MIBSolver(
        DOMAINS[domain](), c=8, execution="interpret", **solver_args
    )
    assert set(names) == KERNELS
    schedules = solver.kernels.schedules.values()
    if case == "super_pipelined":
        assert all(s.extra_latency > 0 for s in schedules)
    if case == "max_prefetch_3":
        assert max(s.n_prefetch for s in schedules) == 3
    if case in ("no_prefetch", "single_issue", "max_prefetch_0"):
        assert all(s.n_prefetch == 0 for s in schedules)
    execute_with_hazards_checked(solver)
