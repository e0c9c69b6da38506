"""Tests for the schedule check (loaded-executable safety).

``check_schedule`` is the interpreter's hazard walk with nothing
executed, and ``load_schedule`` runs it on every file it reads: a
tampered executable raises ``HazardViolation`` at load time, not
mid-solve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import HazardViolation, check_schedule
from repro.backends.mib import MIBSolver
from repro.compiler import (
    KernelBuilder,
    NetworkProgram,
    ScheduleOptions,
    load_schedule,
    row_major_view,
    save_schedule,
    schedule_program,
)
from repro.problems import benchmark_suite
from tests.conftest import random_sparse


def compiled_spmv(c=8):
    rng = np.random.default_rng(0)
    a = random_sparse(rng, 18, 14, 0.25)
    kb = KernelBuilder(c)
    x = kb.vector("x", 14)
    y = kb.vector("y", 18)
    ops = kb.load_vector(x, "X") + kb.spmv(row_major_view(a), x, y, "A")
    return schedule_program(NetworkProgram("p", ops), c)


def check(sched) -> None:
    check_schedule(sched.slots, c=sched.c, extra_latency=sched.extra_latency)


class TestValidate:
    def test_compiler_output_validates(self):
        check(compiled_spmv())

    def test_all_modes_validate(self):
        for options in (
            ScheduleOptions(multi_issue=False, prefetch=False),
            ScheduleOptions(mode="dynamic", dynamic_window=4),
            ScheduleOptions(priority="critical_path"),
        ):
            rng = np.random.default_rng(1)
            a = random_sparse(rng, 12, 10, 0.3)
            kb = KernelBuilder(8)
            x = kb.vector("x", 10)
            y = kb.vector("y", 12)
            sched = schedule_program(
                NetworkProgram("p", kb.spmv(row_major_view(a), x, y, "A")),
                8,
                options,
            )
            check(sched)

    def test_serialized_schedule_validates(self, tmp_path):
        sched = load_schedule(save_schedule(compiled_spmv(), tmp_path / "p.mibx"))
        check(sched)

    def test_tampered_bundle_fails(self, tmp_path):
        """Duplicating an instruction inside its own slot must produce a
        node conflict, and the file must not load."""
        sched = compiled_spmv()
        busy = next(b for b in sched.slots if b)
        busy.append(busy[0])
        with pytest.raises(HazardViolation):
            check(sched)
        path = save_schedule(sched, tmp_path / "p.mibx")
        with pytest.raises(HazardViolation):
            load_schedule(path)

    def test_merged_slots_fail(self, tmp_path):
        """Cramming two full slots into one oversubscribes ports/nodes."""
        sched = compiled_spmv()
        busy = [i for i, b in enumerate(sched.slots) if len(b) >= 2]
        if len(busy) < 2:
            pytest.skip("schedule too small to merge")
        a, b = busy[0], busy[1]
        sched.slots[a].extend(sched.slots[b])
        sched.slots[b] = []
        with pytest.raises(HazardViolation):
            check(sched)
        path = save_schedule(sched, tmp_path / "p.mibx")
        with pytest.raises(HazardViolation):
            load_schedule(path)

    def test_factorization_schedule_validates(self):
        from repro.linalg import ldl_factor
        from tests.conftest import random_spd_upper

        rng = np.random.default_rng(2)
        up = random_spd_upper(rng, 10, density=0.3)
        ref = ldl_factor(up)
        kb = KernelBuilder(8)
        ops = kb.factorization(
            ref.symbolic,
            up,
            y=kb.lane_copies(kb.vector("fy", 10)),
            d=kb.vector("fd", 10),
            dinv=kb.vector("fdinv", 10),
        )
        check(schedule_program(NetworkProgram("f", ops), 8))


@pytest.mark.slow
@pytest.mark.parametrize("variant", ["direct", "indirect"])
@pytest.mark.parametrize("c", [8, 32])
@pytest.mark.parametrize(
    "spec", benchmark_suite(n_scales=2), ids=lambda spec: spec.label
)
def test_every_compiled_schedule_passes_the_walk(spec, c, variant):
    """Every kernel ``MIBSolver`` compiles, lowered or only priced,
    passes the hazard walk: the scheduler and the walk share one
    machine model."""
    solver = MIBSolver(spec.generate(), c=c, variant=variant)
    assert solver.kernels.schedules
    for sched in solver.kernels.schedules.values():
        check(sched)
