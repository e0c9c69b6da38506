"""Tests for the static schedule validator (loaded-executable safety)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler import (
    KernelBuilder,
    NetworkProgram,
    ScheduleOptions,
    row_major_view,
    schedule_program,
    schedule_from_dict,
    schedule_to_dict,
    validate_schedule,
)
from tests.conftest import random_sparse


def compiled_spmv(c=8):
    rng = np.random.default_rng(0)
    a = random_sparse(rng, 18, 14, 0.25)
    kb = KernelBuilder(c)
    x = kb.vector("x", 14)
    y = kb.vector("y", 18)
    ops = kb.load_vector(x, "X") + kb.spmv(row_major_view(a), x, y, "A")
    return schedule_program(NetworkProgram("p", ops), c)


class TestValidate:
    def test_compiler_output_validates(self):
        validate_schedule(compiled_spmv())

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
            validate_schedule(sched)

    def test_serialized_schedule_validates(self):
        sched = schedule_from_dict(schedule_to_dict(compiled_spmv()))
        validate_schedule(sched)

    def test_tampered_bundle_fails(self):
        """Duplicating an instruction inside its own slot must produce a
        node conflict."""
        sched = compiled_spmv()
        busy = next(b for b in sched.slots if b)
        busy.append(busy[0])
        with pytest.raises(ValueError):
            validate_schedule(sched)

    def test_merged_slots_fail(self):
        """Cramming two full slots into one oversubscribes ports/nodes."""
        sched = compiled_spmv()
        busy = [i for i, b in enumerate(sched.slots) if len(b) >= 2]
        if len(busy) < 2:
            pytest.skip("schedule too small to merge")
        a, b = busy[0], busy[1]
        sched.slots[a].extend(sched.slots[b])
        sched.slots[b] = []
        with pytest.raises(ValueError):
            validate_schedule(sched)

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
        validate_schedule(schedule_program(NetworkProgram("f", ops), 8))
