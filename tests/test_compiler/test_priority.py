"""Tests for the critical-path priority (list scheduling) mode, the
default: its schedules compute what program order computes, and its
one-pass dependency heights equal the successor-list heights of
``tests/scheduler_oracle.py``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import NetworkSimulator, StreamBuffers
from repro.arch.isa import Location, NetOp, OpKind
from repro.compiler import (
    KernelBuilder,
    NetworkProgram,
    ScheduleOptions,
    row_major_view,
    schedule_program,
)
from repro.compiler.scheduler import _FirstFitScheduler, dependency_heights
from tests.conftest import random_sparse
from tests.scheduler_oracle import successor_heights

from .test_fuzz_scheduler import interpret, programs

C = 8


def reverse_pass_heights(ops: list[NetOp]) -> list[int]:
    """The product scheduler's heights of ``ops``, in program order."""
    sched = _FirstFitScheduler(NetworkProgram("h", ops), C, ScheduleOptions())
    locs = sched._location_ids(ops)
    return dependency_heights(locs, len(sched._loc_ids))


# A pool of three words, so draws read and write one location in one
# op, write one location twice, and chain through coefficient words.
_WORDS = [Location("rf", 0, 0), Location("rf", 1, 0), Location("lbuf", 0, 0)]


@st.composite
def location_programs(draw):
    """Ops that only carry dependencies: reads, coefficient reads and
    writes drawn from a three-word pool."""
    word = st.sampled_from(_WORDS)
    ops = []
    for _ in range(draw(st.integers(1, 25))):
        ops.append(
            NetOp(
                kind=OpKind.PERMUTE,
                reads=draw(st.lists(word, max_size=3)),
                coeff_reads=draw(st.lists(word, max_size=2)),
                writes=[(loc, False) for loc in draw(st.lists(word, max_size=3))],
            )
        )
    return ops


class TestCriticalPathPriority:
    def test_results_match_program_order(self):
        rng = np.random.default_rng(2)
        a = random_sparse(rng, 20, 16, 0.2)
        xv = rng.standard_normal(16)
        results = {}
        for prio in ("program", "critical_path"):
            kb = KernelBuilder(C)
            x = kb.vector("x", 16)
            y = kb.vector("y", 20)
            streams = StreamBuffers()
            streams.bind("X", xv)
            streams.bind("A", a.data)
            ops = kb.load_vector(x, "X") + kb.spmv(row_major_view(a), x, y, "A")
            sched = schedule_program(
                NetworkProgram("p", ops), C, ScheduleOptions(priority=prio)
            )
            sim = NetworkSimulator(C, depth=1 << 23)
            sim.run(sched.slots, streams)
            results[prio] = sim.rf.read_vector(kb.alloc.get("y"))
        np.testing.assert_allclose(
            results["critical_path"], results["program"], atol=1e-10
        )
        np.testing.assert_allclose(
            results["critical_path"], a.to_dense() @ xv, atol=1e-9
        )

    def test_unknown_priority_rejected(self):
        kb = KernelBuilder(C)
        out = kb.vector("o", 4)
        with pytest.raises(ValueError):
            schedule_program(
                NetworkProgram("p", kb.set_zero(out)),
                C,
                ScheduleOptions(priority="alphabetical"),
            )

    @given(programs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_priority_fuzz_matches_semantics(self, ops, seed):
        import copy

        state = np.random.default_rng(seed).standard_normal((C, 64))
        expected = interpret(ops, state)
        sched = schedule_program(
            NetworkProgram("fuzz", copy.deepcopy(ops)),
            C,
            ScheduleOptions(priority="critical_path"),
        )
        sim = NetworkSimulator(C, depth=64)
        sim.rf.data[:, :] = state
        sim.run(sched.slots, StreamBuffers())
        np.testing.assert_allclose(sim.rf.data, expected, atol=1e-9)


class TestDependencyHeights:
    """The reverse pass against the oracle's successor lists."""

    @given(programs())
    @settings(max_examples=60, deadline=None)
    def test_match_successor_lists_on_fuzzed_programs(self, ops):
        assert reverse_pass_heights(ops) == successor_heights(ops)

    @given(location_programs())
    @settings(max_examples=200, deadline=None)
    def test_match_successor_lists_on_shared_words(self, ops):
        assert reverse_pass_heights(ops) == successor_heights(ops)

    def test_read_write_and_double_write(self):
        a, b = _WORDS[:2]

        def op(reads, writes):
            return NetOp(
                kind=OpKind.PERMUTE,
                reads=list(reads),
                writes=[(loc, False) for loc in writes],
            )

        ops = [
            op([a], [a]),  # reads and writes one word
            op([a], [b]),  # RAW on a
            op([], [a]),  # WAR after the read above, WAW on a
            op([], [b, b]),  # writes b twice: its own successor
        ]
        assert successor_heights(ops) == [3, 2, 0, 1]
        assert reverse_pass_heights(ops) == [3, 2, 0, 1]
