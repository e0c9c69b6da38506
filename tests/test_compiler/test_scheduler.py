"""Tests for the first-fit multi-issue scheduler and its metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import (
    Location,
    NetOp,
    NetworkSimulator,
    OpKind,
    StreamBuffers,
)
from repro.compiler import (
    KernelBuilder,
    NetworkProgram,
    ScheduleOptions,
    compare_scheduling,
    row_major_view,
    schedule_program,
)
from tests.conftest import random_sparse

C = 8


def rf(bank, addr):
    return Location("rf", bank, addr)


def short_mac(src_bank, src_addr, dst_bank, dst_addr, tag=""):
    return NetOp(
        kind=OpKind.MAC,
        reads=[rf(src_bank, src_addr)],
        writes=[(rf(dst_bank, dst_addr), False)],
        coeffs=np.array([1.0]),
        src_lanes=[src_bank],
        dst_lanes=[dst_bank],
        tag=tag,
    )


class TestBasicPlacement:
    def test_independent_short_ops_pack_into_one_slot(self):
        # Four single-lane reductions living in different quadrants.
        ops = [
            short_mac(0, 0, 0, 1),
            short_mac(2, 0, 2, 1),
            short_mac(4, 0, 4, 1),
            short_mac(6, 0, 6, 1),
        ]
        sched = schedule_program(NetworkProgram("p", ops), C)
        assert sched.n_slots == 1
        assert len(sched.slots[0]) == 4

    def test_single_issue_never_packs(self):
        ops = [
            short_mac(0, 0, 0, 1),
            short_mac(2, 0, 2, 1),
        ]
        sched = schedule_program(
            NetworkProgram("p", ops), C, ScheduleOptions(multi_issue=False)
        )
        assert all(len(b) <= 1 for b in sched.slots)

    def test_dependent_ops_separated_by_latency(self):
        ops = [
            short_mac(0, 0, 1, 0, tag="producer"),
            NetOp(
                kind=OpKind.MAC,
                reads=[rf(1, 0)],
                writes=[(rf(2, 0), False)],
                coeffs=np.array([1.0]),
                src_lanes=[1],
                dst_lanes=[2],
                tag="consumer",
            ),
        ]
        sched = schedule_program(NetworkProgram("p", ops), C)
        slot_of = {}
        for t, bundle in enumerate(sched.slots):
            for op in bundle:
                slot_of[op.tag] = t
        bf_latency = NetworkSimulator(C).bf.latency
        assert slot_of["consumer"] - slot_of["producer"] >= bf_latency

    def test_node_conflicting_ops_serialize(self):
        # Same source and destination lanes: identical occupancy.
        ops = [short_mac(0, i, 1, i) for i in range(3)]
        sched = schedule_program(NetworkProgram("p", ops), C)
        assert all(len(b) <= 1 for b in sched.slots if b)
        assert sum(1 for b in sched.slots if b) == 3

    def test_schedules_are_deterministic(self):
        rng = np.random.default_rng(0)
        a = random_sparse(rng, 20, 16, 0.2)
        cycles = []
        for _ in range(2):
            kb = KernelBuilder(C)
            x = kb.vector("x", 16)
            y = kb.vector("y", 20)
            ops = kb.spmv(row_major_view(a), x, y, "A")
            sched = schedule_program(NetworkProgram("p", ops), C)
            cycles.append(sched.cycles)
        assert cycles[0] == cycles[1]


class TestPrefetch:
    def _fig7_program(self):
        """The Fig. 7 scenario: two instructions become ready at the
        same (late) cycle and contend for one register file's read
        port.  Data prefetching should copy one operand to an idle bank
        during the early slack so both can co-issue.

        Construction: two loads commit their results at cycle L, making
        two consumer MACs ready simultaneously; each consumer also
        reads a second operand from the shared bank 0.
        """

        def load(dst_bank, addr, value, lane):
            return NetOp(
                kind=OpKind.PERMUTE,
                writes=[(rf(dst_bank, addr), False)],
                coeffs=np.array([value]),
                src_lanes=[lane],
                dst_lanes=[dst_bank],
                tag=f"load{dst_bank}",
            )

        def consumer(i, dep_bank, dst_bank):
            return NetOp(
                kind=OpKind.MAC,
                reads=[rf(dep_bank, 10), rf(0, i)],
                writes=[(rf(dst_bank, 20), False)],
                coeffs=np.array([1.0, 1.0]),
                src_lanes=[dep_bank, 0],
                dst_lanes=[dst_bank],
                tag=f"consume{i}",
            )

        return [
            load(1, 10, 100.0, 1),
            load(2, 10, 200.0, 2),
            consumer(0, 1, 5),
            consumer(1, 2, 6),
        ]

    def test_prefetch_inserts_copy_and_coissues(self):
        ops = self._fig7_program()
        with_pf = schedule_program(
            NetworkProgram("p", ops), C, ScheduleOptions(prefetch=True)
        )
        assert with_pf.n_prefetch == 1
        # Both consumers share the slot where their dependencies mature.
        consumer_slots = [
            t
            for t, b in enumerate(with_pf.slots)
            for op in b
            if op.tag.startswith("consume")
        ]
        assert consumer_slots[0] == consumer_slots[1]

    def test_without_prefetch_consumers_serialize(self):
        ops = self._fig7_program()
        no_pf = schedule_program(
            NetworkProgram("p", ops), C, ScheduleOptions(prefetch=False)
        )
        assert no_pf.n_prefetch == 0
        consumer_slots = sorted(
            t
            for t, b in enumerate(no_pf.slots)
            for op in b
            if op.tag.startswith("consume")
        )
        assert consumer_slots[0] != consumer_slots[1]

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_prefetch_preserves_results(self, prefetch):
        ops = self._fig7_program()
        sched = schedule_program(
            NetworkProgram("p", ops), C, ScheduleOptions(prefetch=prefetch)
        )
        sim = NetworkSimulator(C, depth=1 << 23)
        sim.rf.data[0, 0] = 7.0
        sim.rf.data[0, 1] = 9.0
        sim.run(sched.slots, StreamBuffers())
        assert sim.rf.data[5, 20] == 107.0
        assert sim.rf.data[6, 20] == 209.0

    def test_prefetch_cap_respected(self):
        ops = self._fig7_program()
        sched = schedule_program(
            NetworkProgram("p", ops),
            C,
            ScheduleOptions(prefetch=True, max_prefetch=0),
        )
        assert sched.n_prefetch == 0


class TestMetrics:
    def _spmv_program(self, c=C):
        rng = np.random.default_rng(5)
        a = random_sparse(rng, 40, 32, 0.1)
        kb = KernelBuilder(c)
        x = kb.vector("x", 32)
        y = kb.vector("y", 40)
        return NetworkProgram("svm-spmv", kb.spmv(row_major_view(a), x, y, "A"))

    def test_compare_scheduling_speedup(self):
        cmp = compare_scheduling(self._spmv_program(), C)
        assert cmp.cycles_after < cmp.cycles_before
        assert cmp.speedup > 1.5
        assert cmp.mean_issue_width > 1.0

    def test_utilization_improves(self):
        cmp = compare_scheduling(self._spmv_program(), C)
        assert cmp.utilization_after > cmp.utilization_before

    def test_report_rows_complete(self):
        cmp = compare_scheduling(self._spmv_program(), C)
        keys = {k for k, _ in cmp.rows()}
        assert "cycles before reordering" in keys
        assert "cycles after reordering" in keys

    def test_issue_width_histogram_sums_to_busy_slots(self):
        sched = schedule_program(self._spmv_program(), C)
        hist = sched.issue_width_histogram()
        busy = sum(1 for b in sched.slots if b)
        assert sum(hist.values()) == busy

    def test_cycles_property(self):
        sched = schedule_program(self._spmv_program(), C)
        assert sched.cycles == sched.n_slots + NetworkSimulator(C).bf.latency

    @pytest.mark.parametrize("multi_issue", [True, False])
    def test_closing_double_pumped_op_keeps_its_second_cycle(self, multi_issue):
        """A binary element-wise op holds two slots; when it issues in
        the last bundle the schedule still runs to the end of it."""
        kb = KernelBuilder(C)
        a, b, out = (kb.vector(n, C) for n in ("a", "b", "out"))
        ops = kb.ew_add(out, a, b)
        assert len(ops) == 1
        sched = schedule_program(
            NetworkProgram("add", ops), C, ScheduleOptions(multi_issue=multi_issue)
        )
        assert [len(bundle) for bundle in sched.slots] == [1, 0]
        assert sched.cycles == 2 + NetworkSimulator(C).bf.latency
