"""Replay-vs-interpreter differential tests for compiled traces.

The interpretive :meth:`NetworkSimulator.run` is the semantic oracle;
:func:`compile_trace` + :meth:`CompiledTrace.replay` must reproduce it
*bit for bit* — every register-file word, every side buffer, the HBM
traffic counters and the full :class:`SimulationStats` — while the
validate-and-lower pass must reject exactly the hazardous schedules
``run()`` rejects (mirroring the mutations of
``test_hazard_injection``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import (
    EwiseFn,
    HazardViolation,
    Location,
    NetOp,
    NetworkSimulator,
    OpKind,
    StreamBuffers,
    check_schedule,
    compile_trace,
)
from repro.compiler import (
    KernelBuilder,
    NetworkProgram,
    ScheduleOptions,
    row_major_view,
    schedule_program,
)
from repro.linalg import ldl_factor
from tests.conftest import random_quasidefinite_upper, random_sparse

SCRATCH_BASE = 1 << 22


def rf(bank, addr):
    return Location("rf", bank, addr)


def assert_states_identical(oracle: NetworkSimulator, replayed: NetworkSimulator):
    """Bit-exact comparison of every piece of simulator state."""
    assert np.array_equal(oracle.rf.data, replayed.rf.data)
    assert oracle.rf._overflow == replayed.rf._overflow
    assert oracle.lbuf == replayed.lbuf
    assert oracle.scalar == replayed.scalar
    assert oracle.hbm_out == replayed.hbm_out
    assert oracle.hbm.words_read == replayed.hbm.words_read
    assert oracle.hbm.words_written == replayed.hbm.words_written


def mixed_program(c: int, seed: int):
    """One program exercising every primitive kind and coefficient
    flavor: MAC (stream + implicit-ones), COLELIM (stream, negated),
    PERMUTE (stream load, immediate zero-fill, pure copy, HBM store),
    EWISE (binary, scaled, streamed, clip) and the factorization's
    SCALAR ops (RECIP + FACTOR_FIN with lbuf/scalar coeff_reads).  The
    factorization takes one scratch accumulator per lane, as
    ``MIBSolver`` builds it.

    Returns (ops, streams, initial vector loads, builder).
    """
    rng = np.random.default_rng(seed)
    kb = KernelBuilder(c)
    a = random_sparse(rng, 9 + seed % 4, 7 + seed % 3, 0.4)
    up = random_quasidefinite_upper(rng, 7, 5)
    ref = ldl_factor(up)
    n = ref.n
    x = kb.vector("x", a.shape[1])
    y = kb.vector("y", a.shape[0])
    out = kb.vector("out", a.shape[1])
    fy = kb.vector("fy", n)
    fd = kb.vector("fd", n)
    fdi = kb.vector("fdi", n)
    sx = kb.vector("sx", n)
    px = kb.vector("px", a.shape[1])
    perm = rng.permutation(a.shape[1])
    ops = (
        kb.spmv(row_major_view(a), x, y, "A")
        + kb.spmv_transpose(row_major_view(a), y, out, "A")
        + kb.factorization(
            ref.symbolic, up, y=kb.lane_copies(fy), d=fd, dinv=fdi
        )
        + kb.load_vector(sx, "B")
        + kb.lsolve_columns(ref.symbolic, sx, "Lh")
        + kb.dsolve(sx, "Dinvh")
        + kb.ltsolve(ref.symbolic, sx, "Lh")
        + kb.permute_vector(x, px, perm)
        + kb.ew_add(out, out, px)
        + kb.axpby(out, out, px, 0.5, 2.0)
        + kb.clip(y, y, "bounds", length=a.shape[0])
        + kb.store_vector(out, hbm_base=50)
    )
    hfac = ldl_factor(up)
    streams = StreamBuffers()
    streams.bind("A", a.data)
    streams.bind("K", up.data)
    streams.bind("B", rng.standard_normal(n))
    streams.bind("Lh", hfac.l_data)
    streams.bind("Dinvh", 1.0 / hfac.d)
    lo = np.sort(rng.standard_normal(a.shape[0]) * 2) - 1.0
    streams.bind("bounds", np.concatenate([lo, lo + 2.0]))
    loads = [
        (x, rng.standard_normal(a.shape[1])),
        (y, rng.standard_normal(a.shape[0])),
    ]
    return ops, streams, loads, kb


def run_both(c: int, sched_slots, streams, loads):
    """Run interpreter and replay side by side on identical state."""
    oracle = NetworkSimulator(c)
    replayed = NetworkSimulator(c)
    for view, values in loads:
        oracle.rf.load_vector(view, values)
        replayed.rf.load_vector(view, values)
    stats_run = oracle.run(sched_slots, streams)
    trace = compile_trace(sched_slots, c=c, depth=replayed.rf.depth)
    stats_replay = trace.replay(replayed, streams)
    return oracle, replayed, stats_run, stats_replay, trace


class TestReplayEquivalence:
    @pytest.mark.parametrize("c", [8, 16, 32])
    @pytest.mark.parametrize("multi_issue", [True, False])
    def test_mixed_program_bit_identical(self, c, multi_issue):
        ops, streams, loads, kb = mixed_program(c, seed=c % 7)
        sched = schedule_program(
            NetworkProgram("mixed", list(ops)),
            c,
            ScheduleOptions(multi_issue=multi_issue, prefetch=multi_issue),
        )
        oracle, replayed, s_run, s_replay, _ = run_both(
            c, sched.slots, streams, loads
        )
        assert_states_identical(oracle, replayed)
        assert s_run == s_replay

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_values_bit_identical(self, seed):
        ops, streams, loads, kb = mixed_program(8, seed=seed)
        sched = schedule_program(
            NetworkProgram("mixed", list(ops)), 8, ScheduleOptions()
        )
        oracle, replayed, s_run, s_replay, _ = run_both(
            8, sched.slots, streams, loads
        )
        assert_states_identical(oracle, replayed)
        assert s_run == s_replay

    @pytest.mark.parametrize("c", [8, 16, 32])
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("multi_issue", [True, False])
    def test_scheduler_and_walk_share_one_port_model(self, c, seed, multi_issue):
        """A scalar op co-issued beside a double-pumped add must not
        take a read bank the add still holds in its second cycle: the
        scheduler books ``op_ports`` in both cycles, as the walk checks
        them (once 5 of these 48 schedules raised a read-port
        conflict)."""
        ops, streams, loads, kb = mixed_program(c, seed)
        sched = schedule_program(
            NetworkProgram("mixed", list(ops)),
            c,
            ScheduleOptions(multi_issue=multi_issue, prefetch=multi_issue),
        )
        check_schedule(sched.slots, c=c)
        oracle, replayed, s_run, s_replay, _ = run_both(
            c, sched.slots, streams, loads
        )
        assert_states_identical(oracle, replayed)
        assert s_run == s_replay

    def test_ewise_zoo_bit_identical(self, rng):
        c, n = 8, 19
        kb = KernelBuilder(c)
        a = kb.vector("a", n)
        b = kb.vector("b", n)
        o = [kb.vector(f"o{i}", n) for i in range(9)]
        ops = (
            kb.set_from_stream(o[0], "S")
            + kb.ew_add(o[1], a, b)
            + kb.ew_sub(o[2], a, b)
            + kb.ew_prod(o[3], a, b)
            + kb.axpby(o[4], a, b, -1.25, 0.75)
            + kb.ew_scale(o[5], a, 3.5)
            + kb.ew_recip(o[6], a)
            + kb.ew_copy(o[7], b)
            + kb.stream_mul(o[8], a, "S")
            + kb.stream_axpy(o[0], o[0], "S", -0.5)
            + kb.clip(o[1], o[1], "bounds", length=n)
        )
        sched = schedule_program(
            NetworkProgram("ewise", ops), c, ScheduleOptions()
        )
        streams = StreamBuffers()
        streams.bind("S", rng.standard_normal(n))
        lo = np.sort(rng.standard_normal(n)) - 0.5
        streams.bind("bounds", np.concatenate([lo, lo + 1.0]))
        loads = [
            (a, rng.standard_normal(n) + 3.0),
            (b, rng.standard_normal(n)),
        ]
        oracle, replayed, s_run, s_replay, _ = run_both(
            c, sched.slots, streams, loads
        )
        assert_states_identical(oracle, replayed)
        assert s_run == s_replay

    def test_trace_reuse_rebinds_stream_values(self, rng):
        """One compile, many numeric instances: replaying the same
        trace with rebound streams matches a fresh interpretive run."""
        c = 8
        kb = KernelBuilder(c)
        a = random_sparse(rng, 10, 8, 0.4)
        x = kb.vector("x", 8)
        y = kb.vector("y", 10)
        sched = schedule_program(
            NetworkProgram("spmv", kb.spmv(row_major_view(a), x, y, "A")),
            c,
            ScheduleOptions(),
        )
        trace = compile_trace(sched.slots, c=c, depth=1 << 16)
        replayed = NetworkSimulator(c)
        for _ in range(3):
            values = rng.standard_normal(a.nnz)
            xv = rng.standard_normal(8)
            streams = StreamBuffers()
            streams.bind("A", values)
            oracle = NetworkSimulator(c)
            oracle.rf.load_vector(x, xv)
            replayed.rf.load_vector(x, xv)
            oracle.run(sched.slots, streams)
            trace.replay(replayed, streams)
            assert np.array_equal(
                oracle.rf.read_vector(y), replayed.rf.read_vector(y)
            )

    def test_precomputed_stats(self, rng):
        ops, streams, loads, kb = mixed_program(16, seed=2)
        sched = schedule_program(
            NetworkProgram("mixed", list(ops)), 16, ScheduleOptions()
        )
        oracle, replayed, s_run, s_replay, trace = run_both(
            16, sched.slots, streams, loads
        )
        # The lowering precomputes the stats the interpreter counts.
        assert trace.stats == s_run

    def test_replay_configuration_guard(self, rng):
        kb = KernelBuilder(8)
        v = kb.vector("v", 5)
        sched = schedule_program(
            NetworkProgram("copy", kb.ew_copy(v, v)), 8, ScheduleOptions()
        )
        trace = compile_trace(sched.slots, c=8, depth=1 << 16)
        with pytest.raises(ValueError, match="C=16"):
            trace.replay(NetworkSimulator(16), StreamBuffers())
        with pytest.raises(ValueError, match="depth"):
            trace.replay(NetworkSimulator(8, depth=1 << 17), StreamBuffers())

    def test_unbound_stream_raises_keyerror(self, rng):
        kb = KernelBuilder(8)
        v = kb.vector("v", 5)
        sched = schedule_program(
            NetworkProgram("load", kb.load_vector(v, "missing")),
            8,
            ScheduleOptions(),
        )
        trace = compile_trace(sched.slots, c=8, depth=1 << 16)
        with pytest.raises(KeyError, match="missing"):
            trace.replay(NetworkSimulator(8), StreamBuffers())


# ----------------------------------------------------------------------
# Hazard parity: the validate pass must reject exactly what run() does.
# The mutation recipes mirror tests/test_arch/test_hazard_injection.py.
# ----------------------------------------------------------------------


def _mac(reads, writes, src_lanes, dst_lanes, tag=""):
    return NetOp(
        kind=OpKind.MAC,
        reads=reads,
        writes=writes,
        coeffs=np.ones(len(reads)),
        src_lanes=src_lanes,
        dst_lanes=dst_lanes,
        tag=tag,
    )


def _dependent_chain():
    producer = _mac([rf(0, 0)], [(rf(1, 0), False)], [0], [1], tag="producer")
    consumer = _mac([rf(1, 0)], [(rf(2, 0), False)], [1], [2], tag="consumer")
    return NetworkProgram("chain", [producer, consumer])


def _fig7_program():
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


class TestValidationHazardParity:
    C = 8

    def _expect(self, slots, pattern):
        with pytest.raises(HazardViolation, match=pattern):
            compile_trace(slots, c=self.C, depth=1 << 16)
        # The same mutation trips the interpreter identically.
        with pytest.raises(HazardViolation, match=pattern):
            NetworkSimulator(self.C).run(slots, StreamBuffers())

    def test_compressed_stall_slots_raise_raw(self):
        sched = schedule_program(
            _dependent_chain(), self.C, ScheduleOptions(multi_issue=False)
        )
        compressed = [b for b in sched.slots if b]
        self._expect(compressed, "RAW")

    def test_consumer_in_latency_window_raises_raw(self):
        sched = schedule_program(
            NetworkProgram("fig7", _fig7_program()),
            self.C,
            ScheduleOptions(prefetch=True),
        )
        slots = [list(b) for b in sched.slots]
        t_consume = next(
            t
            for t, b in enumerate(slots)
            if any(op.tag.startswith("consume") for op in b)
        )
        slots[1], slots[t_consume] = slots[t_consume], slots[1]
        self._expect(slots, "RAW")

    def test_dropped_prefetch_copy_raises_conflict(self):
        sched = schedule_program(
            NetworkProgram("fig7", _fig7_program()),
            self.C,
            ScheduleOptions(prefetch=True),
        )
        assert sched.n_prefetch == 1
        slots = [
            [op for op in b if not op.tag.startswith("prefetch:")]
            for b in sched.slots
        ]
        rewritten = next(
            op
            for b in slots
            for op in b
            if any(l.space == "rf" and l.addr >= SCRATCH_BASE for l in op.reads)
        )
        i = int(rewritten.tag[-1])
        for ri, loc in enumerate(rewritten.reads):
            if loc.addr >= SCRATCH_BASE:
                scratch_bank = loc.bank
                rewritten.reads[ri] = rf(0, i)
                for li, lane in enumerate(rewritten.src_lanes):
                    if lane == scratch_bank:
                        rewritten.src_lanes[li] = 0
                        break
        rewritten._occ = None
        self._expect(slots, "conflict")

    def test_coissued_ewise_node_conflict(self):
        kb = KernelBuilder(self.C)
        a = kb.vector("a", 4)
        b = kb.vector("b", 4)
        self._expect([[kb.set_zero(a)[0], kb.set_zero(b)[0]]], "node conflict")

    def test_scalar_units_oversubscribed(self):
        ops = [
            NetOp(
                kind=OpKind.SCALAR,
                ewise_fn=EwiseFn.RECIP,
                reads=[rf(k, 0)],
                writes=[(Location("scalar", 0, k), False)],
                tag=f"recip{k}",
            )
            for k in range(5)
        ]
        with pytest.raises(HazardViolation, match="scalar units"):
            compile_trace([ops], c=self.C, depth=1 << 16)
        sim = NetworkSimulator(self.C)
        sim.rf.data[:5, 0] = 1.0 + np.arange(5)
        with pytest.raises(HazardViolation, match="scalar units"):
            sim.run([ops], StreamBuffers())

    def test_mac_reading_one_bank_twice(self):
        op = _mac(
            [rf(0, 0), rf(0, 1)], [(rf(1, 0), False)], [0, 3], [1], tag="dup"
        )
        self._expect([[op]], "bank twice")

    def test_coissued_reads_of_one_bank_port_conflict(self):
        op_a = _mac([rf(0, 0)], [(rf(1, 0), False)], [0], [1], tag="a")
        op_b = _mac([rf(0, 1)], [(rf(5, 0), False)], [4], [5], tag="b")
        self._expect([[op_a, op_b]], "conflict")

    def test_valid_schedule_validates_and_replays(self):
        sched = schedule_program(
            NetworkProgram("fig7", _fig7_program()),
            self.C,
            ScheduleOptions(prefetch=True),
        )
        trace = compile_trace(sched.slots, c=self.C, depth=1 << 16)
        oracle = NetworkSimulator(self.C)
        replayed = NetworkSimulator(self.C)
        s_run = oracle.run(sched.slots, StreamBuffers())
        s_replay = trace.replay(replayed, StreamBuffers())
        assert_states_identical(oracle, replayed)
        assert s_run == s_replay
