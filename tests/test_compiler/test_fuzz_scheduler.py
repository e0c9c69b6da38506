"""Property-based fuzzing of the scheduler + simulator stack.

Generates random (but well-formed) network programs, schedules them in
every mode, executes them on the hazard-checking simulator, and checks
the result against a plain in-order interpreter of the op semantics.
Any scheduling bug (missed dependency, port/node oversubscription,
wrong prefetch rewrite) shows up as either a HazardViolation or a
numeric mismatch.

The same random programs are also scheduled by the set-based oracle
(``tests/scheduler_oracle.py``): the product scheduler must emit the
identical schedule, not merely a correct one.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    Location,
    NetOp,
    NetworkSimulator,
    OpKind,
    StreamBuffers,
    check_schedule,
)
from repro.compiler import (
    NetworkProgram,
    ScheduleOptions,
    schedule_program,
)
from tests.scheduler_oracle import assert_same_schedule, oracle_schedule_program

C = 8
DEPTH = 64


def interpret(ops: list[NetOp], state: np.ndarray) -> np.ndarray:
    """Reference semantics: execute ops in program order, immediately."""
    rf = state.copy()

    def read(loc):
        return rf[loc.bank, loc.addr]

    for op in ops:
        if op.kind is OpKind.MAC:
            coeffs = (
                np.asarray(op.coeffs) * op.coeff_scale
                if op.coeffs is not None
                else np.ones(len(op.reads))
            )
            value = sum(c * read(l) for c, l in zip(coeffs, op.reads))
            loc, acc = op.writes[0]
            rf[loc.bank, loc.addr] = (
                rf[loc.bank, loc.addr] + value if acc else value
            )
        elif op.kind is OpKind.COLELIM:
            src = read(op.reads[0])
            coeffs = np.asarray(op.coeffs) * op.coeff_scale
            for (loc, acc), cf in zip(op.writes, coeffs):
                v = cf * src
                rf[loc.bank, loc.addr] = (
                    rf[loc.bank, loc.addr] + v if acc else v
                )
        elif op.kind is OpKind.PERMUTE:
            if op.reads:
                values = [read(l) for l in op.reads]
            else:
                values = list(np.asarray(op.coeffs) * op.coeff_scale)
            for (loc, acc), v in zip(op.writes, values):
                rf[loc.bank, loc.addr] = (
                    rf[loc.bank, loc.addr] + v if acc else v
                )
        else:  # pragma: no cover - generator never emits others
            raise AssertionError(op.kind)
    return rf


@st.composite
def programs(draw):
    """Random programs of MAC / COLELIM / PERMUTE ops over a small
    address space, with plenty of accidental dependencies."""
    n_ops = draw(st.integers(1, 30))
    ops: list[NetOp] = []
    addr = st.integers(0, 5)
    lane = st.integers(0, C - 1)
    for i in range(n_ops):
        kind = draw(st.sampled_from([OpKind.MAC, OpKind.COLELIM, OpKind.PERMUTE]))
        if kind is OpKind.MAC:
            k = draw(st.integers(1, 4))
            lanes = draw(st.lists(lane, min_size=k, max_size=k, unique=True))
            reads = [Location("rf", l, draw(addr)) for l in lanes]
            dst = draw(lane)
            acc = draw(st.booleans())
            coeffs = np.array(
                draw(
                    st.lists(
                        st.floats(-2, 2, allow_nan=False),
                        min_size=k,
                        max_size=k,
                    )
                )
            )
            ops.append(
                NetOp(
                    kind=kind,
                    reads=reads,
                    writes=[(Location("rf", dst, draw(addr)), acc)],
                    coeffs=coeffs,
                    src_lanes=lanes,
                    dst_lanes=[dst],
                    tag=f"mac{i}",
                )
            )
        elif kind is OpKind.COLELIM:
            k = draw(st.integers(1, 4))
            dlanes = draw(st.lists(lane, min_size=k, max_size=k, unique=True))
            src = draw(lane)
            coeffs = np.array(
                draw(
                    st.lists(
                        st.floats(-2, 2, allow_nan=False),
                        min_size=k,
                        max_size=k,
                    )
                )
            )
            ops.append(
                NetOp(
                    kind=kind,
                    reads=[Location("rf", src, draw(addr))],
                    writes=[
                        (Location("rf", l, draw(addr)), True) for l in dlanes
                    ],
                    coeffs=coeffs,
                    src_lanes=[src],
                    dst_lanes=dlanes,
                    tag=f"ce{i}",
                )
            )
        else:  # PERMUTE: a single point-to-point copy (always routable)
            a = draw(lane)
            d = draw(lane)
            ops.append(
                NetOp(
                    kind=kind,
                    reads=[Location("rf", a, draw(addr))],
                    writes=[(Location("rf", d, draw(addr)), False)],
                    src_lanes=[a],
                    dst_lanes=[d],
                    tag=f"cp{i}",
                )
            )
    return ops


def checked_schedule(ops, options):
    """Schedule ``ops`` (mutating them); the result must equal the
    oracle's schedule of a copy and pass ``check_schedule`` (structural
    and data hazards)."""
    want = oracle_schedule_program(
        NetworkProgram("fuzz", copy.deepcopy(ops)), C, options
    )
    sched = schedule_program(NetworkProgram("fuzz", list(ops)), C, options)
    assert_same_schedule(sched, want)
    check_schedule(sched.slots, c=C, extra_latency=sched.extra_latency)
    return sched


def run_mode(ops, state, options):
    sched = checked_schedule(ops, options)
    # Scratch words of prefetch copies live past DEPTH, in the
    # register file's sparse overflow.
    sim = NetworkSimulator(C, depth=DEPTH)
    sim.rf.data[:, :] = state
    sim.run(sched.slots, StreamBuffers())
    return sim.rf.data.copy()


class TestSchedulerFuzz:
    @given(programs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_static_multi_issue_matches_in_order_semantics(self, ops, seed):
        state = np.random.default_rng(seed).standard_normal((C, DEPTH))
        expected = interpret(ops, state)
        got = run_mode(copy.deepcopy(ops), state, ScheduleOptions())
        np.testing.assert_allclose(got, expected, atol=1e-9)

    @given(programs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_single_issue_matches_in_order_semantics(self, ops, seed):
        state = np.random.default_rng(seed).standard_normal((C, DEPTH))
        expected = interpret(ops, state)
        got = run_mode(
            copy.deepcopy(ops),
            state,
            ScheduleOptions(multi_issue=False, prefetch=False),
        )
        np.testing.assert_allclose(got, expected, atol=1e-9)

    @given(programs(), st.integers(0, 2**32 - 1), st.integers(1, 32))
    @settings(max_examples=40, deadline=None)
    def test_dynamic_matches_in_order_semantics(self, ops, seed, window):
        state = np.random.default_rng(seed).standard_normal((C, DEPTH))
        expected = interpret(ops, state)
        got = run_mode(
            copy.deepcopy(ops),
            state,
            ScheduleOptions(mode="dynamic", dynamic_window=window),
        )
        np.testing.assert_allclose(got, expected, atol=1e-9)

    @given(programs(), st.integers(0, 2**32 - 1), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_capped_prefetch_matches_in_order_semantics(self, ops, seed, cap):
        state = np.random.default_rng(seed).standard_normal((C, DEPTH))
        expected = interpret(ops, state)
        got = run_mode(
            copy.deepcopy(ops), state, ScheduleOptions(max_prefetch=cap)
        )
        np.testing.assert_allclose(got, expected, atol=1e-9)

    @given(programs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_critical_path_matches_in_order_semantics(self, ops, seed):
        state = np.random.default_rng(seed).standard_normal((C, DEPTH))
        expected = interpret(ops, state)
        got = run_mode(
            copy.deepcopy(ops), state, ScheduleOptions(priority="critical_path")
        )
        np.testing.assert_allclose(got, expected, atol=1e-9)


def _mac(reads, dst, tag):
    return NetOp(
        kind=OpKind.MAC,
        reads=[Location("rf", bank, addr) for bank, addr in reads],
        writes=[(Location("rf", *dst), False)],
        coeffs=np.ones(len(reads)),
        src_lanes=[bank for bank, _ in reads],
        dst_lanes=[dst[0]],
        tag=tag,
    )


def _read_blocked_program(copy_slot_reads_bank0: bool) -> list[NetOp]:
    """``b`` is ready exactly when ``a`` holds bank 0's read port.

    ``p`` and ``q`` issue at cycle 0 and commit X and Y one pipeline
    latency later; ``a`` (reads X in bank 0) and ``b`` (reads bank 0 and
    Y) both become ready in that slot, ``a`` goes first, and ``b``'s
    only fit lies past it — unless its bank-0 operand is copied to an
    idle bank at cycle 0, the one slot early enough.  When ``p`` itself
    reads bank 0 that slot's read port is taken and the prefetch must
    be declined.
    """
    return [
        _mac([(0 if copy_slot_reads_bank0 else 1, 0)], (0, 1), "p"),
        _mac([(2, 0)], (3, 1), "q"),
        _mac([(0, 1)], (5, 2), "a"),
        _mac([(0, 5), (3, 1)], (6, 2), "b"),
    ]


class TestReadBlockedSlot:
    """The two outcomes of a first fit that lies past a read-blocked
    slot, against the oracle and the in-order semantics."""

    def _run(self, ops):
        state = np.random.default_rng(0).standard_normal((C, DEPTH))
        got = run_mode(copy.deepcopy(ops), state, ScheduleOptions())
        np.testing.assert_allclose(got, interpret(ops, state), atol=1e-9)
        return checked_schedule(copy.deepcopy(ops), ScheduleOptions())

    def test_prefetch_taken_moves_the_op_into_the_blocked_slot(self):
        sched = self._run(_read_blocked_program(False))
        assert sched.n_prefetch == 1
        assert [op.tag for op in sched.slots[0]] == ["p", "q", "prefetch:b"]
        assert [op.tag for op in sched.slots[-1]] == ["a", "b"]

    def test_prefetch_declined_when_no_copy_slot_is_free(self):
        sched = self._run(_read_blocked_program(True))
        assert sched.n_prefetch == 0
        assert [op.tag for op in sched.slots[-2]] == ["a"]
        assert [op.tag for op in sched.slots[-1]] == ["b"]
