"""The lower bounds of ``benchmarks/bench_bounds.py``.

A bound a real schedule beats is a bug in the bound, so the committed
``ablation_bounds.txt`` is only worth its gaps if every scheduled
kernel's span sits at or above every term.
The hand-built programs pin what "renamed" means: storage reuse is
free, data and the commit order of accumulations are not.
"""

from __future__ import annotations

import numpy as np

from repro.arch.isa import Location, NetOp, OpKind
from repro.arch.topology import Butterfly
from repro.compiler import NetworkProgram

from benchmarks.bench_bounds import measure, schedule_bounds

C = 8
LATENCY = Butterfly(C).latency


def _copy(src: Location, dst: Location, *, acc: bool = False) -> NetOp:
    return NetOp(
        kind=OpKind.PERMUTE,
        reads=[src],
        writes=[(dst, acc)],
        src_lanes=[src.bank],
        dst_lanes=[dst.bank],
    )


def _rf(bank: int, addr: int) -> Location:
    return Location("rf", bank, addr)


def test_every_kernel_span_meets_its_bounds():
    rows, _, violations = measure()
    assert not violations, violations
    assert len(rows) == 2 * 5 * 4


def test_a_raw_chain_waits_for_each_commit():
    a, b, c = _rf(0, 0), _rf(1, 0), _rf(2, 0)
    program = NetworkProgram("chain", [_copy(a, b), _copy(b, c)])
    assert schedule_bounds(program, C).dependency == LATENCY + 2


def test_storage_reuse_is_renamed_away():
    # Both ops overwrite b; the second reads a word the first does not
    # produce, so only the write port (one bank, two writes) orders them.
    a, b, d = _rf(0, 0), _rf(1, 0), _rf(2, 0)
    program = NetworkProgram("reuse", [_copy(a, b), _copy(d, b)])
    bounds = schedule_bounds(program, C)
    assert bounds.dependency == 1
    assert bounds.bank_writes == 2


def test_accumulations_into_one_value_keep_their_commit_order():
    a, b, d = _rf(0, 0), _rf(1, 0), _rf(2, 0)
    program = NetworkProgram(
        "acc", [_copy(a, b), _copy(d, b, acc=True), _copy(a, b, acc=True)]
    )
    assert schedule_bounds(program, C).dependency == 3


def test_scalar_units_bound_a_burst_of_scalar_ops():
    ops = [
        NetOp(kind=OpKind.SCALAR, reads=[_rf(i % C, i)],
              writes=[(Location("lbuf", 0, i), False)],
              coeffs=np.zeros(1))
        for i in range(9)
    ]
    assert schedule_bounds(NetworkProgram("s", ops), C).scalar == 3
