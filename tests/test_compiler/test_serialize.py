"""Tests for compiled-program serialization (executable files)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import NetworkSimulator, StreamBuffers
from repro.compiler import (
    KernelBuilder,
    NetworkProgram,
    load_schedule,
    row_major_view,
    save_schedule,
    schedule_from_dict,
    schedule_program,
    schedule_to_dict,
)
from tests.conftest import random_sparse

C = 8


def _compiled_spmv(seed=0):
    rng = np.random.default_rng(seed)
    a = random_sparse(rng, 15, 12, 0.3)
    kb = KernelBuilder(C)
    x = kb.vector("x", 12)
    y = kb.vector("y", 15)
    xv = rng.standard_normal(12)
    ops = kb.load_vector(x, "X") + kb.spmv(row_major_view(a), x, y, "A")
    sched = schedule_program(NetworkProgram("spmv", ops), C)
    return kb, a, xv, sched


def _execute(kb, a, xv, sched):
    sim = NetworkSimulator(C, depth=1 << 23)
    streams = StreamBuffers()
    streams.bind("X", xv)
    streams.bind("A", a.data)
    sim.run(sched.slots, streams)
    return sim.rf.read_vector(kb.alloc.get("y"))


class TestRoundtrip:
    def test_dict_roundtrip_preserves_structure(self):
        _, _, _, sched = _compiled_spmv()
        restored = schedule_from_dict(schedule_to_dict(sched))
        assert restored.name == sched.name
        assert restored.c == sched.c
        assert restored.n_slots == sched.n_slots
        assert restored.cycles == sched.cycles
        for b1, b2 in zip(sched.slots, restored.slots):
            assert [op.tag for op in b1] == [op.tag for op in b2]

    def test_file_roundtrip_executes_identically(self, tmp_path):
        kb, a, xv, sched = _compiled_spmv()
        expected = _execute(kb, a, xv, sched)
        path = save_schedule(sched, tmp_path / "spmv.mibx")
        restored = load_schedule(path)
        np.testing.assert_allclose(
            _execute(kb, a, xv, restored), expected, atol=1e-12
        )

    def test_executable_is_instance_agnostic(self, tmp_path):
        """One saved executable, many numeric instances (the paper's
        amortization story): rebinding streams suffices."""
        kb, a, xv, sched = _compiled_spmv()
        path = save_schedule(sched, tmp_path / "spmv.mibx")
        restored = load_schedule(path)
        rng = np.random.default_rng(99)
        a2 = a.copy()
        a2.data = rng.standard_normal(a.nnz)  # same pattern, new values
        xv2 = rng.standard_normal(12)
        out = _execute(kb, a2, xv2, restored)
        np.testing.assert_allclose(out, a2.to_dense() @ xv2, atol=1e-10)

    def test_version_check(self):
        _, _, _, sched = _compiled_spmv()
        raw = schedule_to_dict(sched)
        raw["format_version"] = 999
        with pytest.raises(ValueError):
            schedule_from_dict(raw)

    def test_preserves_scalars_and_coeff_scale(self):
        kb = KernelBuilder(C)
        a = kb.vector("a", 4)
        out = kb.vector("o", 4)
        ops = kb.ew_scale(out, a, -2.5)
        sched = schedule_program(NetworkProgram("s", ops), C)
        restored = schedule_from_dict(schedule_to_dict(sched))
        op = restored.slots[0][0]
        assert op.scalars == (-2.5,)

    def test_factor_program_roundtrips(self, tmp_path):
        """The heaviest program (lbuf coeff_reads, scalar ops) survives
        serialization and still reproduces the factorization."""
        from repro.linalg import ldl_factor
        from tests.conftest import random_spd_upper

        rng = np.random.default_rng(5)
        up = random_spd_upper(rng, 8, density=0.3)
        ref = ldl_factor(up)
        kb = KernelBuilder(C)
        ops = kb.factorization(
            ref.symbolic,
            up,
            y=kb.lane_copies(kb.vector("fy", 8)),
            d=kb.vector("fd", 8),
            dinv=kb.vector("fdinv", 8),
        )
        sched = schedule_program(NetworkProgram("factor", ops), C)
        restored = load_schedule(save_schedule(sched, tmp_path / "f.mibx"))
        sim = NetworkSimulator(C, depth=1 << 23)
        streams = StreamBuffers()
        streams.bind("K", up.data)
        sim.run(restored.slots, streams)
        l_net = np.array(
            [sim.lbuf.get(p, 0.0) for p in range(ref.symbolic.l_nnz)]
        )
        np.testing.assert_allclose(l_net, ref.l_data, atol=1e-9)
