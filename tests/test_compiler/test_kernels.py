"""End-to-end lowering tests: compile kernels, schedule them, execute
on the network simulator, and compare against numpy references.

These are the central correctness tests of the reproduction: any
scheduling bug trips the simulator's hazard checks, and any lowering
bug produces wrong numbers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import NetworkSimulator, StreamBuffers
from repro.compiler import (
    KernelBuilder,
    NetworkProgram,
    ScheduleOptions,
    row_major_view,
    schedule_program,
)
from repro.linalg import CSCMatrix, ldl_factor
from tests.conftest import random_quasidefinite_upper, random_sparse, random_spd_upper

C = 8


def run_program(builder, ops, streams=None, *, multi_issue=True, prefetch=True):
    """Schedule + execute a program; return (simulator, schedule)."""
    program = NetworkProgram(name="test", ops=list(ops))
    sched = schedule_program(
        program,
        builder.c,
        ScheduleOptions(multi_issue=multi_issue, prefetch=prefetch),
    )
    sim = NetworkSimulator(builder.c, depth=1 << 23)
    stats = sim.run(sched.slots, streams or StreamBuffers())
    assert stats.cycles == sched.cycles
    return sim, sched


class TestLoadsStoresPermutes:
    def test_load_store_roundtrip(self, rng):
        kb = KernelBuilder(C)
        v = kb.vector("v", 21)
        values = rng.standard_normal(21)
        streams = StreamBuffers()
        streams.bind("V", values)
        ops = kb.load_vector(v, "V") + kb.store_vector(v, hbm_base=100)
        sim, _ = run_program(kb, ops, streams)
        np.testing.assert_allclose(sim.rf.read_vector(v), values, atol=1e-12)
        out = np.array([sim.hbm_out[100 + i] for i in range(21)])
        np.testing.assert_allclose(out, values, atol=1e-12)

    def test_permute_vector(self, rng):
        kb = KernelBuilder(C)
        src = kb.vector("src", 17)
        dst = kb.vector("dst", 17)
        perm = rng.permutation(17)
        values = rng.standard_normal(17)
        streams = StreamBuffers()
        streams.bind("V", values)
        ops = kb.load_vector(src, "V") + kb.permute_vector(src, dst, perm)
        sim, _ = run_program(kb, ops, streams)
        np.testing.assert_allclose(
            sim.rf.read_vector(dst), values[perm], atol=1e-12
        )

    def test_permute_length_check(self):
        kb = KernelBuilder(C)
        src = kb.vector("a", 4)
        dst = kb.vector("b", 5)
        with pytest.raises(ValueError):
            kb.permute_vector(src, dst, np.arange(5))

    def test_vector_redeclaration_checked(self):
        kb = KernelBuilder(C)
        kb.vector("v", 4)
        assert kb.vector("v", 4).length == 4
        with pytest.raises(ValueError):
            kb.vector("v", 5)


class TestEwise:
    def test_axpby_and_friends(self, rng):
        kb = KernelBuilder(C)
        n = 19
        a = kb.vector("a", n)
        b = kb.vector("b", n)
        out = kb.vector("out", n)
        va, vb = rng.standard_normal(n), rng.standard_normal(n)
        streams = StreamBuffers()
        streams.bind("A", va)
        streams.bind("B", vb)
        ops = (
            kb.load_vector(a, "A")
            + kb.load_vector(b, "B")
            + kb.axpby(out, a, b, 2.0, -0.5)
        )
        sim, _ = run_program(kb, ops, streams)
        np.testing.assert_allclose(
            sim.rf.read_vector(out), 2.0 * va - 0.5 * vb, atol=1e-12
        )

    def test_ew_prod_recip_scale(self, rng):
        kb = KernelBuilder(C)
        n = 11
        a = kb.vector("a", n)
        b = kb.vector("b", n)
        prod = kb.vector("prod", n)
        recip = kb.vector("recip", n)
        scaled = kb.vector("scaled", n)
        va = rng.standard_normal(n) + 3.0
        vb = rng.standard_normal(n)
        streams = StreamBuffers()
        streams.bind("A", va)
        streams.bind("B", vb)
        ops = (
            kb.load_vector(a, "A")
            + kb.load_vector(b, "B")
            + kb.ew_prod(prod, a, b)
            + kb.ew_recip(recip, a)
            + kb.ew_scale(scaled, b, -3.0)
        )
        sim, _ = run_program(kb, ops, streams)
        np.testing.assert_allclose(sim.rf.read_vector(prod), va * vb, atol=1e-12)
        np.testing.assert_allclose(sim.rf.read_vector(recip), 1 / va, atol=1e-12)
        np.testing.assert_allclose(sim.rf.read_vector(scaled), -3 * vb, atol=1e-12)

    def test_clip_matches_projection(self, rng):
        kb = KernelBuilder(C)
        n = 13
        a = kb.vector("a", n)
        out = kb.vector("out", n)
        va = rng.standard_normal(n) * 3
        lo, hi = -np.ones(n), np.ones(n)
        streams = StreamBuffers()
        streams.bind("A", va)
        streams.bind("bounds", np.concatenate([lo, hi]))
        ops = kb.load_vector(a, "A") + kb.clip(out, a, "bounds", length=n)
        sim, _ = run_program(kb, ops, streams)
        np.testing.assert_allclose(
            sim.rf.read_vector(out), np.clip(va, lo, hi), atol=1e-12
        )

    def test_stream_ops(self, rng):
        kb = KernelBuilder(C)
        n = 9
        a = kb.vector("a", n)
        out1 = kb.vector("o1", n)
        out2 = kb.vector("o2", n)
        va = rng.standard_normal(n)
        s = rng.standard_normal(n)
        streams = StreamBuffers()
        streams.bind("A", va)
        streams.bind("S", s)
        ops = (
            kb.load_vector(a, "A")
            + kb.stream_mul(out1, a, "S")
            + kb.stream_axpy(out2, a, "S", -2.0)
        )
        sim, _ = run_program(kb, ops, streams)
        np.testing.assert_allclose(sim.rf.read_vector(out1), va * s, atol=1e-12)
        np.testing.assert_allclose(
            sim.rf.read_vector(out2), va - 2.0 * s, atol=1e-12
        )


class TestSpMV:
    @pytest.mark.parametrize("multi_issue", [False, True])
    def test_spmv_matches_numpy(self, rng, multi_issue):
        kb = KernelBuilder(C)
        a = random_sparse(rng, 12, 10, 0.3)
        x = kb.vector("x", 10)
        y = kb.vector("y", 12)
        xv = rng.standard_normal(10)
        streams = StreamBuffers()
        streams.bind("X", xv)
        streams.bind("A", a.data)
        view = row_major_view(a)
        ops = kb.load_vector(x, "X") + kb.spmv(view, x, y, "A")
        sim, _ = run_program(kb, ops, streams, multi_issue=multi_issue)
        np.testing.assert_allclose(
            sim.rf.read_vector(y), a.to_dense() @ xv, atol=1e-10
        )

    @pytest.mark.parametrize("multi_issue", [False, True])
    def test_spmv_transpose_matches_numpy(self, rng, multi_issue):
        kb = KernelBuilder(C)
        a = random_sparse(rng, 12, 10, 0.3)
        y = kb.vector("y", 12)
        out = kb.vector("out", 10)
        yv = rng.standard_normal(12)
        streams = StreamBuffers()
        streams.bind("Y", yv)
        streams.bind("A", a.data)
        view = row_major_view(a)
        ops = kb.load_vector(y, "Y") + kb.spmv_transpose(view, y, out, "A")
        sim, _ = run_program(kb, ops, streams, multi_issue=multi_issue)
        np.testing.assert_allclose(
            sim.rf.read_vector(out), a.to_dense().T @ yv, atol=1e-10
        )

    def test_multi_issue_same_result_fewer_cycles(self, rng):
        kb1 = KernelBuilder(C)
        kb2 = KernelBuilder(C)
        a = random_sparse(rng, 30, 24, 0.12)
        xv = rng.standard_normal(24)
        results = {}
        cycles = {}
        for mi, kb in ((False, kb1), (True, kb2)):
            x = kb.vector("x", 24)
            y = kb.vector("y", 30)
            streams = StreamBuffers()
            streams.bind("X", xv)
            streams.bind("A", a.data)
            view = row_major_view(a)
            ops = kb.load_vector(x, "X") + kb.spmv(view, x, y, "A")
            sim, sched = run_program(kb, ops, streams, multi_issue=mi)
            results[mi] = sim.rf.read_vector(y)
            cycles[mi] = sched.cycles
        np.testing.assert_allclose(results[True], results[False], atol=1e-10)
        assert cycles[True] < cycles[False]

    def test_dimension_checks(self, rng):
        kb = KernelBuilder(C)
        a = random_sparse(rng, 4, 5, 0.5)
        x = kb.vector("x", 7)
        y = kb.vector("y", 4)
        with pytest.raises(ValueError):
            kb.spmv(row_major_view(a), x, y, "A")
        with pytest.raises(ValueError):
            kb.spmv_transpose(row_major_view(a), y, x, "A")

    @given(st.integers(0, 1000))
    @settings(max_examples=12, deadline=None)
    def test_spmv_property(self, seed):
        rng = np.random.default_rng(seed)
        kb = KernelBuilder(C)
        nr = int(rng.integers(1, 16))
        nc = int(rng.integers(1, 16))
        a = random_sparse(rng, nr, nc, 0.35)
        x = kb.vector("x", nc)
        y = kb.vector("y", nr)
        xv = rng.standard_normal(nc)
        streams = StreamBuffers()
        streams.bind("X", xv)
        streams.bind("A", a.data)
        ops = kb.load_vector(x, "X") + kb.spmv(row_major_view(a), x, y, "A")
        sim, _ = run_program(kb, ops, streams)
        np.testing.assert_allclose(
            sim.rf.read_vector(y), a.to_dense() @ xv, atol=1e-9
        )


class TestTriangularSolves:
    def _factor_fixture(self, rng, n=10, m=None):
        if m is None:
            up = random_spd_upper(rng, n, density=0.3)
        else:
            up = random_quasidefinite_upper(rng, n, m)
        f = ldl_factor(up)
        return up, f

    @pytest.mark.parametrize("method", ["columns", "rows"])
    def test_lsolve(self, rng, method):
        kb = KernelBuilder(C)
        _, f = self._factor_fixture(rng)
        n = f.n
        x = kb.vector("x", n)
        b = rng.standard_normal(n)
        streams = StreamBuffers()
        streams.bind("B", b)
        streams.bind("L", f.l_data)
        lower = kb.lsolve_columns if method == "columns" else kb.lsolve_rows
        ops = kb.load_vector(x, "B") + lower(f.symbolic, x, "L")
        sim, _ = run_program(kb, ops, streams)
        l_dense = f.l_matrix(include_diagonal=True).to_dense()
        np.testing.assert_allclose(
            l_dense @ sim.rf.read_vector(x), b, atol=1e-9
        )

    def test_full_kkt_solve_pipeline(self, rng):
        """permute -> L solve -> D solve -> Lt solve -> inverse permute
        reproduces the LDL solve (the Listing 1 flow)."""
        kb = KernelBuilder(C)
        up, f = self._factor_fixture(rng, n=7, m=5)
        n = f.n
        x = kb.vector("x", n)
        b = rng.standard_normal(n)
        streams = StreamBuffers()
        streams.bind("B", b)
        streams.bind("L", f.l_data)
        streams.bind("Dinv", 1.0 / f.d)
        ops = (
            kb.load_vector(x, "B")
            + kb.lsolve_columns(f.symbolic, x, "L")
            + kb.dsolve(x, "Dinv")
            + kb.ltsolve(f.symbolic, x, "L")
        )
        sim, _ = run_program(kb, ops, streams)
        expected = f.solve(b)
        np.testing.assert_allclose(sim.rf.read_vector(x), expected, atol=1e-8)

    def test_row_and_column_lsolve_agree(self, rng):
        results = []
        for method in ("columns", "rows"):
            kb = KernelBuilder(C)
            rng2 = np.random.default_rng(7)
            up = random_spd_upper(rng2, 12, density=0.25)
            f = ldl_factor(up)
            x = kb.vector("x", 12)
            b = np.random.default_rng(8).standard_normal(12)
            streams = StreamBuffers()
            streams.bind("B", b)
            streams.bind("L", f.l_data)
            lower = kb.lsolve_columns if method == "columns" else kb.lsolve_rows
            ops = kb.load_vector(x, "B") + lower(f.symbolic, x, "L")
            sim, _ = run_program(kb, ops, streams)
            results.append(sim.rf.read_vector(x))
        np.testing.assert_allclose(results[0], results[1], atol=1e-10)


class TestFactorization:
    @pytest.mark.parametrize("multi_issue", [False, True])
    def test_factorization_matches_reference(self, rng, multi_issue):
        up = random_quasidefinite_upper(rng, 7, 5)
        ref = ldl_factor(up)
        n = ref.n
        kb = KernelBuilder(C)
        y = kb.lane_copies(kb.vector("fy", n))
        d = kb.vector("fd", n)
        dinv = kb.vector("fdinv", n)
        streams = StreamBuffers()
        streams.bind("K", up.data)
        ops = kb.factorization(ref.symbolic, up, y=y, d=d, dinv=dinv)
        sim, _ = run_program(kb, ops, streams, multi_issue=multi_issue)
        l_net = np.array(
            [sim.lbuf.get(p, 0.0) for p in range(ref.symbolic.l_nnz)]
        )
        np.testing.assert_allclose(l_net, ref.l_data, atol=1e-9)
        np.testing.assert_allclose(sim.rf.read_vector(d), ref.d, atol=1e-9)
        np.testing.assert_allclose(
            sim.rf.read_vector(dinv), 1.0 / ref.d, atol=1e-9
        )

    def test_lane_copies_share_the_rotation(self):
        kb = KernelBuilder(C)
        y = kb.vector("fy", 19)
        kb.vector("fd", 19)
        copies = kb.lane_copies(y)
        assert len(copies) == C and copies[0] is y
        assert {v.rotation for v in copies} == {y.rotation}
        assert len({v.base for v in copies}) == C

    def test_lane_copies_answer_bitwise_as_one_accumulator(self, rng):
        """Renaming the scratch row removes only false dependencies:
        every L, d and 1/d word is the one a single accumulator gives,
        in fewer cycles."""
        up = random_quasidefinite_upper(rng, 12, 9)
        ref = ldl_factor(up)
        n = ref.n
        words, cycles = {}, {}
        for lanes in (False, True):
            kb = KernelBuilder(C)
            y = kb.vector("fy", n)
            d = kb.vector("fd", n)
            dinv = kb.vector("fdinv", n)
            streams = StreamBuffers()
            streams.bind("K", up.data)
            ops = kb.factorization(
                ref.symbolic,
                up,
                y=kb.lane_copies(y) if lanes else [y],
                d=d,
                dinv=dinv,
            )
            sim, sched = run_program(kb, ops, streams)
            cycles[lanes] = sched.cycles
            words[lanes] = [
                np.array(
                    [sim.lbuf.get(p, 0.0) for p in range(ref.symbolic.l_nnz)]
                ).tobytes(),
                sim.rf.read_vector(d).tobytes(),
                sim.rf.read_vector(dinv).tobytes(),
            ]
        assert words[True] == words[False]
        assert cycles[True] < cycles[False]

    def test_factor_then_solve_on_network(self, rng):
        """The full direct KKT path: numeric factorization followed by
        the triangular solves, all on the network."""
        up = random_spd_upper(rng, 9, density=0.3)
        ref = ldl_factor(up)
        n = ref.n
        kb = KernelBuilder(C)
        y = kb.lane_copies(kb.vector("fy", n))
        d = kb.vector("fd", n)
        dinv = kb.vector("fdinv", n)
        x = kb.vector("x", n)
        b = rng.standard_normal(n)
        streams = StreamBuffers()
        streams.bind("K", up.data)
        streams.bind("B", b)
        factor_ops = kb.factorization(ref.symbolic, up, y=y, d=d, dinv=dinv)
        sim, _ = run_program(kb, factor_ops, streams)
        # Bind the factor results as solve streams (the backend's job).
        streams.bind(
            "L", np.array([sim.lbuf.get(p, 0.0) for p in range(ref.symbolic.l_nnz)])
        )
        streams.bind("Dinv", sim.rf.read_vector(dinv))
        solve_ops = (
            kb.load_vector(x, "B")
            + kb.lsolve_columns(ref.symbolic, x, "L")
            + kb.dsolve(x, "Dinv")
            + kb.ltsolve(ref.symbolic, x, "L")
        )
        sched = schedule_program(
            NetworkProgram("solve", solve_ops), kb.c, ScheduleOptions()
        )
        sim.run(sched.slots, streams)
        np.testing.assert_allclose(
            sim.rf.read_vector(x), ref.solve(b), atol=1e-8
        )

    def test_factorization_multi_issue_faster_on_forest(self, rng):
        # Block-diagonal matrix: many independent etree subtrees, so
        # multi-issue should pack aggressively.
        blocks = []
        for i in range(6):
            blk_rng = np.random.default_rng(i)
            dense = blk_rng.standard_normal((4, 4))
            blocks.append(dense @ dense.T + 4 * np.eye(4))
        full = np.zeros((24, 24))
        for i, blk in enumerate(blocks):
            full[4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = blk
        up = CSCMatrix.from_dense(np.triu(full))
        ref = ldl_factor(up)
        cycles = {}
        for mi in (False, True):
            kb = KernelBuilder(C)
            y = kb.lane_copies(kb.vector("fy", 24))
            d = kb.vector("fd", 24)
            dinv = kb.vector("fdinv", 24)
            streams = StreamBuffers()
            streams.bind("K", up.data)
            ops = kb.factorization(ref.symbolic, up, y=y, d=d, dinv=dinv)
            sim, sched = run_program(kb, ops, streams, multi_issue=mi)
            cycles[mi] = sched.cycles
            l_net = np.array(
                [sim.lbuf.get(p, 0.0) for p in range(ref.symbolic.l_nnz)]
            )
            np.testing.assert_allclose(l_net, ref.l_data, atol=1e-9)
        assert cycles[True] < cycles[False]
