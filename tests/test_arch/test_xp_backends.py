"""Unit and property tests for the ``repro.xp`` backend layer.

The load-bearing contract is ordered accumulation: a
:class:`~repro.xp.ReducePlan` must reproduce the ``np.add.at``
duplicate-index left fold *bit for bit* on any backend, including the
IEEE-754 corner cases where float addition is not associative (±inf
cancelling to NaN, signed-zero results, NaN propagation).  Hypothesis
drives that equivalence under adversarial float64 streams.  The rest
pins the registry (three backends; a solver's backend is named or is
numpy) and the backend-keyed scratch isolation the replay stack
relies on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import MIBSolver
from repro.problems import mpc_problem
from repro.xp import (
    NUMPY,
    BackendUnavailable,
    compile_reduce_plan,
    get_backend,
)

# Adversarial float64 values: non-associativity witnesses (±inf, huge
# magnitudes that overflow pairwise), signed zeros and NaN propagation.
SPECIALS = st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 1e308, -1e308,
     1e-308, 5e-324, 0.1, -0.1]
)
FLOATS = st.one_of(
    SPECIALS, st.floats(allow_nan=True, allow_infinity=True, width=64)
)


@st.composite
def commit_streams(draw):
    """(idx, vals, init): one duplicate-index commit stream."""
    n_targets = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=0, max_value=40))
    idx = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_targets - 1),
            min_size=n, max_size=n,
        )
    )
    vals = draw(st.lists(FLOATS, min_size=n, max_size=n))
    init = draw(st.lists(FLOATS, min_size=n_targets, max_size=n_targets))
    return (
        np.array(idx, dtype=np.int64),
        np.array(vals, dtype=np.float64),
        np.array(init, dtype=np.float64),
    )


def sequential_left_fold(init, idx, vals):
    """The interpreter's ordering: one addition per commit, in stream
    order — the semantics ``np.add.at`` documents and the plan must hit."""
    out = init.copy()
    for i, v in zip(idx, vals):
        out[i] = out[i] + v
    return out


def fold_bytes(a: np.ndarray) -> bytes:
    """Bytes of ``a`` with NaNs canonicalized.

    Which NaN *payload* survives a NaN+NaN addition is unspecified by
    IEEE-754, and numpy's ufunc-at and fancy-index-add paths genuinely
    pick different operands on x86.  Everything else — signed zeros,
    ±inf, *where* NaNs appear — must match bit for bit, so compare
    bytes after collapsing every NaN to one canonical pattern."""
    out = a.copy()
    out[np.isnan(out)] = np.float64("nan")
    return out.tobytes()


class TestReducePlanProperty:
    @settings(max_examples=300, deadline=None)
    @given(commit_streams())
    def test_plan_matches_add_at_left_fold_bitwise(self, stream):
        idx, vals, init = stream
        with np.errstate(all="ignore"):
            expected = init.copy()
            np.add.at(expected, idx, vals)
            oracle = sequential_left_fold(init, idx, vals)
            assert fold_bytes(expected) == fold_bytes(oracle)

            plan = compile_reduce_plan(idx)
            got = init.copy()
            plan.apply(got, vals)
        assert fold_bytes(got) == fold_bytes(expected)

    @settings(max_examples=150, deadline=None)
    @given(commit_streams(), st.integers(min_value=1, max_value=4))
    def test_plan_batch_matches_per_lane_add_at(self, stream, b):
        idx, vals, init = stream
        with np.errstate(all="ignore"):
            lane_vals = np.stack(
                [vals * (1.0 + 0.5 * lane) for lane in range(b)]
            )
            lane_init = np.stack([init + lane for lane in range(b)])
            expected = lane_init.copy()
            for lane in range(b):
                np.add.at(expected[lane], idx, lane_vals[lane])
            got = lane_init.copy()
            compile_reduce_plan(idx).apply_batch(got, lane_vals)
        assert fold_bytes(got) == fold_bytes(expected)

    @settings(max_examples=100, deadline=None)
    @given(commit_streams())
    def test_plan_rounds_have_unique_targets(self, stream):
        idx, _, _ = stream
        plan = compile_reduce_plan(idx)
        assert plan.n == idx.size
        total = 0
        for tgt, src in plan.rounds:
            assert len(np.unique(tgt)) == len(tgt)  # scatter-safe
            assert np.array_equal(idx[src], tgt)
            total += len(tgt)
        assert total == idx.size
        if idx.size:
            deepest = int(np.bincount(idx).max())
            assert plan.max_dup == deepest


class TestReducePlanUnits:
    def test_empty_stream(self):
        plan = compile_reduce_plan(np.array([], dtype=np.int64))
        assert plan.n == 0 and plan.max_dup == 0
        state = np.array([1.0, 2.0])
        plan.apply(state, np.array([]))
        assert np.array_equal(state, [1.0, 2.0])

    def test_rejects_non_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            compile_reduce_plan(np.zeros((2, 2), dtype=np.int64))

    def test_rounds_memoized_per_backend(self):
        plan = compile_reduce_plan(np.array([0, 1, 0, 1, 0]))
        first = plan.rounds_for(NUMPY)
        assert plan.rounds_for(NUMPY) is first

    def test_inf_cancellation_ordering(self):
        """(((0 + inf) + -inf) + 1) = NaN, while any reassociation that
        adds -inf and 1 first still yields NaN — but (inf + (-inf + 1))
        vs ((inf + -inf) + 1) differ from a *max* fold; the plan must
        take the stream order exactly."""
        idx = np.array([0, 0, 0])
        vals = np.array([np.inf, -np.inf, 1.0])
        with np.errstate(invalid="ignore"):
            state = np.zeros(1)
            compile_reduce_plan(idx).apply(state, vals)
            expected = np.zeros(1)
            np.add.at(expected, idx, vals)
        assert state.tobytes() == expected.tobytes()
        assert np.isnan(state[0])

    def test_signed_zero_ordering(self):
        idx = np.array([0, 0])
        vals = np.array([-0.0, -0.0])
        state = np.array([-0.0])
        compile_reduce_plan(idx).apply(state, vals)
        expected = np.array([-0.0])
        np.add.at(expected, idx, vals)
        assert state.tobytes() == expected.tobytes()
        assert np.signbit(state[0])


@pytest.fixture(scope="module")
def tiny():
    return mpc_problem(2, horizon=3, seed=5)


def replayed_on(solver) -> set[str]:
    """Names of the backends any of the solver's traces replayed on
    (every trace scratch key ends in the backend name)."""
    return {
        key[-1]
        for trace in solver._traces.values()
        for key in trace._scratch
    }


class TestBackendRegistry:
    def test_numpy_always_available(self):
        assert get_backend("numpy") is NUMPY

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            get_backend("tpu")

    def test_registry_resolves_exactly_numpy_mock_strict(self):
        assert get_backend("mock").name == "mock"
        try:
            assert get_backend("strict").name == "strict"
        except BackendUnavailable:
            pass  # registered, but array-api-strict is not installed

    @pytest.mark.parametrize("name", ["auto", "torch", "cupy"])
    def test_removed_names_rejected_naming_the_three(self, name):
        with pytest.raises(
            ValueError,
            match=rf"unknown array backend '{name}' "
            r"\(expected one of numpy, mock, strict\)",
        ):
            get_backend(name)

    def test_unknown_backend_fails_at_solver_construction(self, tiny):
        with pytest.raises(ValueError, match="unknown array backend 'auto'"):
            MIBSolver(tiny, c=8, array_backend="auto")

    def test_backend_contract(self, backend):
        """Every available backend round-trips values bit-exactly and
        reproduces the segmented left-fold bincount."""
        host = np.array([1.5, -0.0, np.inf, 2.0**-1040, -3.25])
        dev = backend.from_host(host)
        back = np.asarray(backend.to_host(dev, copy=True))
        assert back.tobytes() == host.tobytes()
        # Segmented sum: bincount over duplicate segments.
        seg = np.array([0, 0, 1, 2, 2], dtype=np.int64)
        want = np.bincount(seg, weights=host, minlength=4)
        got = np.asarray(
            backend.to_host(
                backend.bincount(
                    backend.index(seg), backend.from_host(host), 4
                ),
                copy=True,
            )
        )
        assert got.tobytes() == want.tobytes()

    def test_index_memoized_per_array(self, backend):
        idx = np.array([3, 1, 2], dtype=np.int64)
        assert backend.index(idx) is backend.index(idx)


class TestBackendPolicy:
    """A solver's backend is named or is numpy, fixed at construction:
    every pass — solo or batch, whatever the lane count — replays on it."""

    def test_auto_sequential_is_numpy(self, tiny):
        solver = MIBSolver(tiny, c=8)
        assert solver.xp is NUMPY
        solver.solve_on_network()
        assert replayed_on(solver) == {"numpy"}

    def test_forced_numpy_everywhere(self, tiny):
        solver = MIBSolver(tiny, c=8, array_backend="numpy")
        assert solver.xp is NUMPY
        solver.solve_on_network()
        solver.solve_batch([tiny] * 4)
        assert replayed_on(solver) == {"numpy"}
        kkt = solver._traces["kkt_solve"]._scratch
        assert ("seq", "numpy") in kkt and ("batch", 4, "numpy") in kkt

    def test_forced_device_backend_everywhere(self, tiny):
        mock = get_backend("mock")
        solver = MIBSolver(tiny, c=8, array_backend="mock")
        assert solver.xp is mock
        solver.solve_on_network()
        assert replayed_on(solver) == {"mock"}
        solver.solve_batch([tiny])
        solver.solve_batch([tiny, tiny])
        assert replayed_on(solver) == {"mock"}
        kkt = solver._traces["kkt_solve"]._scratch
        assert ("seq", "mock") in kkt
        assert ("batch", 1, "mock") in kkt and ("batch", 2, "mock") in kkt

    def test_resolve_is_idempotent(self, tiny):
        """A backend instance passes through unchanged, and a name
        resolves to the same singleton every time."""
        mock = get_backend("mock")
        assert get_backend("mock") is mock
        solver = MIBSolver(tiny, c=8, array_backend=mock)
        assert solver.xp is mock
        assert MIBSolver(tiny, c=8, array_backend=solver.xp).xp is mock


class TestScratchIsolation:
    def test_trace_scratch_keyed_per_backend(self):
        """Replaying one trace under two backends must not share
        buffers: the scratch map is keyed by backend name."""
        from repro.arch import NetworkSimulator, StreamBuffers, compile_trace
        from repro.compiler import (
            KernelBuilder,
            NetworkProgram,
            schedule_program,
        )

        kb = KernelBuilder(4)
        x = kb.vector("x", 6)
        y = kb.vector("y", 6)
        ops = kb.ew_add(y, x, x)
        schedule = schedule_program(NetworkProgram("iso", ops), 4)
        depth = NetworkSimulator(4).rf.depth
        trace = compile_trace(schedule.slots, c=4, depth=depth, name="iso")

        mock = get_backend("mock")
        for xp in (NUMPY, mock):
            sim = NetworkSimulator(4)
            sim.rf.load_vector(x, np.arange(6, dtype=np.float64))
            trace.replay(sim, StreamBuffers(), xp=xp)
            assert np.array_equal(
                sim.rf.read_vector(y), 2.0 * np.arange(6)
            )
        assert ("seq", "numpy") in trace._scratch
        assert ("seq", "mock") in trace._scratch
        numpy_bufs = trace._scratch[("seq", "numpy")]
        mock_bufs = trace._scratch[("seq", "mock")]
        assert all(
            a is not b for a, b in zip(numpy_bufs, mock_bufs)
        )
