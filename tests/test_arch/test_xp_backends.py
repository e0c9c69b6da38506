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
from repro.problems import mpc_problem, portfolio_problem
from repro.solver import SolverStatus
from repro.xp import (
    NUMPY,
    BackendUnavailable,
    compile_reduce_plan,
    get_backend,
)
from tests.test_backends.test_one_loop import report_key
from tests.test_backends.test_solve_on_network import (
    ADAPTING,
    FAST,
    dual_infeasible_problem,
    primal_infeasible_problem,
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


# Whole network solves, one per exit the loop has: convergence after
# on-network ρ refactorizations, and both infeasibility certificates.
WHOLE_SOLVES = {
    "rho_refactor": (
        lambda: portfolio_problem(10), ADAPTING, SolverStatus.SOLVED
    ),
    "primal_infeasible": (
        primal_infeasible_problem, FAST, SolverStatus.PRIMAL_INFEASIBLE
    ),
    "dual_infeasible": (
        dual_infeasible_problem, FAST, SolverStatus.DUAL_INFEASIBLE
    ),
}


class TestBackendPolicy:
    """A solver's backend is named or is numpy, fixed at construction:
    every network solve replays on it, and gives numpy's answer."""

    def test_auto_sequential_is_numpy(self, tiny):
        solver = MIBSolver(tiny, c=8)
        assert solver.xp is NUMPY
        solver.solve_on_network()
        assert replayed_on(solver) == {"numpy"}

    def test_forced_numpy_everywhere(self, tiny):
        solver = MIBSolver(tiny, c=8, array_backend="numpy")
        assert solver.xp is NUMPY
        solver.solve_on_network()
        assert replayed_on(solver) == {"numpy"}
        assert ("seq", "numpy") in solver._traces["kkt_solve"]._scratch

    def test_forced_device_backend_everywhere(self, tiny):
        mock = get_backend("mock")
        solver = MIBSolver(tiny, c=8, array_backend="mock")
        assert solver.xp is mock
        solver.solve_on_network()
        assert replayed_on(solver) == {"mock"}
        assert ("seq", "mock") in solver._traces["kkt_solve"]._scratch

    @pytest.mark.parametrize("case", WHOLE_SOLVES)
    def test_whole_network_solve_matches_numpy(self, backend, case):
        """A whole network solve on each backend equals numpy's bit for
        bit, certificates included."""
        make, settings_, status = WHOLE_SOLVES[case]
        want, got = (
            MIBSolver(
                make(), c=8, settings=settings_, array_backend=xp
            ).solve_on_network()
            for xp in (NUMPY, backend)
        )
        assert want.status is status
        if case == "rho_refactor":
            assert want.rho_updates >= 1
        assert report_key(got) == report_key(want)
        for name in (
            "primal_infeasibility_certificate",
            "dual_infeasibility_certificate",
        ):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert a.tobytes() == b.tobytes(), name

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
        buffers: the scratch map is keyed by backend name.  Repeated
        replays on one backend reuse its buffers and stay correct, HBM
        stores included."""
        from repro.arch import NetworkSimulator, StreamBuffers, compile_trace
        from repro.compiler import (
            KernelBuilder,
            NetworkProgram,
            schedule_program,
        )

        kb = KernelBuilder(4)
        x = kb.vector("x", 6)
        y = kb.vector("y", 6)
        ops = kb.ew_add(y, x, x) + kb.store_vector(y, hbm_base=10)
        schedule = schedule_program(NetworkProgram("iso", ops), 4)
        depth = NetworkSimulator(4).rf.depth
        trace = compile_trace(schedule.slots, c=4, depth=depth, name="iso")

        mock = get_backend("mock")
        for xp in (NUMPY, mock):
            for scale in (1.0, 3.0):
                sim = NetworkSimulator(4)
                values = scale * np.arange(6, dtype=np.float64)
                sim.rf.load_vector(x, values)
                trace.replay(sim, StreamBuffers(), xp=xp)
                assert np.array_equal(sim.rf.read_vector(y), 2.0 * values)
                assert sim.hbm_out == {
                    10 + i: 2.0 * v for i, v in enumerate(values)
                }
                bufs = tuple(map(id, trace._scratch[("seq", xp.name)]))
                if scale == 1.0:
                    first = bufs
            assert bufs == first
        assert ("seq", "numpy") in trace._scratch
        assert ("seq", "mock") in trace._scratch
        numpy_bufs = trace._scratch[("seq", "numpy")]
        mock_bufs = trace._scratch[("seq", "mock")]
        assert all(
            a is not b for a, b in zip(numpy_bufs, mock_bufs)
        )
