"""Property tests for the shard tier's raw-float64 value codec.

The codec is the bit-exactness seam of the whole tier — a sharded
solve can only be bit-identical to an in-process solve if every value
(±inf bounds included) survives the pipe round trip exactly, for every
problem shape (``m = 0``, empty ``A``, empty ``P`` upper triangle) —
and if decoded arrays never alias the buffer they were decoded from.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.io import problem_from_dict, problem_to_dict
from repro.linalg import CSCMatrix
from repro.shard import (
    pack_values,
    packed_size,
    rebuild_problem,
    unpack_values,
)
from repro.solver import QPProblem

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
# Bounds may be ±inf (one-sided constraints).
bound = st.floats(allow_nan=False, allow_infinity=True, width=64)


@st.composite
def qp_problems(draw):
    """Arbitrary-pattern QPs, including degenerate shapes.

    Convexity is irrelevant to the codec, so matrix values are raw
    floats; zeros drop out of the CSC pattern, which is exactly how
    empty-``A``/empty-``P`` cases arise.
    """
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 5))
    q = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    p_vals = np.array(
        draw(
            st.lists(finite | st.just(0.0), min_size=n * n, max_size=n * n)
        )
    ).reshape(n, n)
    p_dense = np.triu(p_vals) + np.triu(p_vals, 1).T  # symmetric
    a_dense = np.array(
        draw(
            st.lists(finite | st.just(0.0), min_size=m * n, max_size=m * n)
        )
    ).reshape(m, n)
    lo = np.array(draw(st.lists(bound, min_size=m, max_size=m)))
    hi = np.array(draw(st.lists(bound, min_size=m, max_size=m)))
    return QPProblem(
        p=CSCMatrix.from_dense(p_dense),
        q=q,
        a=CSCMatrix.from_dense(a_dense),
        l=np.minimum(lo, hi),
        u=np.maximum(lo, hi),
    )


def assert_bit_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestCodecProperties:
    @given(problem=qp_problems())
    @hyp_settings(max_examples=120, deadline=None)
    def test_round_trip_is_bit_exact(self, problem):
        payload = pack_values(problem)
        assert len(payload) == packed_size(problem)
        values = unpack_values(payload)
        assert values.nbytes == len(payload)
        assert_bit_equal(values.q, problem.q)
        assert_bit_equal(values.l, problem.l)
        assert_bit_equal(values.u, problem.u)
        assert_bit_equal(values.p_data, problem.p_upper.data)
        assert_bit_equal(values.a_data, problem.a.data)

    @given(problem=qp_problems())
    @hyp_settings(max_examples=60, deadline=None)
    def test_rebuild_matches_through_the_wire_skeleton(self, problem):
        """The worker-side path: skeleton from the registration doc,
        values from the pipe, rebuilt problem bit-identical."""
        skeleton = problem_from_dict(problem_to_dict(problem))
        rebuilt = rebuild_problem(skeleton, unpack_values(pack_values(problem)))
        assert (rebuilt.n, rebuilt.m) == (problem.n, problem.m)
        assert_bit_equal(rebuilt.q, problem.q)
        assert_bit_equal(rebuilt.l, problem.l)
        assert_bit_equal(rebuilt.u, problem.u)
        assert_bit_equal(rebuilt.p_upper.data, problem.p_upper.data)
        assert_bit_equal(rebuilt.a.data, problem.a.data)
        # Pattern constants are shared, not copied.
        assert rebuilt.a.indptr is skeleton.a.indptr

    @given(problem=qp_problems())
    @hyp_settings(max_examples=60, deadline=None)
    def test_decoded_arrays_do_not_alias_the_buffer(self, problem):
        """Buffer-reuse safety: scribbling over the source buffer after
        decode must not change the decoded values."""
        buf = bytearray(pack_values(problem))
        values = unpack_values(buf)
        snapshot = [
            arr.tobytes()
            for arr in (values.q, values.l, values.u, values.p_data, values.a_data)
        ]
        buf[:] = b"\xff" * len(buf)  # the caller reuses its buffer
        assert [
            arr.tobytes()
            for arr in (values.q, values.l, values.u, values.p_data, values.a_data)
        ] == snapshot


class TestCodecEdges:
    def _problem(self, n=3, m=2):
        rng = np.random.default_rng(0)
        return QPProblem(
            p=CSCMatrix.from_dense(np.diag(rng.random(n) + 1.0)),
            q=rng.standard_normal(n),
            a=CSCMatrix.from_dense(rng.standard_normal((m, n))),
            l=np.array([-np.inf] * m),
            u=np.array([np.inf] * m),
        )

    def test_unconstrained_m0(self):
        problem = QPProblem(
            p=CSCMatrix.from_dense(np.eye(2)),
            q=np.array([1.0, -2.0]),
            a=CSCMatrix.from_dense(np.zeros((0, 2))),
            l=np.zeros(0),
            u=np.zeros(0),
        )
        values = unpack_values(pack_values(problem))
        assert values.l.size == values.u.size == values.a_data.size == 0
        assert_bit_equal(values.q, problem.q)

    def test_infinite_bounds_survive(self):
        values = unpack_values(pack_values(self._problem()))
        assert np.all(np.isneginf(values.l)) and np.all(np.isposinf(values.u))

    def test_truncated_and_corrupt_payloads_raise(self):
        payload = pack_values(self._problem())
        with pytest.raises(ValueError, match="truncated"):
            unpack_values(payload[:-8])
        with pytest.raises(ValueError, match="magic"):
            unpack_values(b"XXXX" + payload[4:])
        with pytest.raises(ValueError, match="header"):
            unpack_values(b"\x00" * 4)

    def test_rebuild_rejects_mismatched_skeleton(self):
        problem = self._problem(n=3, m=2)
        other = self._problem(n=4, m=2)
        values = unpack_values(pack_values(problem))
        skeleton = problem_from_dict(problem_to_dict(other))
        with pytest.raises(ValueError):
            rebuild_problem(skeleton, values)
