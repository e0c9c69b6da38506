"""Tests for MatrixMarket and QP problem I/O, and the MIBS value codec."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.io import (
    Skeleton,
    load_problem,
    pack_values,
    problem_from_dict,
    problem_to_dict,
    problem_with_values,
    read_matrix_market,
    iter_blobs,
    rebuild_problem,
    rebuild_problems,
    save_problem,
    unpack_values,
    write_matrix_market,
)
from repro.linalg import CSCMatrix
from repro.problems import portfolio_problem
from repro.solver import OSQP_INFTY, QPProblem, Settings, solve
from tests.conftest import random_sparse


class TestMatrixMarket:
    def test_roundtrip(self, rng, tmp_path):
        m = random_sparse(rng, 9, 7, 0.3)
        path = write_matrix_market(m, tmp_path / "m.mtx")
        m2 = read_matrix_market(path)
        np.testing.assert_allclose(m2.to_dense(), m.to_dense(), atol=0)

    def test_exact_value_preservation(self, tmp_path):
        m = CSCMatrix.from_dense(np.array([[1e-17, 0.0], [0.0, -3.14159]]))
        m2 = read_matrix_market(write_matrix_market(m, tmp_path / "m.mtx"))
        np.testing.assert_array_equal(m2.to_dense(), m.to_dense())

    def test_symmetric_qualifier(self, tmp_path):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n"
            "1 1 2.0\n"
            "2 1 1.5\n"
            "3 3 4.0\n"
        )
        path = tmp_path / "sym.mtx"
        path.write_text(text)
        m = read_matrix_market(path)
        expected = np.array(
            [[2.0, 1.5, 0.0], [1.5, 0.0, 0.0], [0.0, 0.0, 4.0]]
        )
        np.testing.assert_allclose(m.to_dense(), expected)

    def test_rejects_non_mm(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text("hello\n1 1 1\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_rejects_wrong_count(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        )
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "1 1 1\n"
            "1 1 5.0\n"
        )
        m = read_matrix_market(path)
        assert m.to_dense()[0, 0] == 5.0


class TestProblemIO:
    def test_roundtrip_preserves_solution(self, tmp_path):
        prob = portfolio_problem(15)
        path = save_problem(prob, tmp_path / "p.qp.json")
        prob2 = load_problem(path)
        assert prob2.name == prob.name
        np.testing.assert_allclose(prob2.q, prob.q)
        np.testing.assert_allclose(
            prob2.p_full.to_dense(), prob.p_full.to_dense()
        )
        np.testing.assert_allclose(prob2.a.to_dense(), prob.a.to_dense())
        settings = Settings(eps_abs=1e-5, eps_rel=1e-5)
        r1 = solve(prob, settings=settings)
        r2 = solve(prob2, settings=settings)
        assert r1.objective == pytest.approx(r2.objective, rel=1e-9)

    def test_infinity_bounds_roundtrip(self, tmp_path):
        prob = portfolio_problem(10)  # has +inf upper bounds
        prob2 = load_problem(save_problem(prob, tmp_path / "p.json"))
        np.testing.assert_array_equal(
            prob2.loose_constraint_mask(), prob.loose_constraint_mask()
        )
        np.testing.assert_array_equal(
            prob2.eq_constraint_mask(), prob.eq_constraint_mask()
        )

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            load_problem(path)

    def test_in_memory_dict_roundtrip_survives_json(self):
        """problem_to_dict/from_dict is the serve wire format; the
        document must survive an actual json encode/decode cycle."""
        import json

        prob = portfolio_problem(12, seed=4)
        doc = json.loads(json.dumps(problem_to_dict(prob)))
        assert doc["format"] == "repro-qp-v1"
        prob2 = problem_from_dict(doc)
        assert prob2.name == prob.name
        np.testing.assert_array_equal(prob2.q, prob.q)
        np.testing.assert_array_equal(
            prob2.p_full.to_dense(), prob.p_full.to_dense()
        )
        np.testing.assert_array_equal(prob2.a.to_dense(), prob.a.to_dense())
        np.testing.assert_array_equal(prob2.l, prob.l)
        np.testing.assert_array_equal(prob2.u, prob.u)

    @pytest.mark.parametrize(
        "matrix, key, index, bad",
        [
            ("A", "rows", 0, 1.5),
            ("A", "rows", 0, "1"),
            ("A", "rows", 0, True),
            ("A", "cols", -1, False),
            ("P", "rows", 0, 0.0),
            ("P", "cols", 0, None),
            ("A", "shape", 0, 0.5),
            ("A", "shape", 1, True),
        ],
    )
    def test_non_integer_index_or_shape_rejected(
        self, matrix, key, index, bad
    ):
        """``int64`` conversion would truncate 1.5, parse "1" and turn
        ``true`` into row 1; the decoder refuses each instead."""
        import json

        doc = json.loads(json.dumps(problem_to_dict(portfolio_problem(6))))
        if key == "shape" and isinstance(bad, float):
            bad += doc[matrix]["shape"][index]
        doc[matrix][key][index] = bad
        with pytest.raises(ValueError, match=f"{key} must be a list of JSON"):
            problem_from_dict(doc)

    @pytest.mark.parametrize("bad", ["01", 3, [[0, 1]]])
    def test_index_lists_must_be_flat_lists(self, bad):
        doc = problem_to_dict(portfolio_problem(6))
        doc["A"]["rows"] = bad
        with pytest.raises(ValueError, match="rows"):
            problem_from_dict(doc)

    def test_shape_needs_two_entries(self):
        doc = problem_to_dict(portfolio_problem(6))
        doc["A"]["shape"] = doc["A"]["shape"] + [1]
        with pytest.raises(ValueError, match="two entries"):
            problem_from_dict(doc)

    def test_decoded_p_upper_is_bitwise_the_rebuilt_triangle(self):
        """The wire stores ``P``'s upper triangle, so a decoded upper-only
        ``P`` (and a step built on a base's triangle) is installed as
        its own ``p_upper``; a document carrying the full symmetric
        ``P`` still has the triangle rebuilt.  Either way ``p_upper``
        holds exactly the arrays ``upper_triangle()`` builds."""
        dense = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, -0.5], [0.0, -0.5, 2.0]])
        prob = QPProblem(
            p=CSCMatrix.from_dense(dense),
            q=np.array([1.0, -2.0, 0.5]),
            a=CSCMatrix.from_dense(np.eye(3)),
            l=-np.ones(3),
            u=np.ones(3),
        )
        doc = problem_to_dict(prob)
        rows, cols, vals = prob.p.to_coo()
        full_doc = dict(
            doc,
            P={
                "shape": [3, 3],
                "rows": rows.tolist(),
                "cols": cols.tolist(),
                "values": vals.tolist(),
            },
        )
        upper = problem_from_dict(doc)
        full = problem_from_dict(full_doc)
        # A /v1/sequence or /v1/scenarios step: the base's triangle with
        # the same or new values.
        steps = [
            problem_with_values(full, q=np.zeros(3)),
            problem_with_values(full, p_data=2.0 * full.p_upper.data),
        ]
        assert upper.p_upper is upper.p
        assert full.p_upper is not full.p and full.p.nnz == 7
        assert all(step.p_upper is step.p for step in steps)
        for decoded in (upper, full, *steps):
            got, want = decoded.p_upper, decoded.p.upper_triangle()
            assert got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert np.array_equal(upper.p_upper.data, full.p_upper.data)

    def test_explicit_infinite_bounds_roundtrip(self, tmp_path):
        """Every one-sided combination of ±inf must encode and decode
        exactly (as the strings "inf"/"-inf", not as floats)."""
        prob = QPProblem(
            p=CSCMatrix.from_dense(np.eye(2)),
            q=np.array([1.0, -1.0]),
            a=CSCMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])),
            l=np.array([-OSQP_INFTY, 0.0, -OSQP_INFTY]),
            u=np.array([OSQP_INFTY, OSQP_INFTY, 5.0]),
            name="inf-bounds",
        )
        doc = problem_to_dict(prob)
        assert doc["l"] == ["-inf", 0.0, "-inf"]
        assert doc["u"] == ["inf", "inf", 5.0]
        prob2 = load_problem(save_problem(prob, tmp_path / "inf.json"))
        np.testing.assert_array_equal(prob2.l, prob.l)
        np.testing.assert_array_equal(prob2.u, prob.u)
        np.testing.assert_array_equal(
            prob2.loose_constraint_mask(), prob.loose_constraint_mask()
        )

    def test_empty_constraint_problem_roundtrips(self, tmp_path):
        """m = 0 (unconstrained QP) must survive save/load with the
        bound vectors keeping float dtype despite being empty."""
        prob = QPProblem(
            p=CSCMatrix.from_dense(np.array([[2.0, 0.5], [0.5, 1.0]])),
            q=np.array([1.0, -2.0]),
            a=CSCMatrix.zeros((0, 2)),
            l=np.zeros(0),
            u=np.zeros(0),
            name="unconstrained",
        )
        prob2 = load_problem(save_problem(prob, tmp_path / "m0.json"))
        assert prob2.m == 0 and prob2.n == 2
        assert prob2.l.dtype == np.float64 and prob2.u.dtype == np.float64
        np.testing.assert_array_equal(
            prob2.p_full.to_dense(), prob.p_full.to_dense()
        )
        assert prob2.a.shape == (0, 2)


QPS_SAMPLE = """* sample QP in QPS format
NAME          TESTQP
ROWS
 N  obj
 G  r1
 L  r2
 E  r3
COLUMNS
    x1        obj       1.5   r1   2.0
    x1        r3        1.0
    x2        obj      -2.0   r1   1.0
    x2        r2        1.0   r3   1.0
RHS
    rhs       r1        1.0   r2   4.0
    rhs       r3        2.0
BOUNDS
 UP BND       x1        10.0
 MI BND       x2
QUADOBJ
    x1        x1        4.0
    x1        x2        1.0
    x2        x2        2.0
ENDATA
"""


class TestQPS:
    def _load(self, tmp_path):
        from repro.io import read_qps

        path = tmp_path / "test.qps"
        path.write_text(QPS_SAMPLE)
        return read_qps(path)

    def test_dimensions_and_name(self, tmp_path):
        prob = self._load(tmp_path)
        assert prob.name == "TESTQP"
        assert prob.n == 2
        assert prob.m == 3 + 2  # three rows + two variable-bound rows

    def test_objective_matrices(self, tmp_path):
        prob = self._load(tmp_path)
        np.testing.assert_allclose(
            prob.p_full.to_dense(), [[4.0, 1.0], [1.0, 2.0]]
        )
        np.testing.assert_allclose(prob.q, [1.5, -2.0])

    def test_constraint_rows(self, tmp_path):
        from repro.solver import OSQP_INFTY

        prob = self._load(tmp_path)
        a = prob.a.to_dense()
        np.testing.assert_allclose(a[0], [2.0, 1.0])  # r1: >= 1
        assert prob.l[0] == 1.0 and prob.u[0] >= OSQP_INFTY
        np.testing.assert_allclose(a[1], [0.0, 1.0])  # r2: <= 4
        assert prob.l[1] <= -OSQP_INFTY and prob.u[1] == 4.0
        np.testing.assert_allclose(a[2], [1.0, 1.0])  # r3: == 2
        assert prob.l[2] == prob.u[2] == 2.0

    def test_variable_bounds(self, tmp_path):
        from repro.solver import OSQP_INFTY

        prob = self._load(tmp_path)
        # x1 in [0, 10] (QPS default lower bound 0, UP 10).
        assert prob.l[3] == 0.0 and prob.u[3] == 10.0
        # x2 free below (MI), unbounded above.
        assert prob.l[4] <= -OSQP_INFTY and prob.u[4] >= OSQP_INFTY

    def test_qps_problem_solves(self, tmp_path):
        prob = self._load(tmp_path)
        res = solve(prob, settings=Settings(eps_abs=1e-6, eps_rel=1e-6))
        assert res.status.value == "solved"
        # Cross-check against scipy on the dense problem.
        from scipy import optimize

        p = prob.p_full.to_dense()
        a = prob.a.to_dense()
        cons = []
        from repro.solver import OSQP_INFTY

        for i in range(prob.m):
            if prob.u[i] < OSQP_INFTY:
                cons.append(
                    {"type": "ineq", "fun": lambda x, i=i: prob.u[i] - a[i] @ x}
                )
            if prob.l[i] > -OSQP_INFTY:
                cons.append(
                    {"type": "ineq", "fun": lambda x, i=i: a[i] @ x - prob.l[i]}
                )
        ref = optimize.minimize(
            lambda x: 0.5 * x @ p @ x + prob.q @ x,
            np.zeros(2),
            constraints=cons,
            method="SLSQP",
        )
        assert ref.success
        np.testing.assert_allclose(res.x, ref.x, atol=1e-4)

    def test_missing_objective_rejected(self, tmp_path):
        from repro.io import read_qps

        path = tmp_path / "bad.qps"
        path.write_text("NAME x\nROWS\n G  r1\nENDATA\n")
        with pytest.raises(ValueError):
            read_qps(path)


# ----------------------------------------------------------------------
# MIBS value codec
# ----------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
# Bounds may be ±inf (one-sided constraints) or past OSQP_INFTY.
bound = st.floats(
    allow_nan=False, allow_infinity=True, width=64
) | st.sampled_from([OSQP_INFTY, -OSQP_INFTY, 1e31, -1e31, -0.0])


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


def assert_same_instance(actual: QPProblem, expected: QPProblem) -> None:
    """Bitwise the same numbers on the same pattern."""
    for name in ("q", "l", "u"):
        assert_bit_equal(getattr(actual, name), getattr(expected, name))
    pairs = ((actual.p_upper, expected.p_upper), (actual.a, expected.a))
    for got, want in pairs:
        assert got.shape == want.shape
        for field in ("indptr", "indices", "data"):
            assert_bit_equal(getattr(got, field), getattr(want, field))


def json_decoded(problem: QPProblem) -> QPProblem:
    """What the server decodes ``problem``'s JSON document to."""
    return problem_from_dict(json.loads(json.dumps(problem_to_dict(problem))))


class TestCodecProperties:
    @given(problem=qp_problems())
    @hyp_settings(max_examples=120, deadline=None)
    def test_round_trip_is_bit_exact(self, problem):
        payload = pack_values(problem)
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
        """The decode side: skeleton from the JSON document, values
        from the blob, rebuilt problem bit-identical."""
        wire = json_decoded(problem)
        skeleton = Skeleton.of(wire)
        rebuilt = rebuild_problem(skeleton, unpack_values(pack_values(wire)))
        assert_same_instance(rebuilt, wire)
        # Pattern constants are shared, not copied.
        assert rebuilt.a.indptr is skeleton.a_indptr
        assert rebuilt.p_upper is rebuilt.p

    @given(problem=qp_problems())
    @hyp_settings(max_examples=120, deadline=None)
    def test_client_values_blob_is_the_json_instance(self, problem):
        """A values body rebuilds bitwise the instance the JSON body
        decodes to — bounds past ``OSQP_INFTY`` and ``-0.0`` included —
        for a stream variant too."""
        from repro.serve.client import _values_blob

        wire = json_decoded(problem)
        skeleton = Skeleton.of(wire)
        assert_same_instance(
            rebuild_problem(skeleton, unpack_values(_values_blob(problem))),
            wire,
        )
        variant = QPProblem(
            p=problem.p_upper, q=-problem.q, a=problem.a,
            l=problem.l, u=problem.u,
        )
        base = problem_with_values(wire, q=variant.q)
        assert_same_instance(
            rebuild_problem(
                skeleton, unpack_values(_values_blob(variant, problem))
            ),
            base,
        )

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
        with pytest.raises(ValueError, match="version"):
            unpack_values(payload[:4] + b"\x02" + payload[5:])
        with pytest.raises(ValueError, match="header"):
            unpack_values(b"\x00" * 4)

    def test_framing_is_exact(self):
        """Trailing bytes used to decode silently; a body must be tiled
        exactly by 1..limit blobs."""
        payload = pack_values(self._problem())
        with pytest.raises(ValueError, match="bytes after"):
            unpack_values(payload + b"junk")
        with pytest.raises(ValueError, match="bytes after"):
            unpack_values(payload + payload)
        blobs = list(iter_blobs(payload * 3, 3))
        assert len(blobs) == 3
        assert sum(b.nbytes for b in blobs) == 3 * len(payload)
        with pytest.raises(ValueError, match="bytes after the 2"):
            list(iter_blobs(payload * 3, 2))
        with pytest.raises(ValueError, match="header"):
            list(iter_blobs(payload + b"junk", 3))
        with pytest.raises(ValueError, match="empty"):
            list(iter_blobs(b"", 3))

    def test_unmoved_matrices_are_shared_bit_for_bit(self):
        """Consecutive instances share a matrix whose values did not
        move — bitwise: ``-0.0`` where there was ``0.0`` is a move."""
        problem = self._problem()
        moved = problem.a.data.copy()
        moved[0] = 2.0
        zero = problem.p_upper.data.copy()
        zero[0] = 0.0
        negzero = zero.copy()
        negzero[0] = -0.0
        blobs = [
            pack_values(problem), pack_values(problem),
            pack_values(problem, a_data=moved),
            pack_values(problem, a_data=moved, p_data=zero),
            pack_values(problem, a_data=moved, p_data=negzero),
        ]
        first, same, a_moved, p_zero, p_negzero = rebuild_problems(
            Skeleton.of(problem), (unpack_values(b) for b in blobs)
        )
        assert same.a is first.a and same.p is first.p
        assert a_moved.a is not same.a and a_moved.p is same.p
        assert p_zero.a is a_moved.a and p_zero.p is not a_moved.p
        assert p_negzero.a is p_zero.a and p_negzero.p is not p_zero.p
        assert_bit_equal(p_negzero.p.data, negzero)

    def test_rebuild_rejects_mismatched_skeleton(self):
        problem = self._problem(n=3, m=2)
        values = unpack_values(pack_values(problem))
        for other in (self._problem(n=4, m=2), self._problem(n=3, m=3)):
            with pytest.raises(ValueError, match="pattern has"):
                rebuild_problem(Skeleton.of(other), values)
        sparser = QPProblem(
            p=problem.p, q=problem.q,
            a=CSCMatrix.from_dense(np.eye(2, 3)), l=problem.l, u=problem.u,
        )
        with pytest.raises(ValueError, match="non-zeros"):
            rebuild_problem(Skeleton.of(sparser), values)

    @pytest.mark.parametrize(
        "field, index, bad",
        [("q", 0, np.nan), ("q", 1, np.inf), ("p_data", 0, np.nan),
         ("a_data", 0, -np.inf), ("l", 0, np.inf), ("u", 1, -np.inf)],
    )
    def test_rebuild_applies_the_decode_check(self, field, index, bad):
        """A blob reaches the solver through the same value check as a
        JSON document: no NaN / inf in ``q``, ``P`` or ``A``, no lower
        bound of +inf or upper bound of -inf."""
        problem = self._problem()
        values = unpack_values(pack_values(problem))
        getattr(values, field)[index] = bad
        with pytest.raises(ValueError):
            rebuild_problem(Skeleton.of(problem), values)
