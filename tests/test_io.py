"""Tests for MatrixMarket and QP problem I/O."""

from __future__ import annotations

import numpy as np
import pytest

from repro.io import (
    load_problem,
    problem_from_dict,
    problem_to_dict,
    problem_with_values,
    read_matrix_market,
    save_problem,
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
