"""Tests for Ruiz scaling and KKT assembly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.mib import MIBSolver
from repro.linalg import CSCMatrix, eye
from repro.solver import (
    OSQPSolver,
    QPProblem,
    assemble_kkt,
    identity_scaling,
    ruiz_scale,
)
from tests.test_backends.test_one_loop import PATTERNS


def badly_scaled_problem() -> QPProblem:
    p = CSCMatrix.from_dense(np.diag([1e6, 1e-4]))
    a = CSCMatrix.from_dense(np.array([[1e4, 0.0], [0.0, 1e-3]]))
    return QPProblem(
        p=p,
        q=np.array([1e5, -1e-3]),
        a=a,
        l=np.array([-1.0, -1.0]),
        u=np.array([1.0, 1.0]),
    )


class TestRuiz:
    def test_equilibrates_column_norms(self):
        prob = badly_scaled_problem()
        sc = ruiz_scale(prob)
        stacked = np.vstack(
            [sc.scaled.p_full.to_dense(), sc.scaled.a.to_dense()]
        )
        norms = np.abs(stacked).max(axis=0)
        # After 10 Ruiz passes the equilibrated norms are near 1.
        assert norms.max() / norms.min() < 10.0
        assert 0.01 < norms.max() < 100.0

    def test_unscale_roundtrip(self):
        prob = badly_scaled_problem()
        sc = ruiz_scale(prob)
        x_scaled = np.array([0.5, -0.25])
        # The scaled problem evaluated at x̄ equals c * original at Dx̄.
        x_orig = sc.unscale_x(x_scaled)
        scaled_obj = sc.scaled.objective(x_scaled)
        assert scaled_obj == pytest.approx(sc.c * prob.objective(x_orig), rel=1e-10)

    def test_constraint_consistency(self):
        prob = badly_scaled_problem()
        sc = ruiz_scale(prob)
        x_scaled = np.array([0.1, 0.2])
        ax_scaled = sc.scaled.a.matvec(x_scaled)
        ax_orig = prob.a.matvec(sc.unscale_x(x_scaled))
        np.testing.assert_allclose(sc.unscale_z(ax_scaled), ax_orig, atol=1e-10)

    def test_identity_scaling_is_noop(self):
        prob = badly_scaled_problem()
        sc = identity_scaling(prob)
        assert sc.scaled is prob
        np.testing.assert_array_equal(sc.d, np.ones(2))
        x = np.array([3.0, 4.0])
        np.testing.assert_array_equal(sc.unscale_x(x), x)
        np.testing.assert_array_equal(sc.unscale_y(x), x)


class TestKKTAssembly:
    def make(self, rho=0.1, sigma=1e-6):
        prob = QPProblem(
            p=CSCMatrix.from_dense(np.array([[4.0, 1.0], [1.0, 2.0]])),
            q=np.zeros(2),
            a=CSCMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])),
            l=-np.ones(3),
            u=np.ones(3),
        )
        rho_vec = np.full(3, rho)
        return prob, assemble_kkt(prob, sigma, rho_vec), rho_vec

    def test_matches_dense_formula(self):
        prob, kkt, rho_vec = self.make()
        p = prob.p_full.to_dense()
        a = prob.a.to_dense()
        expected = np.block(
            [
                [p + 1e-6 * np.eye(2), a.T],
                [a, -np.diag(1.0 / rho_vec)],
            ]
        )
        full = kkt.matrix.symmetrize_from_upper().to_dense()
        np.testing.assert_allclose(full, expected, atol=1e-12)

    def test_is_upper_triangular(self):
        _, kkt, _ = self.make()
        dense = kkt.matrix.to_dense()
        np.testing.assert_array_equal(dense, np.triu(dense))

    def test_update_rho_in_place(self):
        prob, kkt, _ = self.make()
        pattern_before = (kkt.matrix.indptr.copy(), kkt.matrix.indices.copy())
        new_rho = np.array([0.5, 2.0, 10.0])
        kkt.update_rho(new_rho)
        full = kkt.matrix.symmetrize_from_upper().to_dense()
        np.testing.assert_allclose(
            np.diag(full)[2:], -1.0 / new_rho, atol=1e-12
        )
        # Pattern must be untouched (symbolic factorization reuse).
        np.testing.assert_array_equal(kkt.matrix.indptr, pattern_before[0])
        np.testing.assert_array_equal(kkt.matrix.indices, pattern_before[1])

    def test_update_rho_length_check(self):
        _, kkt, _ = self.make()
        with pytest.raises(ValueError):
            kkt.update_rho(np.ones(2))

    def test_diagonal_stored_even_when_p_diag_zero(self):
        # P with an absent diagonal entry must still produce a KKT
        # diagonal slot (holding sigma).
        prob = QPProblem(
            p=CSCMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]])),
            q=np.zeros(2),
            a=eye(2),
            l=-np.ones(2),
            u=np.ones(2),
        )
        kkt = assemble_kkt(prob, 0.5, np.ones(2))
        dense = kkt.matrix.symmetrize_from_upper().to_dense()
        assert dense[0, 0] == pytest.approx(0.5)
        assert dense[1, 1] == pytest.approx(0.5)


class TestOneScalingPath:
    """Construction scales an instance the way every rebind does, so a
    fresh solver and the same solver rebound to its own instance hold
    the same bits — and the first rebind may take the delta path."""

    @pytest.mark.parametrize("scale", [True, False])
    @pytest.mark.parametrize("variant", ["direct", "indirect"])
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_construction_equals_rebind(self, pattern, variant, scale):
        problem = PATTERNS[pattern]()
        solver = OSQPSolver(problem, variant=variant, scale=scale)
        built = solver.scaling.scaled
        solver.update_values(problem)
        rebound = solver.scaling.scaled
        for name in ("p_full", "a"):
            before, after = getattr(built, name), getattr(rebound, name)
            assert before.pattern_equal(after), name
            assert np.array_equal(before.data, after.data), name
        for name in "qlu":
            assert np.array_equal(getattr(built, name), getattr(rebound, name)), name

    @pytest.mark.parametrize("variant", ["direct", "indirect"])
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_first_rebind_is_a_delta_and_answers_as_a_fresh_twin(
        self, pattern, variant
    ):
        solver = MIBSolver(PATTERNS[pattern](), variant=variant, c=8)
        twin = MIBSolver(PATTERNS[pattern](), variant=variant, c=8)
        assert solver.bind_values(PATTERNS[pattern]()) == "delta"
        got, expected = solver.solve(), twin.solve()
        assert got.result.status is expected.result.status
        assert got.result.iterations == expected.result.iterations
        assert got.result.rho_updates == expected.result.rho_updates
        assert got.cycles == expected.cycles
        for name in "xyz":
            assert np.array_equal(
                getattr(got.result, name), getattr(expected.result, name)
            ), name
