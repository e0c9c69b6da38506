"""Tests for triangular solves (row- and column-based)."""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    CSCMatrix,
    LDLFactor,
    SymbolicFactor,
    ldl_factor,
    solve_lower_csc,
    solve_lower_unit_columns,
    solve_lower_unit_rows,
    solve_upper_csc,
    solve_upper_unit_transpose,
    triangular,
)
from repro.problems import (
    huber_problem,
    lasso_problem,
    mpc_problem,
    portfolio_problem,
    svm_problem,
)
from repro.solver import OSQPSolver
from tests.conftest import random_spd_upper
from tests.triangular_oracles import (
    blas_upper_unit_transpose,
    oracle_factor_solve,
    oracle_lower_unit_columns,
    oracle_lower_unit_rows,
    oracle_upper_unit_transpose,
)


def random_unit_lower(rng: np.random.Generator, n: int, density: float = 0.3):
    dense = np.where(
        rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0
    )
    dense = np.tril(dense, -1) + np.eye(n)
    return dense


class TestSymbolicSolves:
    def test_row_and_column_methods_agree(self, rng):
        up = random_spd_upper(rng, 12, density=0.25)
        f = ldl_factor(up)
        b = rng.standard_normal(12)
        x_col = solve_lower_unit_columns(f.symbolic, f.l_data, b)
        x_row = solve_lower_unit_rows(f.symbolic, f.l_data, b)
        np.testing.assert_allclose(x_col, x_row, atol=1e-10)

    def test_forward_solve_against_dense(self, rng):
        up = random_spd_upper(rng, 10, density=0.3)
        f = ldl_factor(up)
        l = f.l_matrix(include_diagonal=True).to_dense()
        b = rng.standard_normal(10)
        x = solve_lower_unit_columns(f.symbolic, f.l_data, b)
        np.testing.assert_allclose(l @ x, b, atol=1e-10)

    def test_backward_solve_against_dense(self, rng):
        up = random_spd_upper(rng, 10, density=0.3)
        f = ldl_factor(up)
        l = f.l_matrix(include_diagonal=True).to_dense()
        b = rng.standard_normal(10)
        x = solve_upper_unit_transpose(f.symbolic, f.l_data, b)
        np.testing.assert_allclose(l.T @ x, b, atol=1e-10)


class TestCSCSolves:
    def test_lower_with_diagonal(self, rng):
        n = 8
        dense = random_unit_lower(rng, n) * 2.0  # diagonal of 2s
        l = CSCMatrix.from_dense(dense)
        b = rng.standard_normal(n)
        x = solve_lower_csc(l, b)
        np.testing.assert_allclose(dense @ x, b, atol=1e-10)

    def test_lower_unit_diagonal_implicit(self, rng):
        n = 8
        dense = random_unit_lower(rng, n)
        strict = CSCMatrix.from_dense(dense - np.eye(n))
        b = rng.standard_normal(n)
        x = solve_lower_csc(strict, b, unit_diagonal=True)
        np.testing.assert_allclose(dense @ x, b, atol=1e-10)

    def test_lower_unit_diagonal_explicit_tolerated(self, rng):
        n = 8
        dense = random_unit_lower(rng, n)
        full = CSCMatrix.from_dense(dense)
        b = rng.standard_normal(n)
        x = solve_lower_csc(full, b, unit_diagonal=True)
        np.testing.assert_allclose(dense @ x, b, atol=1e-10)

    def test_upper_with_diagonal(self, rng):
        n = 8
        dense = random_unit_lower(rng, n).T * 3.0
        u = CSCMatrix.from_dense(dense)
        b = rng.standard_normal(n)
        x = solve_upper_csc(u, b)
        np.testing.assert_allclose(dense @ x, b, atol=1e-10)

    def test_upper_unit_diagonal(self, rng):
        n = 8
        dense = random_unit_lower(rng, n).T
        strict = CSCMatrix.from_dense(dense - np.eye(n))
        b = rng.standard_normal(n)
        x = solve_upper_csc(strict, b, unit_diagonal=True)
        np.testing.assert_allclose(dense @ x, b, atol=1e-10)

    def test_missing_diagonal_raises(self):
        l = CSCMatrix.from_dense(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            solve_lower_csc(l, np.ones(2))
        u = CSCMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            solve_upper_csc(u, np.ones(2))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            solve_lower_csc(CSCMatrix.zeros((2, 3)), np.ones(3))
        with pytest.raises(ValueError):
            solve_upper_csc(CSCMatrix.zeros((2, 3)), np.ones(3))

    def test_rhs_length_check(self):
        with pytest.raises(ValueError):
            solve_lower_csc(CSCMatrix.from_dense(np.eye(2)), np.ones(3))


class TestProperties:
    @given(st.integers(1, 12), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_csc_solves_invert_matvec(self, n, seed):
        rng = np.random.default_rng(seed)
        dense = random_unit_lower(rng, n) + np.eye(n)  # diagonal of 2s
        l = CSCMatrix.from_dense(dense)
        x_true = rng.standard_normal(n)
        b = dense @ x_true
        np.testing.assert_allclose(solve_lower_csc(l, b), x_true, atol=1e-8)
        u = CSCMatrix.from_dense(dense.T)
        b2 = dense.T @ x_true
        np.testing.assert_allclose(solve_upper_csc(u, b2), x_true, atol=1e-8)


# ----------------------------------------------------------------------
# level plans: the pattern-based solves against their loop oracles
# ----------------------------------------------------------------------
def symbolic_from_mask(mask: np.ndarray) -> SymbolicFactor:
    """A symbolic factor with exactly the strictly-lower pattern of
    ``mask`` — any pattern, not only one a factorization can produce:
    the plans must depend on the stored pattern alone."""
    n = mask.shape[0]
    mask = np.tril(mask, -1)
    cols, rows = np.nonzero(mask.T)  # column-major, rows ascending
    l_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=l_indptr[1:])
    r_rows, r_cols = np.nonzero(mask)  # row-major, columns ascending
    row_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(r_rows, minlength=n), out=row_indptr[1:])
    parent = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        below = rows[l_indptr[j] : l_indptr[j + 1]]
        if below.size:
            parent[j] = below[0]
    return SymbolicFactor(
        n=n,
        parent=parent,
        l_indptr=l_indptr,
        l_indices=rows.astype(np.int64),
        row_indptr=row_indptr,
        row_indices=r_cols.astype(np.int64),
    )


SHAPES = ("random", "chain", "dense_last_row", "empty_columns", "diagonal")


def pattern_mask(rng: np.random.Generator, n: int, shape: str) -> np.ndarray:
    mask = np.zeros((n, n), dtype=bool)
    if shape == "random":
        mask = rng.random((n, n)) < rng.uniform(0.05, 0.6)
    elif shape == "chain":
        mask[np.arange(1, n), np.arange(n - 1)] = True
    elif shape == "dense_last_row" and n:
        mask = rng.random((n, n)) < 0.15
        mask[n - 1, :] = True
    elif shape == "empty_columns":
        mask = rng.random((n, n)) < 0.4
        mask[:, rng.random(n) < 0.5] = False
    return np.tril(mask, -1)


def random_rhs(rng: np.random.Generator, n: int, contiguous: bool) -> np.ndarray:
    """Normal entries with exact zeros of both signs mixed in."""
    values = rng.standard_normal(2 * n)
    kind = rng.integers(0, 4, size=2 * n)
    values[kind == 0] = 0.0
    values[kind == 1] = -0.0
    return values[:n].copy() if contiguous else values[::2]


def longest_chain(sym: SymbolicFactor) -> int:
    """Longest path, in entries, of the dependency DAG ``j -> i`` for
    every stored ``L[i, j]`` — by brute-force relaxation, not levels."""
    cols = np.repeat(np.arange(sym.n), np.diff(sym.l_indptr))
    dist = np.zeros(sym.n, dtype=np.int64)
    for _ in range(sym.n):
        for i, j in zip(sym.l_indices.tolist(), cols.tolist()):
            dist[i] = max(dist[i], dist[j] + 1)
    return int(dist.max()) if sym.n else 0


class TestLevelPlans:
    @given(
        st.integers(0, 14),
        st.sampled_from(SHAPES),
        st.booleans(),
        st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_plans_match_the_loop_oracles(self, n, shape, contiguous, seed):
        rng = np.random.default_rng(seed)
        sym = symbolic_from_mask(pattern_mask(rng, n, shape))
        l_data = rng.uniform(-0.5, 0.5, sym.l_nnz)
        l_data[rng.random(sym.l_nnz) < 0.1] = 0.0
        b = random_rhs(rng, n, contiguous)
        assert b.flags.c_contiguous == (contiguous or n <= 1)

        # Column elimination.  The oracle skips a column whose x[j] is
        # exactly zero; the plan subtracts l * (+-0) instead.  With
        # finite l that can only turn a -0.0 into +0.0, so the values
        # are equal everywhere and the bytes wherever no skip fired.
        want = oracle_lower_unit_columns(sym, l_data, b)
        got = solve_lower_unit_columns(sym, l_data, b)
        assert np.array_equal(got, want)
        skipped = (want == 0.0) & (np.diff(sym.l_indptr) > 0)
        if not skipped.any():
            assert got.tobytes() == want.tobytes()

        # MAC forward solve: no skip in the oracle, bytes always.
        want = oracle_lower_unit_rows(sym, l_data, b)
        assert solve_lower_unit_rows(sym, l_data, b).tobytes() == want.tobytes()

        # L^T solve: defined by the ascending left fold per column.
        want = oracle_upper_unit_transpose(sym, l_data, b)
        got = solve_upper_unit_transpose(sym, l_data, b)
        assert got.tobytes() == want.tobytes()
        # ... and within rounding of the BLAS dot it replaced.
        old = blas_upper_unit_transpose(sym, l_data, b)
        scale = max(1.0, float(np.abs(want).max(initial=0.0)))
        assert np.abs(got - old).max(initial=0.0) <= 1e-12 * scale

    @given(st.integers(1, 14), st.sampled_from(SHAPES), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_upper_solve_against_scipy(self, n, shape, seed):
        sparse = pytest.importorskip("scipy.sparse")
        from scipy.sparse.linalg import spsolve_triangular

        rng = np.random.default_rng(seed)
        sym = symbolic_from_mask(pattern_mask(rng, n, shape))
        l_data = rng.uniform(-0.5, 0.5, sym.l_nnz)
        b = random_rhs(rng, n, True)
        lower = sparse.csc_matrix(
            (l_data, sym.l_indices, sym.l_indptr), shape=(n, n)
        ) + sparse.identity(n, format="csc")
        want = spsolve_triangular(lower.T.tocsr(), b, lower=False)
        got = solve_upper_unit_transpose(sym, l_data, b)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 1e-12 * scale

    @given(st.integers(0, 14), st.sampled_from(SHAPES), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_plan_structure(self, n, shape, seed):
        """Depth is the longest dependency chain; every strictly-lower
        entry sits in exactly one level of each plan, behind the levels
        of everything it reads."""
        rng = np.random.default_rng(seed)
        sym = symbolic_from_mask(pattern_mask(rng, n, shape))
        cols = np.repeat(np.arange(n), np.diff(sym.l_indptr))
        depth = longest_chain(sym)
        plan = sym.solve_plan
        for level_plan, reads, writes in (
            (plan.forward, cols, sym.l_indices),
            (plan.backward, sym.l_indices, cols),
        ):
            assert level_plan.depth == depth
            assert np.array_equal(
                np.sort(level_plan.entries), np.arange(sym.l_nnz)
            )
            assert level_plan.bounds[0] == 0
            assert level_plan.bounds[-1] == sym.l_nnz
            done = np.zeros(n, dtype=bool)  # finished in earlier levels
            done[np.setdiff1d(np.arange(n), writes)] = True
            for k in range(depth):
                lo, hi = level_plan.bounds[k], level_plan.bounds[k + 1]
                members = level_plan.entries[lo:hi]
                assert hi > lo
                assert np.array_equal(level_plan.sources[k], reads[members])
                assert np.array_equal(level_plan.targets[k], writes[members])
                assert np.array_equal(
                    level_plan.owners[k], np.unique(writes[members])
                )
                assert done[level_plan.sources[k]].all()
                assert not done[level_plan.owners[k]].any()
                done[level_plan.owners[k]] = True
            assert done.all()

    def test_plan_is_built_once_and_immutable(self, rng):
        f = ldl_factor(random_spd_upper(rng, 12, density=0.25))
        plan = f.symbolic.solve_plan
        assert f.symbolic.solve_plan is plan
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.forward = plan.backward
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.forward.entries = plan.backward.entries
        for level_plan in (plan.forward, plan.backward):
            arrays = (
                level_plan.entries,
                *level_plan.sources,
                *level_plan.targets,
                *level_plan.owners,
            )
            assert arrays and not any(a.flags.writeable for a in arrays)

    def test_threads_sharing_one_symbolic_factor(self, rng):
        """The plan carries no scratch: solvers that share a pattern
        solve concurrently and get their single-threaded answers."""
        up = random_spd_upper(rng, 40, density=0.1)
        first = ldl_factor(up)
        sym = first.symbolic
        factors = [first] + [
            LDLFactor(
                symbolic=sym,
                l_data=first.l_data * rng.uniform(0.5, 1.5, sym.l_nnz),
                d=first.d * rng.uniform(0.5, 1.5, sym.n),
            )
            for _ in range(3)
        ]
        rhs = [rng.standard_normal((25, sym.n)) for _ in factors]
        want = [
            [f.solve(b, lower_method=m) for b in bs for m in ("column", "row")]
            for f, bs in zip(factors, rhs)
        ]
        got: list[list[np.ndarray]] = [[] for _ in factors]

        def work(k: int) -> None:
            for _ in range(4):
                got[k] = [
                    factors[k].solve(b, lower_method=m)
                    for b in rhs[k]
                    for m in ("column", "row")
                ]

        threads = [
            threading.Thread(target=work, args=(k,)) for k in range(len(factors))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for mine, theirs in zip(got, want):
            assert len(mine) == len(theirs)
            for a, b in zip(mine, theirs):
                assert a.tobytes() == b.tobytes()


# The five bench_serve patterns (benchmarks/bench_serve.py PATTERNS).
SERVE_PATTERNS = {
    "lasso": lambda: lasso_problem(16, n_samples=64, seed=0),
    "mpc": lambda: mpc_problem(6, seed=0),
    "portfolio": lambda: portfolio_problem(48, seed=0),
    "svm": lambda: svm_problem(10, n_samples=40, seed=0),
    "huber": lambda: huber_problem(10, n_samples=30, seed=0),
}


@pytest.mark.parametrize("name", SERVE_PATTERNS)
@pytest.mark.parametrize("lower_method", ["column", "row"])
def test_kkt_solve_is_level_scheduled(name, lower_method, monkeypatch):
    """Count-based regression guard (no wall clock): a KKT solve runs
    one level-executor call per level of the two plans, and the plans
    stay shallow next to the dimension — a change that quietly falls
    back to per-column work fails here."""
    solver = OSQPSolver(SERVE_PATTERNS[name](), lower_method=lower_method)
    kkt = solver.kkt_solver
    plan = kkt.symbolic.solve_plan
    assert 0 < plan.forward.depth <= kkt.dim // 2
    assert 0 < plan.backward.depth <= kkt.dim // 2

    calls = []
    execute = triangular._execute_level

    def counting(*args):
        calls.append(1)
        return execute(*args)

    monkeypatch.setattr(triangular, "_execute_level", counting)
    rhs = np.random.default_rng(0).standard_normal(kkt.dim)
    got = kkt.solve(rhs)
    assert len(calls) == plan.forward.depth + plan.backward.depth
    want = kkt.perm.apply_inverse(
        oracle_factor_solve(
            kkt.factor, kkt.perm.apply(rhs), lower_method=lower_method
        )
    )
    assert np.array_equal(got, want)
