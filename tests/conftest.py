"""Shared test fixtures and helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg import CSCMatrix


def random_sparse(
    rng: np.random.Generator, nrows: int, ncols: int, density: float
) -> CSCMatrix:
    """A random sparse matrix with roughly the requested density."""
    mask = rng.random((nrows, ncols)) < density
    dense = np.where(mask, rng.standard_normal((nrows, ncols)), 0.0)
    return CSCMatrix.from_dense(dense)


def random_spd_upper(
    rng: np.random.Generator, n: int, density: float = 0.2
) -> CSCMatrix:
    """Upper triangle of a random sparse symmetric positive definite matrix."""
    mask = rng.random((n, n)) < density
    b = np.where(mask, rng.standard_normal((n, n)), 0.0)
    dense = b @ b.T + n * np.eye(n)
    return CSCMatrix.from_dense(dense).upper_triangle()


def random_quasidefinite_upper(
    rng: np.random.Generator, n: int, m: int, density: float = 0.3
) -> CSCMatrix:
    """Upper triangle of a KKT-like quasi-definite matrix.

    Top-left block positive definite (n x n), bottom-right negative
    definite diagonal (m x m), sparse coupling block.
    """
    mask = rng.random((n, n)) < density
    b = np.where(mask, rng.standard_normal((n, n)), 0.0)
    p = b @ b.T + np.eye(n)
    a = np.where(rng.random((m, n)) < density, rng.standard_normal((m, n)), 0.0)
    k = np.zeros((n + m, n + m))
    k[:n, :n] = p
    k[:n, n:] = a.T
    k[n:, :n] = a
    k[n:, n:] = -np.eye(m) * (1.0 + rng.random(m))
    return CSCMatrix.from_dense(k).upper_triangle()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
