"""Compressed Sparse Column (CSC) matrix storage.

This is the storage format used throughout the reproduction, matching the
format the paper assumes for streaming matrix non-zeros from HBM
(Section III: "The matrix is usually stored in a compressed format, such
as Compressed Sparse Column (CSC), which allows for contiguous access to
non-zero values").

The implementation is self-contained on top of numpy arrays; the product
code never imports ``scipy.sparse``.  Within each column, row indices are
kept strictly increasing, which the factorization and lowering code rely
on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["CSCMatrix", "eye", "vstack", "hstack", "block_diag"]


class CSCMatrix:
    """A sparse matrix in compressed sparse column format.

    Attributes
    ----------
    shape:
        ``(nrows, ncols)`` of the matrix.
    indptr:
        Integer array of length ``ncols + 1``; column ``j`` occupies the
        slice ``indptr[j]:indptr[j + 1]`` of ``indices``/``data``.
    indices:
        Row index of each stored entry, strictly increasing within each
        column.
    data:
        Numeric value of each stored entry (float64).
    """

    __slots__ = ("shape", "indptr", "indices", "data", "_cols_cache")

    def __init__(
        self,
        shape: tuple[int, int],
        indptr: Sequence[int],
        indices: Sequence[int],
        data: Sequence[float],
        *,
        check: bool = True,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        if check:
            self._validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, *, tol: float = 0.0) -> "CSCMatrix":
        """Build from a dense 2-D array, dropping entries with ``|v| <= tol``."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {dense.shape}")
        nrows, ncols = dense.shape
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for j in range(ncols):
            col = dense[:, j]
            rows = np.nonzero(np.abs(col) > tol)[0]
            indices.extend(rows.tolist())
            data.extend(col[rows].tolist())
            indptr.append(len(indices))
        return cls((nrows, ncols), indptr, indices, data, check=False)

    @classmethod
    def from_coo(
        cls,
        shape: tuple[int, int],
        rows: Sequence[int],
        cols: Sequence[int],
        values: Sequence[float],
        *,
        sum_duplicates: bool = True,
    ) -> "CSCMatrix":
        """Build from coordinate triplets.

        Duplicate ``(row, col)`` entries are summed when ``sum_duplicates``
        is true (the usual finite-element/assembly convention), otherwise
        they raise ``ValueError``.
        """
        rows_a = np.asarray(rows, dtype=np.int64)
        cols_a = np.asarray(cols, dtype=np.int64)
        vals_a = np.asarray(values, dtype=np.float64)
        if not (rows_a.shape == cols_a.shape == vals_a.shape):
            raise ValueError("rows, cols and values must have equal length")
        nrows, ncols = shape
        if rows_a.size:
            if rows_a.min() < 0 or rows_a.max() >= nrows:
                raise ValueError("row index out of range")
            if cols_a.min() < 0 or cols_a.max() >= ncols:
                raise ValueError("column index out of range")
        order = np.lexsort((rows_a, cols_a))
        rows_a, cols_a, vals_a = rows_a[order], cols_a[order], vals_a[order]
        if rows_a.size:
            dup = (np.diff(rows_a) == 0) & (np.diff(cols_a) == 0)
            if dup.any():
                if not sum_duplicates:
                    raise ValueError("duplicate (row, col) entries")
                # Collapse runs of duplicates by summing their values.
                keep = np.concatenate(([True], ~dup))
                group = np.cumsum(keep) - 1
                summed = np.zeros(int(group[-1]) + 1, dtype=np.float64)
                np.add.at(summed, group, vals_a)
                rows_a, cols_a, vals_a = rows_a[keep], cols_a[keep], summed
        indptr = np.zeros(ncols + 1, dtype=np.int64)
        np.add.at(indptr, cols_a + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls((nrows, ncols), indptr, rows_a, vals_a, check=False)

    @classmethod
    def zeros(cls, shape: tuple[int, int]) -> "CSCMatrix":
        """An all-zero matrix (no stored entries)."""
        return cls(shape, np.zeros(shape[1] + 1, dtype=np.int64), [], [], check=False)

    def _validate(self) -> None:
        nrows, ncols = self.shape
        if self.indptr.shape != (ncols + 1,):
            raise ValueError("indptr has wrong length")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data length mismatch")
        for j in range(ncols):
            rows = self.indices[self.indptr[j] : self.indptr[j + 1]]
            if rows.size and (rows.min() < 0 or rows.max() >= nrows):
                raise ValueError(f"row index out of range in column {j}")
            if np.any(np.diff(rows) <= 0):
                raise ValueError(f"rows not strictly increasing in column {j}")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(len(self.data))

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def density(self) -> float:
        """Fraction of entries stored (0 for an empty matrix)."""
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and values of column ``j`` (views, do not mutate)."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def col_nnz(self) -> np.ndarray:
        """Stored-entry count of every column."""
        return np.diff(self.indptr)

    def copy(self) -> "CSCMatrix":
        return CSCMatrix(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            check=False,
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        for j in range(self.ncols):
            rows, vals = self.col(j)
            out[rows, j] = vals
        return out

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, values)`` triplets in column-major order."""
        cols = np.repeat(np.arange(self.ncols, dtype=np.int64), self.col_nnz())
        return self.indices.copy(), cols, self.data.copy()

    def transpose(self) -> "CSCMatrix":
        """Return the transpose (CSC of Aᵀ, i.e. CSR view of A re-sorted)."""
        rows, cols, vals = self.to_coo()
        return CSCMatrix.from_coo(
            (self.ncols, self.nrows), cols, rows, vals, sum_duplicates=False
        )

    @property
    def T(self) -> "CSCMatrix":
        return self.transpose()

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    @property
    def _entry_cols(self) -> np.ndarray:
        """Column index of every stored entry (cached)."""
        cached = getattr(self, "_cols_cache", None)
        if cached is None:
            cached = np.repeat(
                np.arange(self.ncols, dtype=np.int64), np.diff(self.indptr)
            )
            object.__setattr__(self, "_cols_cache", cached)
        return cached

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.ncols},)")
        return np.bincount(
            self.indices,
            weights=self.data * x[self._entry_cols],
            minlength=self.nrows,
        )[: self.nrows]

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Compute ``Aᵀ @ y`` without materializing the transpose."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.nrows,):
            raise ValueError(f"y has shape {y.shape}, expected ({self.nrows},)")
        return np.bincount(
            self._entry_cols,
            weights=self.data * y[self.indices],
            minlength=self.ncols,
        )[: self.ncols]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def scale(self, factor: float) -> "CSCMatrix":
        """Return ``factor * A``."""
        out = self.copy()
        out.data *= float(factor)
        return out

    def scale_rows_cols(self, d_row: np.ndarray, d_col: np.ndarray) -> "CSCMatrix":
        """Return ``diag(d_row) @ A @ diag(d_col)`` (used by Ruiz scaling)."""
        d_row = np.asarray(d_row, dtype=np.float64)
        d_col = np.asarray(d_col, dtype=np.float64)
        if d_row.shape != (self.nrows,) or d_col.shape != (self.ncols,):
            raise ValueError("scaling vector length mismatch")
        out = self.copy()
        cols = np.repeat(np.arange(self.ncols), self.col_nnz())
        out.data *= d_row[out.indices] * d_col[cols]
        return out

    def add_diagonal(self, d: np.ndarray | float) -> "CSCMatrix":
        """Return ``A + diag(d)`` for a square matrix."""
        if self.nrows != self.ncols:
            raise ValueError("add_diagonal requires a square matrix")
        n = self.nrows
        dvec = np.full(n, d, dtype=np.float64) if np.isscalar(d) else np.asarray(d)
        rows, cols, vals = self.to_coo()
        rows = np.concatenate([rows, np.arange(n)])
        cols = np.concatenate([cols, np.arange(n)])
        vals = np.concatenate([vals, dvec])
        return CSCMatrix.from_coo((n, n), rows, cols, vals)

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------
    def upper_triangle(self, *, include_diagonal: bool = True) -> "CSCMatrix":
        """Extract the (strict or inclusive) upper triangle."""
        rows, cols, vals = self.to_coo()
        keep = rows <= cols if include_diagonal else rows < cols
        return CSCMatrix.from_coo(
            self.shape, rows[keep], cols[keep], vals[keep], sum_duplicates=False
        )

    def lower_triangle(self, *, include_diagonal: bool = True) -> "CSCMatrix":
        """Extract the (strict or inclusive) lower triangle."""
        rows, cols, vals = self.to_coo()
        keep = rows >= cols if include_diagonal else rows > cols
        return CSCMatrix.from_coo(
            self.shape, rows[keep], cols[keep], vals[keep], sum_duplicates=False
        )

    def symmetrize_from_upper(self) -> "CSCMatrix":
        """Mirror a stored upper triangle into a full symmetric matrix."""
        rows, cols, vals = self.to_coo()
        off = rows < cols
        return CSCMatrix.from_coo(
            self.shape,
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
            sum_duplicates=False,
        )

    def diagonal(self) -> np.ndarray:
        """Dense diagonal of the matrix (zeros where unstored)."""
        n = min(self.shape)
        out = np.zeros(n, dtype=np.float64)
        for j in range(n):
            rows, vals = self.col(j)
            hit = np.searchsorted(rows, j)
            if hit < rows.size and rows[hit] == j:
                out[j] = vals[hit]
        return out

    def pattern_equal(self, other: "CSCMatrix") -> bool:
        """True when both matrices store exactly the same positions."""
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSCMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density():.4f})"
        )


def eye(n: int, value: float = 1.0) -> CSCMatrix:
    """The ``n x n`` identity scaled by ``value``."""
    idx = np.arange(n, dtype=np.int64)
    return CSCMatrix(
        (n, n),
        np.arange(n + 1, dtype=np.int64),
        idx,
        np.full(n, value, dtype=np.float64),
        check=False,
    )


def vstack(blocks: Sequence[CSCMatrix]) -> CSCMatrix:
    """Stack matrices vertically (equal column counts required)."""
    if not blocks:
        raise ValueError("vstack of zero blocks")
    ncols = blocks[0].ncols
    if any(b.ncols != ncols for b in blocks):
        raise ValueError("vstack requires equal column counts")
    rows_l, cols_l, vals_l = [], [], []
    offset = 0
    for b in blocks:
        r, c, v = b.to_coo()
        rows_l.append(r + offset)
        cols_l.append(c)
        vals_l.append(v)
        offset += b.nrows
    return CSCMatrix.from_coo(
        (offset, ncols),
        np.concatenate(rows_l),
        np.concatenate(cols_l),
        np.concatenate(vals_l),
        sum_duplicates=False,
    )


def hstack(blocks: Sequence[CSCMatrix]) -> CSCMatrix:
    """Stack matrices horizontally (equal row counts required)."""
    if not blocks:
        raise ValueError("hstack of zero blocks")
    nrows = blocks[0].nrows
    if any(b.nrows != nrows for b in blocks):
        raise ValueError("hstack requires equal row counts")
    rows_l, cols_l, vals_l = [], [], []
    offset = 0
    for b in blocks:
        r, c, v = b.to_coo()
        rows_l.append(r)
        cols_l.append(c + offset)
        vals_l.append(v)
        offset += b.ncols
    return CSCMatrix.from_coo(
        (nrows, offset),
        np.concatenate(rows_l),
        np.concatenate(cols_l),
        np.concatenate(vals_l),
        sum_duplicates=False,
    )


def block_diag(blocks: Sequence[CSCMatrix]) -> CSCMatrix:
    """Block-diagonal concatenation of matrices."""
    if not blocks:
        raise ValueError("block_diag of zero blocks")
    rows_l, cols_l, vals_l = [], [], []
    roff = coff = 0
    for b in blocks:
        r, c, v = b.to_coo()
        rows_l.append(r + roff)
        cols_l.append(c + coff)
        vals_l.append(v)
        roff += b.nrows
        coff += b.ncols
    return CSCMatrix.from_coo(
        (roff, coff),
        np.concatenate(rows_l),
        np.concatenate(cols_l),
        np.concatenate(vals_l),
        sum_duplicates=False,
    )
