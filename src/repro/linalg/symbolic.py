"""Symbolic LDLᵀ factorization.

The sparse LDLᵀ factorization is split into a *symbolic* phase that
depends only on the sparsity pattern of ``K`` and a *numeric* phase that
fills in values (Section II-C of the paper).  The symbolic phase is run
once per sparsity pattern; numeric refactorization (triggered by ρ
updates in the ADMM loop) reuses it.

The full structure of ``L`` — not just column counts — is computed here,
because the MIB compiler lowers the numeric factorization into network
instructions from the explicit pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .csc import CSCMatrix
from .etree import column_counts, elimination_tree

__all__ = [
    "LevelPlan",
    "SolvePlan",
    "SymbolicFactor",
    "symbolic_factor",
    "row_reach",
]


@dataclass(frozen=True)
class LevelPlan:
    """One unit-triangular solve of a pattern, scheduled by dependency depth.

    The *level* of an unknown is the length of the longest chain of
    stored entries leading to it: 0 when its equation reads no other
    unknown, otherwise one more than the deepest unknown it reads.
    Every entry whose target sits at level ``k`` reads only unknowns of
    lower levels, so level ``k`` is one gather-multiply over all its
    entries followed by one ordered commit.  Entries of a level are
    sorted by target and, within a target, in the order the sequential
    substitution folds them, so an ordered ``ufunc.at`` commit lands
    the same operands on each unknown in the same order.

    ``sources`` / ``targets`` / ``owners`` hold one array per level
    ``1 .. depth`` (level 0 has no entries): the index each entry reads,
    the index it commits to, and the distinct targets of the level.
    ``entries`` maps the concatenated levels back to positions in the
    factor's ``l_data``; ``bounds[k]:bounds[k + 1]`` is level ``k + 1``.
    All arrays are read-only.
    """

    entries: np.ndarray
    bounds: tuple[int, ...]
    sources: tuple[np.ndarray, ...]
    targets: tuple[np.ndarray, ...]
    owners: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        """Number of levels with work: the longest dependency chain."""
        return len(self.sources)


@dataclass(frozen=True)
class SolvePlan:
    """Level schedules of the ``L`` and ``Lᵀ`` solves of one pattern."""

    forward: LevelPlan
    backward: LevelPlan


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _dependency_levels(n: int, order, reads) -> np.ndarray:
    """Longest-chain depth of every unknown; ``order`` visits each
    unknown after the ones ``reads(unknown)`` says it depends on."""
    level = np.zeros(n, dtype=np.int64)
    for i in order:
        read = reads(i)
        if read.size:
            level[i] = level[read].max() + 1
    return level


def _level_plan(
    level: np.ndarray, targets: np.ndarray, sources: np.ndarray
) -> LevelPlan:
    """Group entries by their target's level, in sequential fold order."""
    entry_level = level[targets]
    order = np.lexsort((sources, targets, entry_level))
    depth = int(level.max()) if order.size else 0
    bounds = np.searchsorted(entry_level[order], np.arange(1, depth + 2))
    members = [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    return LevelPlan(
        entries=_read_only(order),
        bounds=tuple(bounds.tolist()),
        sources=tuple(_read_only(sources[m]) for m in members),
        targets=tuple(_read_only(targets[m]) for m in members),
        owners=tuple(_read_only(np.unique(targets[m])) for m in members),
    )


@dataclass(frozen=True)
class SymbolicFactor:
    """Pattern information for an LDLᵀ factorization of an ``n x n`` matrix.

    Attributes
    ----------
    n:
        Matrix dimension.
    parent:
        Elimination tree (``parent[j] == -1`` for roots).
    l_indptr / l_indices:
        CSC pattern of the *strictly lower* triangle of ``L`` (the unit
        diagonal is implicit).  Row indices are strictly increasing
        within each column.
    row_indptr / row_indices:
        The same pattern organized by row: ``row_indices`` of row ``k``
        are the columns ``j < k`` with ``L[k, j] != 0``, ascending.
        This is the natural access order of the up-looking numeric
        factorization and of the row-based triangular solve.
    """

    n: int
    parent: np.ndarray
    l_indptr: np.ndarray
    l_indices: np.ndarray
    row_indptr: np.ndarray
    row_indices: np.ndarray

    @property
    def l_nnz(self) -> int:
        """Stored entries of L below the diagonal."""
        return int(self.l_indices.size)

    @cached_property
    def solve_plan(self) -> SolvePlan:
        """Level schedules for the triangular solves (built on first use).

        Depends only on the pattern, so it is computed once and replayed
        by every solve with every set of numeric values.
        """
        n = self.n
        rows = self.l_indices
        cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.l_indptr))
        # L x = b: row i reads the columns of its row pattern (all < i);
        # Lᵀ x = b: row j of Lᵀ reads the rows of column j of L (all > j).
        forward = _dependency_levels(n, range(n), self.row_pattern)
        backward = _dependency_levels(
            n, range(n - 1, -1, -1), self.col_pattern
        )
        return SolvePlan(
            forward=_level_plan(forward, rows, cols),
            backward=_level_plan(backward, cols, rows),
        )

    def row_pattern(self, k: int) -> np.ndarray:
        """Columns ``j < k`` where row ``k`` of ``L`` is non-zero (ascending)."""
        return self.row_indices[self.row_indptr[k] : self.row_indptr[k + 1]]

    def col_pattern(self, j: int) -> np.ndarray:
        """Rows ``i > j`` where column ``j`` of ``L`` is non-zero (ascending)."""
        return self.l_indices[self.l_indptr[j] : self.l_indptr[j + 1]]


def row_reach(
    a_upper: CSCMatrix, parent: np.ndarray, k: int, mark: np.ndarray
) -> list[int]:
    """Pattern of row ``k`` of ``L``: the etree reach of column ``k`` of A.

    ``mark`` is an ``n``-sized scratch array (int64) whose entries must
    not equal ``k`` on entry for unvisited nodes; it is updated in place.
    The returned column list is ascending.
    """
    rows, _ = a_upper.col(k)
    mark[k] = k
    pattern: list[int] = []
    stack: list[int] = []
    for i in rows:
        i = int(i)
        if i >= k:
            continue
        # Climb the etree from i, collecting unvisited nodes.
        top = len(stack)
        j = i
        while mark[j] != k:
            mark[j] = k
            stack.append(j)
            j = int(parent[j])
            if j == -1:
                break
        # The climbed path is from leaf to ancestor: reverse it into place
        # so the overall pattern merges ascending paths correctly.
        stack[top:] = stack[top:][::-1]
    # Each path is ascending after the reversal, and paths from different
    # start nodes may interleave, so a final sort gives the row pattern.
    pattern = sorted(stack)
    return pattern


def symbolic_factor(a_upper: CSCMatrix) -> SymbolicFactor:
    """Compute the full symbolic factorization of a symmetric matrix.

    Parameters
    ----------
    a_upper:
        Upper triangle (with diagonal) of the symmetric matrix, CSC.
    """
    n = a_upper.ncols
    if a_upper.nrows != n:
        raise ValueError("matrix must be square")
    parent = elimination_tree(a_upper)
    counts = column_counts(a_upper, parent) - 1  # strictly-lower counts

    l_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=l_indptr[1:])
    l_indices = np.empty(int(l_indptr[-1]), dtype=np.int64)
    fill = l_indptr[:-1].copy()  # next free slot per column

    row_indptr = np.zeros(n + 1, dtype=np.int64)
    row_chunks: list[list[int]] = []
    mark = np.full(n, -1, dtype=np.int64)
    for k in range(n):
        pattern = row_reach(a_upper, parent, k, mark)
        row_chunks.append(pattern)
        row_indptr[k + 1] = row_indptr[k] + len(pattern)
        for j in pattern:
            l_indices[fill[j]] = k
            fill[j] += 1
    if not np.array_equal(fill, l_indptr[1:]):
        raise AssertionError("column counts disagree with row reaches")
    row_indices = np.array(
        [j for chunk in row_chunks for j in chunk], dtype=np.int64
    )
    return SymbolicFactor(
        n=n,
        parent=parent,
        l_indptr=l_indptr,
        l_indices=l_indices,
        row_indptr=row_indptr,
        row_indices=row_indices,
    )
