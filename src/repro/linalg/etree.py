"""Elimination trees for sparse symmetric factorization.

The elimination tree (Liu [24] in the paper) is the spanning tree of the
data-dependency graph of the LDLᵀ factorization: column ``j`` of ``L``
must be computed before its parent ``parent[j]``.  The paper uses it to
derive an initial network-instruction order for the OSQP-direct variant
that is free of *data* hazards (Section IV-C); the same structure also
drives the symbolic factorization (row pattern computation).

All routines operate on the *upper triangle* of a symmetric matrix in
CSC form, the storage convention used for KKT matrices.
"""

from __future__ import annotations

import numpy as np

from .csc import CSCMatrix

__all__ = [
    "elimination_tree",
    "postorder",
    "column_counts",
    "level_sets",
    "topological_order",
    "tree_height",
]


def elimination_tree(a_upper: CSCMatrix) -> np.ndarray:
    """Compute the elimination tree of a symmetric matrix.

    Parameters
    ----------
    a_upper:
        Upper triangle (including diagonal) of the symmetric matrix in
        CSC form.

    Returns
    -------
    ``parent`` array of length ``n``; ``parent[j] == -1`` marks a root.

    Notes
    -----
    This is Liu's ancestor-compression algorithm, which runs in nearly
    O(nnz) time: for each entry ``(i, j)`` with ``i < j`` walk up from
    ``i`` towards the root, path-compressing via an ``ancestor`` array,
    and attach the last traversed root under ``j``.
    """
    n = a_upper.ncols
    if a_upper.nrows != n:
        raise ValueError("matrix must be square")
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        rows, _ = a_upper.col(j)
        for i in rows:
            i = int(i)
            if i >= j:
                continue
            # Walk from i to the root of its current subtree.
            while True:
                anc = ancestor[i]
                ancestor[i] = j  # path compression
                if anc == -1:
                    if parent[i] == -1:
                        parent[i] = j
                    break
                if anc == j:
                    break
                i = int(anc)
    return parent


def postorder(parent: np.ndarray) -> np.ndarray:
    """Depth-first postorder of the elimination tree (children first).

    Children of each node are visited in increasing index order, which
    makes the postorder deterministic.
    """
    n = parent.size
    # Build child lists.
    children: list[list[int]] = [[] for _ in range(n)]
    roots: list[int] = []
    for j in range(n):
        p = int(parent[j])
        if p == -1:
            roots.append(j)
        else:
            children[p].append(j)
    order = np.empty(n, dtype=np.int64)
    k = 0
    # Iterative DFS; push children reversed so they pop in increasing order.
    for root in roots:
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order[k] = node
                k += 1
            else:
                stack.append((node, True))
                for c in reversed(children[node]):
                    stack.append((c, False))
    if k != n:
        raise ValueError("parent array does not describe a forest")
    return order


def column_counts(a_upper: CSCMatrix, parent: np.ndarray) -> np.ndarray:
    """Number of non-zeros in each column of ``L`` (including the diagonal).

    Uses the row-subtree characterization: entry ``L[i, j]`` is non-zero
    iff ``j`` lies on the path in the etree from some ``k`` with
    ``A[k, i] != 0, k <= i`` up to ``i``.  Computed by replaying the
    up-looking symbolic reach per row with an O(n) marker.
    """
    n = a_upper.ncols
    counts = np.ones(n, dtype=np.int64)  # diagonal of each column
    mark = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        mark[i] = i
        rows, _ = a_upper.col(i)
        for k in rows:
            k = int(k)
            if k >= i:
                continue
            # Walk up the etree from k until we hit a node already marked
            # for row i; every newly marked node j gains entry L[i, j].
            j = k
            while j != -1 and mark[j] != i:
                mark[j] = i
                counts[j] += 1
                j = int(parent[j])
    return counts


def level_sets(parent: np.ndarray) -> list[list[int]]:
    """Group columns by etree depth: level 0 = leaves-with-no-children... roots last.

    Columns within one level have no ancestor/descendant relation, so
    their eliminations are mutually independent — the basis for
    multi-issue packing of factorization instructions.
    """
    n = parent.size
    depth = np.zeros(n, dtype=np.int64)
    # Children are always numbered lower than parents in an etree, so a
    # single ascending pass computes depths.
    for j in range(n):
        p = int(parent[j])
        if p != -1:
            depth[p] = max(depth[p], depth[j] + 1)
    levels: list[list[int]] = [[] for _ in range(int(depth.max()) + 1 if n else 0)]
    for j in range(n):
        levels[int(depth[j])].append(j)
    return levels


def topological_order(parent: np.ndarray) -> np.ndarray:
    """An order where every node precedes its parent (children-first).

    For an etree the natural order ``0..n-1`` is already topological
    (parents always have larger indices); this helper exists so callers
    state intent and get the postorder-based variant, which additionally
    clusters subtrees together — better for locality when scheduling.
    """
    return postorder(parent)


def tree_height(parent: np.ndarray) -> int:
    """Height of the elimination tree (the factorization critical path)."""
    return len(level_sets(parent))
