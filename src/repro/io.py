"""Problem and matrix I/O.

Sparse matrices use the MatrixMarket coordinate format (the lingua
franca of QP benchmark collections such as Maros–Mészáros), and whole
QP problems round-trip through a single JSON document embedding the
matrices in coordinate form.  Pure standard library + numpy.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .linalg import CSCMatrix
from .solver import OSQP_INFTY, QPProblem

__all__ = [
    "decode_bounds",
    "encode_bounds",
    "read_matrix_market",
    "write_matrix_market",
    "load_problem",
    "problem_from_dict",
    "problem_to_dict",
    "problem_with_values",
    "save_problem",
    "read_qps",
]


def encode_bounds(v: np.ndarray) -> list:
    """JSON-safe bound vector: ±infinity as ``"inf"``/``"-inf"``."""
    return [
        "inf" if x >= OSQP_INFTY else "-inf" if x <= -OSQP_INFTY else x
        for x in v.tolist()
    ]


def decode_bounds(raw) -> np.ndarray:
    """Inverse of :func:`encode_bounds` (accepts plain numerics too)."""
    return np.array(
        [
            OSQP_INFTY
            if x == "inf"
            else -OSQP_INFTY
            if x == "-inf"
            else float(x)
            for x in raw
        ],
        dtype=np.float64,
    )


def write_matrix_market(matrix: CSCMatrix, path: str | Path) -> Path:
    """Write a matrix in MatrixMarket coordinate format (1-based)."""
    path = Path(path)
    rows, cols, vals = matrix.to_coo()
    lines = [
        "%%MatrixMarket matrix coordinate real general",
        f"{matrix.nrows} {matrix.ncols} {matrix.nnz}",
    ]
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        lines.append(f"{r + 1} {c + 1} {v!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def read_matrix_market(path: str | Path) -> CSCMatrix:
    """Read a real coordinate MatrixMarket file.

    Supports ``general`` and ``symmetric`` qualifiers (symmetric files
    store one triangle; the mirror entries are reconstructed).
    """
    text = Path(path).read_text().splitlines()
    if not text or not text[0].startswith("%%MatrixMarket"):
        raise ValueError("not a MatrixMarket file")
    header = text[0].lower().split()
    if "coordinate" not in header or "real" not in header:
        raise ValueError("only real coordinate matrices are supported")
    symmetric = "symmetric" in header
    body = [ln for ln in text[1:] if ln.strip() and not ln.startswith("%")]
    nrows, ncols, nnz = (int(tok) for tok in body[0].split())
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for line in body[1 : 1 + nnz]:
        r_s, c_s, v_s = line.split()
        r, c, v = int(r_s) - 1, int(c_s) - 1, float(v_s)
        rows.append(r)
        cols.append(c)
        vals.append(v)
        if symmetric and r != c:
            rows.append(c)
            cols.append(r)
            vals.append(v)
    if len(body) - 1 != nnz:
        raise ValueError("entry count does not match header")
    return CSCMatrix.from_coo(
        (nrows, ncols), rows, cols, vals, sum_duplicates=False
    )


def read_qps(path: str | Path) -> QPProblem:
    """Read a QP in QPS format (the Maros–Mészáros convention).

    Supported sections: ``NAME``, ``ROWS`` (N/L/G/E), ``COLUMNS``,
    ``RHS``, ``RANGES``, ``BOUNDS`` (UP/LO/FX/FR/MI/PL/BV excluded —
    only continuous bound types), ``QUADOBJ``/``QMATRIX``, ``ENDATA``.
    The QPS objective is ``(1/2)xᵀQx + cᵀx``; QUADOBJ stores the lower
    triangle of ``Q``.

    Constraint rows become ``l ≤ Ax ≤ u`` rows; finite variable bounds
    are appended as identity rows (the OSQP convention).
    """
    lines = Path(path).read_text().splitlines()
    section = ""
    name = "qps"
    row_kind: dict[str, str] = {}
    row_order: list[str] = []
    obj_row: str | None = None
    col_order: list[str] = []
    col_index: dict[str, int] = {}
    a_entries: list[tuple[str, str, float]] = []  # (row, col, value)
    c_lin: dict[str, float] = {}
    rhs: dict[str, float] = {}
    ranges: dict[str, float] = {}
    q_entries: list[tuple[str, str, float]] = []
    lower_bound: dict[str, float] = {}
    upper_bound: dict[str, float] = {}

    for raw in lines:
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if not raw[0].isspace():
            tokens = raw.split()
            section = tokens[0].upper()
            if section == "NAME" and len(tokens) > 1:
                name = tokens[1]
            if section == "ENDATA":
                break
            continue
        tokens = raw.split()
        if section == "ROWS":
            kind, row = tokens[0].upper(), tokens[1]
            if kind == "N":
                if obj_row is None:
                    obj_row = row
            else:
                row_kind[row] = kind
                row_order.append(row)
        elif section == "COLUMNS":
            col = tokens[0]
            if col not in col_index:
                col_index[col] = len(col_order)
                col_order.append(col)
            for rname, value in zip(tokens[1::2], tokens[2::2]):
                v = float(value)
                if rname == obj_row:
                    c_lin[col] = c_lin.get(col, 0.0) + v
                else:
                    a_entries.append((rname, col, v))
        elif section == "RHS":
            for rname, value in zip(tokens[1::2], tokens[2::2]):
                if rname != obj_row:
                    rhs[rname] = float(value)
        elif section == "RANGES":
            for rname, value in zip(tokens[1::2], tokens[2::2]):
                ranges[rname] = float(value)
        elif section == "BOUNDS":
            btype = tokens[0].upper()
            col = tokens[2]
            value = float(tokens[3]) if len(tokens) > 3 else 0.0
            if btype == "UP":
                upper_bound[col] = value
            elif btype == "LO":
                lower_bound[col] = value
            elif btype == "FX":
                lower_bound[col] = value
                upper_bound[col] = value
            elif btype == "FR":
                lower_bound[col] = -OSQP_INFTY
            elif btype == "MI":
                lower_bound[col] = -OSQP_INFTY
            elif btype == "PL":
                upper_bound[col] = OSQP_INFTY
            else:
                raise ValueError(f"unsupported bound type {btype!r}")
        elif section in ("QUADOBJ", "QMATRIX"):
            c1, c2, value = tokens[0], tokens[1], float(tokens[2])
            q_entries.append((c1, c2, value))
        elif section in ("NAME", "OBJSENSE"):
            continue
        else:
            raise ValueError(f"unsupported QPS section {section!r}")

    if obj_row is None:
        raise ValueError("QPS file has no objective (N) row")
    n = len(col_order)
    m_rows = len(row_order)
    row_index = {r: i for i, r in enumerate(row_order)}

    # Constraint matrix and row bounds.
    ar = [row_index[r] for r, _, _ in a_entries]
    ac = [col_index[c] for _, c, _ in a_entries]
    av = [v for _, _, v in a_entries]
    l = np.empty(m_rows)
    u = np.empty(m_rows)
    for r in row_order:
        i = row_index[r]
        b = rhs.get(r, 0.0)
        kind = row_kind[r]
        if kind == "E":
            l[i] = u[i] = b
        elif kind == "L":
            l[i], u[i] = -OSQP_INFTY, b
        elif kind == "G":
            l[i], u[i] = b, OSQP_INFTY
        else:  # pragma: no cover - ROWS parsing restricts kinds
            raise ValueError(f"unknown row kind {kind!r}")
        if r in ranges:
            rng_v = abs(ranges[r])
            if kind == "L":
                l[i] = u[i] - rng_v
            elif kind == "G":
                u[i] = l[i] + rng_v
            else:  # E row: range widens per MPS convention
                u[i] = l[i] + rng_v

    # Variable bounds as identity rows (QPS default: x >= 0).
    box_lo = np.array(
        [lower_bound.get(c, 0.0) for c in col_order], dtype=np.float64
    )
    box_hi = np.array(
        [upper_bound.get(c, OSQP_INFTY) for c in col_order], dtype=np.float64
    )
    ar += [m_rows + j for j in range(n)]
    ac += list(range(n))
    av += [1.0] * n
    a = CSCMatrix.from_coo((m_rows + n, n), ar, ac, av)
    l_full = np.concatenate([l, box_lo])
    u_full = np.concatenate([u, box_hi])

    # Quadratic objective: QUADOBJ stores the lower triangle of Q with
    # (1/2)x'Qx convention — exactly the standard form's P.
    pr = [col_index[c1] for c1, _, _ in q_entries]
    pc = [col_index[c2] for _, c2, _ in q_entries]
    pv = [v for _, _, v in q_entries]
    # Mirror off-diagonal entries into the full symmetric matrix.
    rows_full, cols_full, vals_full = [], [], []
    for r, c, v in zip(pr, pc, pv):
        rows_full.append(r)
        cols_full.append(c)
        vals_full.append(v)
        if r != c:
            rows_full.append(c)
            cols_full.append(r)
            vals_full.append(v)
    p = CSCMatrix.from_coo((n, n), rows_full, cols_full, vals_full)
    q = np.array([c_lin.get(c, 0.0) for c in col_order], dtype=np.float64)
    return QPProblem(p=p, q=q, a=a, l=l_full, u=u_full, name=name)


def _matrix_to_obj(matrix: CSCMatrix) -> dict:
    rows, cols, vals = matrix.to_coo()
    return {
        "shape": list(matrix.shape),
        "rows": rows.tolist(),
        "cols": cols.tolist(),
        "values": vals.tolist(),
    }


def _integer_array(seq, what: str) -> np.ndarray:
    """A wire index list as an int64 array, refusing what ``int64``
    conversion would silently coerce: a float truncates, a numeric
    string parses, and a boolean becomes 0 or 1."""
    arr = np.asarray(seq)
    if (
        arr.ndim != 1
        or (arr.size and arr.dtype.kind != "i")
        # numpy folds [0, true] into int64: a bool needs its own test.
        or bool in map(type, seq)
    ):
        raise ValueError(f"{what} must be a list of JSON integers")
    return arr.astype(np.int64, copy=False)


def _matrix_from_obj(obj: dict) -> CSCMatrix:
    shape = _integer_array(obj["shape"], "shape")
    if shape.size != 2:
        raise ValueError("shape must have two entries")
    return CSCMatrix.from_coo(
        (int(shape[0]), int(shape[1])),
        _integer_array(obj["rows"], "rows"),
        _integer_array(obj["cols"], "cols"),
        obj["values"],
        sum_duplicates=False,
    )


def problem_to_dict(problem: QPProblem) -> dict:
    """The ``repro-qp-v1`` JSON document form of a QP.

    This is the wire encoding of the serve layer's ``POST /v1/solve``
    payloads as well as the on-disk format of :func:`save_problem`;
    infinite bounds are encoded as the strings ``"inf"``/``"-inf"``
    (JSON has no infinity literal).
    """
    return {
        "format": "repro-qp-v1",
        "name": problem.name,
        "P": _matrix_to_obj(problem.p_upper),
        "q": problem.q.tolist(),
        "A": _matrix_to_obj(problem.a),
        "l": encode_bounds(problem.l),
        "u": encode_bounds(problem.u),
    }


def _checked(problem: QPProblem) -> QPProblem:
    """The decode boundary's value check.  :class:`QPProblem` rejects
    NaN in ``q``/``l``/``u`` and ``l > u``; a decoded document can
    still carry ``"inf"`` in ``q``, a non-finite matrix entry or a
    bound that is a true infinity on the wrong side (the ``"inf"``
    encoding decodes to the finite ``OSQP_INFTY``), which ADMM iterates
    on to NaN until ``max_iter`` instead of failing."""
    for name, values in (
        ("q", problem.q), ("P", problem.p.data), ("A", problem.a.data)
    ):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} has a non-finite entry")
    if np.isposinf(problem.l).any() or np.isneginf(problem.u).any():
        raise ValueError("a lower bound is +inf or an upper bound is -inf")
    return problem


def _no_lower_entry(matrix: CSCMatrix) -> bool:
    """True when no stored entry lies below the diagonal."""
    cols = np.repeat(
        np.arange(matrix.shape[1], dtype=np.int64), np.diff(matrix.indptr)
    )
    return bool((matrix.indices <= cols).all())


def problem_from_dict(doc: dict) -> QPProblem:
    """Rebuild a QP from its ``repro-qp-v1`` document form.

    The wire form stores ``P``'s upper triangle, so a decoded ``P``
    usually *is* its upper triangle: it is then installed as its own
    :attr:`~repro.solver.QPProblem.p_upper` instead of being rebuilt
    (``from_coo`` output is canonical, so the rebuild would be bitwise
    ``P``).
    """
    if doc.get("format") != "repro-qp-v1":
        raise ValueError("unrecognized problem file format")
    p = _matrix_from_obj(doc["P"])
    problem = _checked(
        QPProblem(
            p=p,
            q=np.asarray(doc["q"], dtype=np.float64),
            a=_matrix_from_obj(doc["A"]),
            l=decode_bounds(doc["l"]),
            u=decode_bounds(doc["u"]),
            name=doc.get("name", "qp"),
        )
    )
    if _no_lower_entry(p):
        problem.adopt_p_forms(p_upper=p)
    return problem


def problem_with_values(
    base: QPProblem,
    *,
    q=None,
    l=None,
    u=None,
    a_data=None,
    p_data=None,
) -> QPProblem:
    """A same-pattern variant of ``base`` with some values replaced.

    The materialization step behind ``/v1/sequence`` and
    ``/v1/scenarios`` step overrides: every field left ``None``
    *shares* the base's array object, so an override that only touches
    ``q``/``l``/``u`` keeps the matrix value arrays bitwise identical
    to the base — exactly the condition the solver's delta-bind fast
    path tests for.  ``p_data`` replaces the non-zeros of the **upper
    triangle** of ``P`` in canonical CSC order (the wire convention);
    ``a_data`` likewise replaces ``A``'s non-zeros.  Index arrays are
    pattern constants and always shared.
    """
    p_upper = base.p_upper
    if p_data is None:
        p = p_upper
    else:
        p_data = np.asarray(p_data, dtype=np.float64)
        if p_data.size != p_upper.nnz:
            raise ValueError(
                f"p_data has {p_data.size} values, pattern has "
                f"{p_upper.nnz} non-zeros"
            )
        p = CSCMatrix(
            p_upper.shape, p_upper.indptr, p_upper.indices, p_data,
            check=False,
        )
    if a_data is None:
        a = base.a
    else:
        a_data = np.asarray(a_data, dtype=np.float64)
        if a_data.size != base.a.nnz:
            raise ValueError(
                f"a_data has {a_data.size} values, pattern has "
                f"{base.a.nnz} non-zeros"
            )
        a = CSCMatrix(
            base.a.shape, base.a.indptr, base.a.indices, a_data, check=False
        )

    def vector(override, current: np.ndarray, name: str) -> np.ndarray:
        if override is None:
            return current
        arr = np.asarray(override, dtype=np.float64)
        if arr.shape != current.shape:
            raise ValueError(
                f"{name} override has shape {arr.shape}, "
                f"expected {current.shape}"
            )
        return arr

    # ``p`` is the base's canonical upper triangle, or its pattern with
    # new values: already its own upper triangle.
    return _checked(
        QPProblem(
            p=p,
            q=vector(q, base.q, "q"),
            a=a,
            l=vector(l, base.l, "l"),
            u=vector(u, base.u, "u"),
            name=base.name,
        )
    ).adopt_p_forms(p_upper=p)


def save_problem(problem: QPProblem, path: str | Path) -> Path:
    """Serialize a QP to a JSON document (infinities encoded)."""
    path = Path(path)
    path.write_text(json.dumps(problem_to_dict(problem)))
    return path


def load_problem(path: str | Path) -> QPProblem:
    """Load a QP saved by :func:`save_problem`."""
    return problem_from_dict(json.loads(Path(path).read_text()))
