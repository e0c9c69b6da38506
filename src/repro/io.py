"""Problem and matrix I/O.

Sparse matrices use the MatrixMarket coordinate format (the lingua
franca of QP benchmark collections such as Maros–Mészáros), and whole
QP problems round-trip through a single JSON document embedding the
matrices in coordinate form.  Pure standard library + numpy.

A known pattern's *values* also travel alone, in the MIBS codec: one
instance's ``q``, ``l``, ``u`` and the non-zeros of ``P`` (upper
triangle) and ``A`` as raw little-endian float64 behind a fixed
header (:func:`pack_values` / :func:`unpack_values`), decoded against a
:class:`Skeleton` — the pattern's structure without its numbers —
into a full :class:`~repro.solver.QPProblem` (:func:`rebuild_problem`).
The serve layer's values-only request bodies and the shard tier's
pipe both speak it.  Raw float64 round-trips every value bit-exactly
(±inf included), so a rebuilt instance is bitwise the one its sender
packed.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .linalg import CSCMatrix
from .solver import OSQP_INFTY, QPProblem

__all__ = [
    "PackedValues",
    "Skeleton",
    "decode_bounds",
    "encode_bounds",
    "iter_blobs",
    "pack_values",
    "rebuild_problem",
    "rebuild_problems",
    "unpack_values",
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


# ----------------------------------------------------------------------
# MIBS: one instance's values as raw float64
# ----------------------------------------------------------------------
_MAGIC = b"MIBS"
_VERSION = 1
# magic, version, n, m, p_nnz, a_nnz
_HEADER = struct.Struct("<4sIQQQQ")


@dataclass(frozen=True)
class PackedValues:
    """One instance's numeric payload, decoded (arrays own their data)."""

    q: np.ndarray
    l: np.ndarray
    u: np.ndarray
    p_data: np.ndarray  # upper-triangle non-zeros of P (wire convention)
    a_data: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes of the blob this was decoded from."""
        return _HEADER.size + 8 * (
            self.q.size + self.l.size + self.u.size
            + self.p_data.size + self.a_data.size
        )


@dataclass(frozen=True)
class Skeleton:
    """A QP's sparsity pattern without its numbers: the shapes and CSC
    index arrays of ``A`` and of ``P``'s upper triangle, which a packed
    payload's values follow in order."""

    name: str
    p_shape: tuple[int, int]
    p_indptr: np.ndarray
    p_indices: np.ndarray
    a_shape: tuple[int, int]
    a_indptr: np.ndarray
    a_indices: np.ndarray

    @classmethod
    def of(cls, problem: QPProblem) -> "Skeleton":
        """The structure of ``problem`` (index arrays shared, not
        copied: they are pattern constants)."""
        p_upper, a = problem.p_upper, problem.a
        return cls(
            problem.name,
            p_upper.shape, p_upper.indptr, p_upper.indices,
            a.shape, a.indptr, a.indices,
        )


def pack_values(
    problem: QPProblem, *, l=None, u=None, p_data=None, a_data=None
) -> bytes:
    """Encode one instance's values (its pattern stays with the peer).

    ``P`` values are the non-zeros of its **upper triangle** in
    canonical CSC order — the ``repro-qp-v1`` convention, so the blob
    follows the :class:`Skeleton` of the instance's wire document
    whether the sender stored ``P`` full or upper-triangular.  A
    keyword given replaces that array of ``problem`` (as in
    :func:`problem_with_values`).
    """
    arrays = [
        np.ascontiguousarray(v, dtype="<f8")
        for v in (
            problem.q,
            problem.l if l is None else l,
            problem.u if u is None else u,
            problem.p_upper.data if p_data is None else p_data,
            problem.a.data if a_data is None else a_data,
        )
    ]
    header = _HEADER.pack(
        _MAGIC, _VERSION, arrays[0].size, arrays[1].size,
        arrays[3].size, arrays[4].size,
    )
    return b"".join([header, *(arr.tobytes() for arr in arrays)])


def _unpack_at(view: memoryview, offset: int) -> PackedValues:
    """Decode the blob starting at ``offset``; bytes after it are the
    caller's business (its ``nbytes`` says where it ends)."""
    if len(view) - offset < _HEADER.size:
        raise ValueError("payload shorter than the value header")
    magic, version, n, m, p_nnz, a_nnz = _HEADER.unpack_from(view, offset)
    if magic != _MAGIC:
        raise ValueError(f"bad value-payload magic {magic!r}")
    if version != _VERSION:
        raise ValueError(f"unsupported value-payload version {version}")
    need = _HEADER.size + 8 * (n + 2 * m + p_nnz + a_nnz)
    if len(view) - offset < need:
        raise ValueError(
            f"truncated value payload: need {need} bytes, "
            f"have {len(view) - offset}"
        )
    offset += _HEADER.size

    def take(count: int) -> np.ndarray:
        nonlocal offset
        arr = np.frombuffer(view, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        # The copy detaches from the buffer (a caller may reuse it) and
        # yields a native-endian owned array.
        return arr.astype(np.float64, copy=True)

    return PackedValues(
        q=take(n), l=take(m), u=take(m), p_data=take(p_nnz), a_data=take(a_nnz)
    )


def iter_blobs(buf: bytes | memoryview, limit: int) -> Iterator[PackedValues]:
    """Decode a body of 1 to ``limit`` concatenated blobs that tile it
    exactly, one blob at a time: an empty body, a truncated blob,
    trailing bytes or a ``limit + 1``-th blob raise ``ValueError``
    when the walk reaches them."""
    view = memoryview(buf)
    if not view:
        raise ValueError("empty values body")
    offset = count = 0
    while offset < len(view):
        if count == limit:
            raise ValueError(
                f"{len(view) - offset} bytes after the {limit} value "
                f"blob(s) this body may carry"
            )
        values = _unpack_at(view, offset)
        offset += values.nbytes
        count += 1
        yield values


def unpack_values(buf: bytes | memoryview) -> PackedValues:
    """Decode exactly one blob (trailing bytes are an error).

    The returned arrays are **copies**: they never alias ``buf``.
    """
    (values,) = iter_blobs(buf, 1)
    return values


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


def rebuild_problem(
    skeleton: Skeleton, values: PackedValues, like: QPProblem | None = None
) -> QPProblem:
    """A fresh instance of ``skeleton``'s pattern carrying ``values``,
    through the decode boundary's value check — the same
    :class:`~repro.solver.QPProblem` the JSON document of that instance
    decodes to.  Index arrays are shared with the skeleton; only the
    value arrays are new, except that a ``P`` or ``A`` whose values
    are bitwise those of ``like`` (an instance rebuilt on the same
    skeleton) is ``like``'s matrix.
    """
    n, m = skeleton.p_shape[0], skeleton.a_shape[0]
    if values.q.size != n or values.l.size != m:
        raise ValueError(
            f"value payload sized for n={values.q.size}/m={values.l.size}, "
            f"pattern has n={n}/m={m}"
        )
    if (
        values.p_data.size != skeleton.p_indices.size
        or values.a_data.size != skeleton.a_indices.size
    ):
        raise ValueError(
            f"value payload carries {values.p_data.size}/"
            f"{values.a_data.size} P/A non-zeros, pattern has "
            f"{skeleton.p_indices.size}/{skeleton.a_indices.size}"
        )
    if like is not None and _same_bits(values.p_data, like.p.data):
        p = like.p
    else:
        p = CSCMatrix(
            skeleton.p_shape, skeleton.p_indptr, skeleton.p_indices,
            values.p_data, check=False,
        )
    if like is not None and _same_bits(values.a_data, like.a.data):
        a = like.a
    else:
        a = CSCMatrix(
            skeleton.a_shape, skeleton.a_indptr, skeleton.a_indices,
            values.a_data, check=False,
        )
    # ``p`` is the canonical upper triangle: its own ``p_upper``.
    return _checked(
        QPProblem(
            p=p, q=values.q, a=a, l=values.l, u=values.u, name=skeleton.name
        )
    ).adopt_p_forms(p_upper=p)


def rebuild_problems(
    skeleton: Skeleton, blobs: Iterable[PackedValues]
) -> list[QPProblem]:
    """The instances of a stream of blobs, in order, each rebuilt
    :func:`rebuild_problem`-style.  An instance whose ``P`` or ``A``
    values did not move from its predecessor's shares that matrix, as
    instances materialized from JSON overrides share their base's, so
    a many-lane body holds each distinct matrix once."""
    problems: list[QPProblem] = []
    for values in blobs:
        like = problems[-1] if problems else None
        problems.append(rebuild_problem(skeleton, values, like))
    return problems
