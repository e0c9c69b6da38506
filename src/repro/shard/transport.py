"""The shard value codec: one request's numbers as raw float64 bytes.

The sharded serve tier's data plane.  Patterns are cached shard-side
(the worker keeps one *skeleton* problem per fingerprint), so the only
thing that moves per request is the numeric payload — ``q``, ``l``,
``u`` and the non-zero values of ``P`` (upper triangle, wire
convention) and ``A``.  Those are packed as raw little-endian float64
into one ``bytes`` blob per instance, and the blobs ride the shard's
pipe inside the request's ``submit`` message.

Raw float64 is also the correctness seam: every value round-trips
**bit-exactly** (±inf included — no JSON encoding on the hot path), so
a sharded solve is bit-identical to an in-process solve of the same
request.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..linalg import CSCMatrix
from ..solver import QPProblem

__all__ = [
    "ShardValues",
    "pack_values",
    "unpack_values",
    "rebuild_problem",
]

_MAGIC = b"MIBS"
_VERSION = 1
# magic, version, n, m, p_nnz, a_nnz
_HEADER = struct.Struct("<4sIQQQQ")


@dataclass(frozen=True)
class ShardValues:
    """One request's numeric payload, decoded (arrays own their data)."""

    q: np.ndarray
    l: np.ndarray
    u: np.ndarray
    p_data: np.ndarray  # upper-triangle non-zeros of P (wire convention)
    a_data: np.ndarray

    @property
    def nbytes(self) -> int:
        return _HEADER.size + 8 * (
            self.q.size + self.l.size + self.u.size
            + self.p_data.size + self.a_data.size
        )


def packed_size(problem: QPProblem) -> int:
    """Bytes :func:`pack_values` will produce for ``problem``."""
    return _HEADER.size + 8 * (
        problem.n + 2 * problem.m + problem.p_upper.nnz + problem.a.nnz
    )


def pack_values(problem: QPProblem) -> bytes:
    """Encode a problem's numeric values (pattern stays shard-side).

    ``P`` values are the **upper triangle** non-zeros in canonical CSC
    order — the same convention as the ``repro-qp-v1`` wire document,
    so the payload matches the skeleton a worker rebuilt from the
    registration document regardless of whether the sender stored
    ``P`` full or upper-triangular.
    """
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        problem.n,
        problem.m,
        problem.p_upper.nnz,
        problem.a.nnz,
    )
    parts = [
        header,
        np.ascontiguousarray(problem.q, dtype="<f8").tobytes(),
        np.ascontiguousarray(problem.l, dtype="<f8").tobytes(),
        np.ascontiguousarray(problem.u, dtype="<f8").tobytes(),
        np.ascontiguousarray(problem.p_upper.data, dtype="<f8").tobytes(),
        np.ascontiguousarray(problem.a.data, dtype="<f8").tobytes(),
    ]
    return b"".join(parts)


def unpack_values(buf: bytes | memoryview) -> ShardValues:
    """Decode a packed payload into owned arrays.

    The returned arrays are **copies**: they never alias ``buf``, so a
    caller may reuse or scribble over its buffer after decoding, and the
    solver gets writable native-endian arrays.
    """
    view = memoryview(buf)
    if len(view) < _HEADER.size:
        raise ValueError("payload shorter than the value header")
    magic, version, n, m, p_nnz, a_nnz = _HEADER.unpack_from(view, 0)
    if magic != _MAGIC:
        raise ValueError(f"bad value-payload magic {magic!r}")
    if version != _VERSION:
        raise ValueError(f"unsupported value-payload version {version}")
    need = _HEADER.size + 8 * (n + 2 * m + p_nnz + a_nnz)
    if len(view) < need:
        raise ValueError(
            f"truncated value payload: need {need} bytes, have {len(view)}"
        )
    offset = _HEADER.size

    def take(count: int) -> np.ndarray:
        nonlocal offset
        arr = np.frombuffer(view, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        # .copy() detaches from ``buf`` (see docstring) and yields a
        # native-endian owned array.
        return arr.astype(np.float64, copy=True)

    return ShardValues(
        q=take(n), l=take(m), u=take(m), p_data=take(p_nnz), a_data=take(a_nnz)
    )


def rebuild_problem(skeleton: QPProblem, values: ShardValues) -> QPProblem:
    """A fresh numeric instance of ``skeleton``'s pattern.

    The skeleton is the problem the front-end registered for this
    fingerprint (wire form: ``P`` stored upper-triangular), so its CSC
    index structure is exactly the order the packed values follow.
    Index arrays are shared with the skeleton — they are pattern
    constants — and only the value arrays are new.
    """
    if values.q.size != skeleton.n or values.l.size != skeleton.m:
        raise ValueError(
            f"value payload sized for n={values.q.size}/m={values.l.size}, "
            f"skeleton has n={skeleton.n}/m={skeleton.m}"
        )
    p_upper = skeleton.p_upper
    if values.p_data.size != p_upper.nnz or values.a_data.size != skeleton.a.nnz:
        raise ValueError("value payload nnz does not match the skeleton")
    p = CSCMatrix(
        p_upper.shape, p_upper.indptr, p_upper.indices, values.p_data,
        check=False,
    )
    a = CSCMatrix(
        skeleton.a.shape, skeleton.a.indptr, skeleton.a.indices,
        values.a_data, check=False,
    )
    return QPProblem(
        p=p, q=values.q, a=a, l=values.l, u=values.u, name=skeleton.name
    )
