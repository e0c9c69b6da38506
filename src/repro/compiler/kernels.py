"""Lowering of solver operations to network instructions.

Each top-level operation (Table I) is decomposed into a stream of
logical :class:`~repro.arch.isa.NetOp` network instructions.  The
lowering is *sparsity-pattern specific*: it consults the matrix pattern
(never the values) and emits instructions that reference streamed
coefficients by position, so a compiled program is reused across every
numeric instance sharing the pattern (Section III-D).

The emitted order is the sequential, dependency-satisfying *initial
order* the scheduler starts from; for the factorization this order is
derived from the elimination tree (Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..arch.isa import EwiseFn, Location, NetOp, OpKind, StreamRef
from ..arch.regfile import VectorAllocator, VectorView
from ..arch.topology import Butterfly
from ..linalg import CSCMatrix, SymbolicFactor, postorder
from .matrixview import RowMajorView, l_row_positions

__all__ = ["NetworkProgram", "KernelBuilder"]


@dataclass
class NetworkProgram:
    """A lowered (unscheduled) network program."""

    name: str
    ops: list[NetOp] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def extend(self, ops: Iterable[NetOp]) -> None:
        self.ops.extend(ops)


def _chunk_by_lane(
    items: Sequence, lane_of, c: int
) -> list[list]:
    """Greedily split ``items`` into runs whose lanes are distinct.

    This enforces the one-port-per-bank rule *within* a single network
    instruction; conflicts *between* instructions are the scheduler's
    business.
    """
    chunks: list[list] = []
    current: list = []
    used: set[int] = set()
    for item in items:
        lane = lane_of(item)
        if lane in used or len(current) == c:
            chunks.append(current)
            current = []
            used = set()
        current.append(item)
        used.add(lane)
    if current:
        chunks.append(current)
    return chunks


class KernelBuilder:
    """Builds network programs against a shared register-file layout.

    One builder corresponds to one compiled solver binary: it owns the
    vector allocator (so every kernel agrees on where vectors live) and
    the butterfly geometry.
    """

    def __init__(self, c: int, *, depth: int = 1 << 16) -> None:
        self.c = c
        self.bf = Butterfly(c)
        self.alloc = VectorAllocator(c, depth=depth)

    # ------------------------------------------------------------------
    # vectors
    # ------------------------------------------------------------------
    def vector(self, name: str, length: int) -> VectorView:
        """Allocate (or fetch) a named vector region."""
        if name in self.alloc:
            view = self.alloc.get(name)
            if view.length != length:
                raise ValueError(
                    f"vector {name!r} re-declared with different length"
                )
            return view
        return self.alloc.allocate(name, length)

    def lane_copies(self, view: VectorView) -> list[VectorView]:
        """``view`` followed by ``C − 1`` fresh copies at its rotation.

        One scratch region per network lane for :meth:`factorization`.
        Sharing ``view``'s rotation keeps every copy lane-aligned with
        it, so an instruction that reads a copy beside another vector
        meets the same bank pairing it would with ``view``.
        """
        return [view] + [
            self.alloc.allocate(
                f"{view.name}.{i}", view.length, rotation=view.rotation
            )
            for i in range(1, self.c)
        ]

    # ------------------------------------------------------------------
    # loads / stores / permutations  (PERMUTE kind)
    # ------------------------------------------------------------------
    def _route_groups(
        self, pairs: list[tuple[int, int, object]]
    ) -> list[list[tuple[int, int, object]]]:
        """Split (src_lane, dst_lane, payload) triples into groups that
        can share the butterfly in a single pass."""
        groups: list[list[tuple[int, int, object]]] = []
        current: list[tuple[int, int, object]] = []
        occ = 0
        srcs: set[int] = set()
        dsts: set[int] = set()
        for a, d, payload in pairs:
            add = self.bf.occupancy_permute([(a, d)])
            # Two point-to-point flows carry distinct values, so any
            # shared node is a conflict; so is any shared port.
            if a in srcs or d in dsts or (add & occ):
                groups.append(current)
                current, occ, srcs, dsts = [], 0, set(), set()
            current.append((a, d, payload))
            occ |= add
            srcs.add(a)
            dsts.add(d)
        if current:
            groups.append(current)
        return groups

    def load_vector(
        self,
        view: VectorView,
        stream: str,
        *,
        offset: int = 0,
        tag: str = "",
    ) -> list[NetOp]:
        """``load_vec``: stream ``view.length`` words from HBM into the
        register files through the input alignment network."""
        ops: list[NetOp] = []
        tag = tag or f"load:{view.name}"
        for row in range(view.rows()):
            block = view.block(row)
            pairs = [
                (i % self.c, view.lane(i), i) for i in block
            ]
            for gi, group in enumerate(self._route_groups(pairs)):
                idx = np.array([payload for _, _, payload in group])
                ops.append(
                    NetOp(
                        kind=OpKind.PERMUTE,
                        writes=[(view.location(int(i)), False) for i in idx],
                        coeffs=StreamRef(stream, offset + idx),
                        src_lanes=[a for a, _, _ in group],
                        dst_lanes=[d for _, d, _ in group],
                        tag=f"{tag}.b{row}.{gi}",
                    )
                )
        return ops

    def store_vector(
        self, view: VectorView, *, hbm_base: int = 0, tag: str = ""
    ) -> list[NetOp]:
        """``write_vec``: stream a register-file vector back to HBM."""
        ops: list[NetOp] = []
        tag = tag or f"store:{view.name}"
        for row in range(view.rows()):
            block = view.block(row)
            pairs = [(view.lane(i), i % self.c, i) for i in block]
            for gi, group in enumerate(self._route_groups(pairs)):
                idx = [payload for _, _, payload in group]
                ops.append(
                    NetOp(
                        kind=OpKind.PERMUTE,
                        reads=[view.location(int(i)) for i in idx],
                        writes=[
                            (Location("hbm", 0, hbm_base + int(i)), False)
                            for i in idx
                        ],
                        src_lanes=[a for a, _, _ in group],
                        dst_lanes=[d for _, d, _ in group],
                        tag=f"{tag}.b{row}.{gi}",
                    )
                )
        return ops

    def permute_vector(
        self,
        src: VectorView,
        dst: VectorView,
        perm: np.ndarray,
        *,
        tag: str = "",
    ) -> list[NetOp]:
        """Cross-bank permutation: ``dst[i] = src[perm[i]]``.

        Arbitrary permutations exceed single-pass butterfly capacity,
        so the lowering decomposes them into conflict-free waves.
        """
        if len(perm) != dst.length or src.length != dst.length:
            raise ValueError("permutation length mismatch")
        tag = tag or f"perm:{src.name}->{dst.name}"
        pairs = [
            (src.lane(int(perm[i])), dst.lane(i), (int(perm[i]), i))
            for i in range(dst.length)
        ]
        ops: list[NetOp] = []
        for gi, group in enumerate(self._route_groups(pairs)):
            ops.append(
                NetOp(
                    kind=OpKind.PERMUTE,
                    reads=[src.location(s) for _, _, (s, _) in group],
                    writes=[(dst.location(d), False) for _, _, (_, d) in group],
                    src_lanes=[a for a, _, _ in group],
                    dst_lanes=[d for _, d, _ in group],
                    tag=f"{tag}.{gi}",
                )
            )
        return ops

    def gather(
        self,
        dst: VectorView,
        dst_indices: Sequence[int],
        src: VectorView,
        src_indices: Sequence[int],
        *,
        tag: str = "",
    ) -> list[NetOp]:
        """General cross-view copy: ``dst[di] = src[si]`` pairwise.

        Used to marshal sub-vectors into the KKT solve buffer through
        the fill-reducing permutation (the ``permutate`` /
        ``inverse_permutate`` schedules of Listing 1).
        """
        if len(dst_indices) != len(src_indices):
            raise ValueError("index list length mismatch")
        tag = tag or f"gather:{src.name}->{dst.name}"
        pairs = [
            (src.lane(int(s)), dst.lane(int(d)), (int(s), int(d)))
            for s, d in zip(src_indices, dst_indices)
        ]
        ops: list[NetOp] = []
        for gi, group in enumerate(self._route_groups(pairs)):
            ops.append(
                NetOp(
                    kind=OpKind.PERMUTE,
                    reads=[src.location(s) for _, _, (s, _) in group],
                    writes=[(dst.location(d), False) for _, _, (_, d) in group],
                    src_lanes=[a for a, _, _ in group],
                    dst_lanes=[d for _, d, _ in group],
                    tag=f"{tag}.{gi}",
                )
            )
        return ops

    # ------------------------------------------------------------------
    # element-wise vector operations (EWISE kind)
    # ------------------------------------------------------------------
    def _ewise_blocks(
        self,
        fn: EwiseFn,
        out: VectorView,
        a: VectorView | None = None,
        b: VectorView | None = None,
        *,
        scalars: tuple[float, ...] = (),
        stream: str | None = None,
        stream_offset: int = 0,
        stream_stride: int = 1,
        tag: str = "",
    ) -> list[NetOp]:
        ops: list[NetOp] = []
        for row in range(out.rows()):
            block = out.block(row)
            width = len(block)
            reads: list[Location] = []
            if a is not None:
                reads += [a.location(i) for i in block]
            if b is not None:
                reads += [b.location(i) for i in block]
            coeffs = None
            if stream is not None:
                if fn is EwiseFn.CLIP:
                    idx = np.array(
                        [stream_offset + i for i in block]
                        + [stream_offset + stream_stride + i for i in block]
                    )
                else:
                    idx = np.array([stream_offset + i for i in block])
                coeffs = StreamRef(stream, idx)
            ops.append(
                NetOp(
                    kind=OpKind.EWISE,
                    ewise_fn=fn,
                    reads=reads,
                    writes=[(out.location(i), False) for i in block],
                    coeffs=coeffs,
                    scalars=scalars,
                    tag=f"{tag or fn.value}:{out.name}.b{row}",
                )
            )
        return ops

    def set_zero(self, out: VectorView) -> list[NetOp]:
        """``cond_set`` to zero (used before accumulating SpMV chunks)."""
        ops: list[NetOp] = []
        for row in range(out.rows()):
            block = out.block(row)
            ops.append(
                NetOp(
                    kind=OpKind.EWISE,
                    ewise_fn=EwiseFn.SET,
                    writes=[(out.location(i), False) for i in block],
                    coeffs=np.zeros(len(block)),
                    tag=f"zero:{out.name}.b{row}",
                )
            )
        return ops

    def set_from_stream(self, out: VectorView, stream: str, *, offset: int = 0):
        """``cond_set`` from an HBM stream (constants, bounds, q...)."""
        return self._ewise_blocks(
            EwiseFn.SET, out, stream=stream, stream_offset=offset
        )

    def axpby(self, out, a, b, s0: float, s1: float):
        """``axpby``: out = s0·a + s1·b."""
        return self._ewise_blocks(EwiseFn.AXPBY, out, a, b, scalars=(s0, s1))

    def ew_prod(self, out, a, b):
        """``ew_prod``: out = a ⊙ b."""
        return self._ewise_blocks(EwiseFn.MUL, out, a, b)

    def ew_add(self, out, a, b):
        return self._ewise_blocks(EwiseFn.ADD, out, a, b)

    def ew_sub(self, out, a, b):
        return self._ewise_blocks(EwiseFn.SUB, out, a, b)

    def ew_recip(self, out, a):
        """``ew_reci``: out = 1 / a."""
        return self._ewise_blocks(EwiseFn.RECIP, out, a)

    def ew_copy(self, out, a):
        return self._ewise_blocks(EwiseFn.COPY, out, a)

    def ew_scale(self, out, a, s0: float):
        return self._ewise_blocks(EwiseFn.SCALE, out, a, scalars=(s0,))

    def stream_mul(self, out, a, stream: str, *, offset: int = 0):
        """out = a ⊙ stream (diagonal scaling, 1/ρ multiplies, D-solve)."""
        return self._ewise_blocks(
            EwiseFn.STREAM_MUL, out, a, stream=stream, stream_offset=offset
        )

    def stream_axpy(self, out, a, stream: str, s0: float, *, offset: int = 0):
        """out = a + s0·stream."""
        return self._ewise_blocks(
            EwiseFn.STREAM_AXPY,
            out,
            a,
            scalars=(s0,),
            stream=stream,
            stream_offset=offset,
        )

    def clip(self, out, a, stream: str, *, length: int):
        """``select_min``/``select_max`` pair: out = clamp(a, lo, hi)
        with ``lo = stream[0:len]``, ``hi = stream[len:2len]``."""
        return self._ewise_blocks(
            EwiseFn.CLIP, out, a, stream=stream, stream_stride=length
        )

    # ------------------------------------------------------------------
    # sparse matrix-vector multiplication
    # ------------------------------------------------------------------
    def spmv(
        self,
        view: RowMajorView,
        x: VectorView,
        y: VectorView,
        stream: str,
        *,
        tag: str = "spmv",
        zero_first: bool = True,
    ) -> list[NetOp]:
        """``y = M·x`` with the MAC primitive: one reduction per row
        chunk, packed by the scheduler (Section IV-B)."""
        if view.ncols != x.length or view.nrows != y.length:
            raise ValueError("spmv dimension mismatch")
        ops: list[NetOp] = list(self.set_zero(y)) if zero_first else []
        for i in range(view.nrows):
            cols, positions = view.row(i)
            if cols.size == 0:
                continue
            entries = list(zip(cols.tolist(), positions.tolist()))
            for ci, chunk in enumerate(
                _chunk_by_lane(entries, lambda e: x.lane(e[0]), self.c)
            ):
                ops.append(
                    NetOp(
                        kind=OpKind.MAC,
                        reads=[x.location(j) for j, _ in chunk],
                        writes=[(y.location(i), True)],
                        coeffs=StreamRef(
                            stream, np.array([p for _, p in chunk])
                        ),
                        src_lanes=[x.lane(j) for j, _ in chunk],
                        dst_lanes=[y.lane(i)],
                        tag=f"{tag}.r{i}.{ci}",
                    )
                )
        return ops

    def spmv_transpose(
        self,
        view: RowMajorView,
        y: VectorView,
        out: VectorView,
        stream: str,
        *,
        tag: str = "spmvT",
        zero_first: bool = True,
    ) -> list[NetOp]:
        """``out = Mᵀ·y`` with the column-elimination primitive: broadcast
        ``y_i`` across the row-``i`` pattern and scatter-accumulate
        (Section IV-B: Aᵀ uses column elimination)."""
        if view.nrows != y.length or view.ncols != out.length:
            raise ValueError("spmv_transpose dimension mismatch")
        ops: list[NetOp] = list(self.set_zero(out)) if zero_first else []
        for i in range(view.nrows):
            cols, positions = view.row(i)
            if cols.size == 0:
                continue
            entries = list(zip(cols.tolist(), positions.tolist()))
            for ci, chunk in enumerate(
                _chunk_by_lane(entries, lambda e: out.lane(e[0]), self.c)
            ):
                ops.append(
                    NetOp(
                        kind=OpKind.COLELIM,
                        reads=[y.location(i)],
                        writes=[(out.location(j), True) for j, _ in chunk],
                        coeffs=StreamRef(
                            stream, np.array([p for _, p in chunk])
                        ),
                        src_lanes=[y.lane(i)],
                        dst_lanes=[out.lane(j) for j, _ in chunk],
                        tag=f"{tag}.r{i}.{ci}",
                    )
                )
        return ops

    # ------------------------------------------------------------------
    # triangular solves
    # ------------------------------------------------------------------
    def lsolve_columns(
        self, sym: SymbolicFactor, x: VectorView, stream: str = "L"
    ) -> list[NetOp]:
        """Column-based forward solve ``L x = b`` in place (x holds b).

        Column elimination: once ``x_j`` is final, broadcast it down
        column ``j`` of ``L`` and subtract (eqs. (8)–(12))."""
        ops: list[NetOp] = []
        for j in range(sym.n):
            rows = sym.col_pattern(j)
            if rows.size == 0:
                continue
            positions = np.arange(sym.l_indptr[j], sym.l_indptr[j + 1])
            entries = list(zip(rows.tolist(), positions.tolist()))
            for ci, chunk in enumerate(
                _chunk_by_lane(entries, lambda e: x.lane(e[0]), self.c)
            ):
                ops.append(
                    NetOp(
                        kind=OpKind.COLELIM,
                        reads=[x.location(j)],
                        writes=[(x.location(i), True) for i, _ in chunk],
                        coeffs=StreamRef(stream, np.array([p for _, p in chunk])),
                        coeff_scale=-1.0,
                        src_lanes=[x.lane(j)],
                        dst_lanes=[x.lane(i) for i, _ in chunk],
                        tag=f"lsolve.c{j}.{ci}",
                    )
                )
        return ops

    def lsolve_rows(
        self, sym: SymbolicFactor, x: VectorView, stream: str = "L"
    ) -> list[NetOp]:
        """Row-based forward solve ``L x = b`` in place (eq. (7)):
        a sparse dot product (MAC) per row."""
        row_pos = l_row_positions(sym)
        ops: list[NetOp] = []
        for i in range(sym.n):
            lo, hi = sym.row_indptr[i], sym.row_indptr[i + 1]
            cols = sym.row_indices[lo:hi]
            if cols.size == 0:
                continue
            entries = list(zip(cols.tolist(), row_pos[lo:hi].tolist()))
            for ci, chunk in enumerate(
                _chunk_by_lane(entries, lambda e: x.lane(e[0]), self.c)
            ):
                ops.append(
                    NetOp(
                        kind=OpKind.MAC,
                        reads=[x.location(j) for j, _ in chunk],
                        writes=[(x.location(i), True)],
                        coeffs=StreamRef(stream, np.array([p for _, p in chunk])),
                        coeff_scale=-1.0,
                        src_lanes=[x.lane(j) for j, _ in chunk],
                        dst_lanes=[x.lane(i)],
                        tag=f"lsolve.r{i}.{ci}",
                    )
                )
        return ops

    def ltsolve(
        self, sym: SymbolicFactor, x: VectorView, stream: str = "L"
    ) -> list[NetOp]:
        """Backward solve ``Lᵀ x = b`` in place: column ``j`` of ``L``
        is row ``j`` of ``Lᵀ``, consumed as a MAC reduction."""
        ops: list[NetOp] = []
        for j in range(sym.n - 1, -1, -1):
            rows = sym.col_pattern(j)
            if rows.size == 0:
                continue
            positions = np.arange(sym.l_indptr[j], sym.l_indptr[j + 1])
            entries = list(zip(rows.tolist(), positions.tolist()))
            for ci, chunk in enumerate(
                _chunk_by_lane(entries, lambda e: x.lane(e[0]), self.c)
            ):
                ops.append(
                    NetOp(
                        kind=OpKind.MAC,
                        reads=[x.location(i) for i, _ in chunk],
                        writes=[(x.location(j), True)],
                        coeffs=StreamRef(stream, np.array([p for _, p in chunk])),
                        coeff_scale=-1.0,
                        src_lanes=[x.lane(i) for i, _ in chunk],
                        dst_lanes=[x.lane(j)],
                        tag=f"ltsolve.c{j}.{ci}",
                    )
                )
        return ops

    def dsolve(self, x: VectorView, stream: str = "Dinv") -> list[NetOp]:
        """Diagonal solve ``x ⊙= 1/d`` (the D step between L and Lᵀ)."""
        return self.stream_mul(x, x, stream)

    # ------------------------------------------------------------------
    # numeric LDL factorization
    # ------------------------------------------------------------------
    def factorization(
        self,
        sym: SymbolicFactor,
        k_upper_pattern: CSCMatrix,
        *,
        y: Sequence[VectorView],
        d: VectorView,
        dinv: VectorView,
        k_stream: str = "K",
    ) -> list[NetOp]:
        """Numeric up-looking LDLᵀ refactorization as a network program.

        Rows are emitted in elimination-tree postorder — the paper's
        initial-order strategy for OSQP-direct (Section IV-C): the
        postorder satisfies every computation dependency while keeping
        independent subtrees adjacent for the multi-issue packer.

        ``y`` holds the scratch row accumulators, used round-robin over
        the postorder rows: neighbouring rows build in different
        storage, so independent subtrees overlap instead of waiting on
        each other's reads and writes of one accumulator
        (:meth:`lane_copies` gives one per lane).

        Per row ``k``: load column ``k`` of the (upper) KKT matrix into
        its scratch accumulator, run one column-elimination instruction
        per already-computed column in the row pattern, finalize each
        ``l_kj`` (scalar fused multiply) and take the pivot reciprocal.
        Factor values live in the L-buffer and are consumed as
        coefficients by later instructions (data dependencies the
        scheduler tracks through lbuf locations).
        """
        if sym.n != k_upper_pattern.ncols:
            raise ValueError("symbolic factor does not match matrix")
        scratch = list(y)
        if not scratch or min(v.length for v in (*scratch, d, dinv)) < sym.n:
            raise ValueError("scratch vectors too short")
        ops: list[NetOp] = []
        order = postorder(sym.parent)
        for r, k in enumerate(order.tolist()):
            y = scratch[r % len(scratch)]
            rows, _ = k_upper_pattern.col(k)
            positions = np.arange(
                k_upper_pattern.indptr[k], k_upper_pattern.indptr[k + 1]
            )
            # Scatter column k of K into the scratch row accumulator
            # (and its diagonal into d[k]).
            load_pairs: list[tuple[int, int, tuple[Location, int]]] = []
            k_rows: set[int] = set()
            diag_seen = False
            for i, p in zip(rows.tolist(), positions.tolist()):
                if i == k:
                    loc, lane = d.location(k), d.lane(k)
                    diag_seen = True
                elif i < k:
                    loc, lane = y.location(i), y.lane(i)
                    k_rows.add(i)
                else:
                    raise ValueError("matrix is not upper triangular")
                load_pairs.append((p % self.c, lane, (loc, p)))
            for ci, group in enumerate(self._route_groups(load_pairs)):
                ops.append(
                    NetOp(
                        kind=OpKind.PERMUTE,
                        writes=[(loc, False) for _, _, (loc, _) in group],
                        coeffs=StreamRef(
                            k_stream, np.array([p for _, _, (_, p) in group])
                        ),
                        src_lanes=[a for a, _, _ in group],
                        dst_lanes=[lane for _, lane, _ in group],
                        tag=f"factor.load{k}.{ci}",
                    )
                )
            # Scratch positions in the symbolic row pattern with no
            # matching K entry must be (re-)zeroed: the reference
            # algorithm clears each y slot as it consumes it, so stale
            # values from earlier rows would otherwise leak in.
            pattern = sym.row_pattern(k)
            zero_locs = [
                y.location(j) for j in pattern.tolist() if j not in k_rows
            ]
            if not diag_seen:
                zero_locs.append(d.location(k))
            for ci, chunk in enumerate(
                _chunk_by_lane(zero_locs, lambda loc: loc.bank, self.c)
            ):
                ops.append(
                    NetOp(
                        kind=OpKind.PERMUTE,
                        writes=[(loc, False) for loc in chunk],
                        coeffs=np.zeros(len(chunk)),
                        src_lanes=[loc.bank for loc in chunk],
                        dst_lanes=[loc.bank for loc in chunk],
                        tag=f"factor.zero{k}.{ci}",
                    )
                )
            # Column updates along the symbolic row pattern.
            for j in pattern.tolist():
                col_rows = sym.col_pattern(j)
                cut = int(np.searchsorted(col_rows, k))
                upd_rows = col_rows[:cut]
                upd_pos = np.arange(sym.l_indptr[j], sym.l_indptr[j] + cut)
                if upd_rows.size:
                    entries = list(zip(upd_rows.tolist(), upd_pos.tolist()))
                    for ci, chunk in enumerate(
                        _chunk_by_lane(entries, lambda e: y.lane(e[0]), self.c)
                    ):
                        ops.append(
                            NetOp(
                                kind=OpKind.COLELIM,
                                reads=[y.location(j)],
                                writes=[
                                    (y.location(i), True) for i, _ in chunk
                                ],
                                coeff_reads=[
                                    Location("lbuf", 0, int(p)) for _, p in chunk
                                ],
                                coeff_scale=-1.0,
                                src_lanes=[y.lane(j)],
                                dst_lanes=[y.lane(i) for i, _ in chunk],
                                tag=f"factor.upd{k}.{j}.{ci}",
                            )
                        )
                # Finalize l_kj and fold its pivot contribution into d_k.
                slot = int(sym.l_indptr[j] + cut)
                if sym.l_indices[slot] != k:  # pragma: no cover - invariant
                    raise AssertionError("L slot bookkeeping broke")
                ops.append(
                    NetOp(
                        kind=OpKind.SCALAR,
                        ewise_fn=EwiseFn.FACTOR_FIN,
                        reads=[y.location(j), dinv.location(j)],
                        writes=[
                            (Location("lbuf", 0, slot), False),
                            (d.location(k), True),
                        ],
                        tag=f"factor.fin{k}.{j}",
                    )
                )
            # Pivot reciprocal for later rows (and the eventual D-solve).
            ops.append(
                NetOp(
                    kind=OpKind.SCALAR,
                    ewise_fn=EwiseFn.RECIP,
                    reads=[d.location(k)],
                    writes=[(dinv.location(k), False)],
                    tag=f"factor.recip{k}",
                )
            )
        return ops
