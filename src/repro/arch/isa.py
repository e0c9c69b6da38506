"""Two-level instruction set (Section III-D, Table I).

*Top-level* instructions operate on whole vectors/matrices and execute
sequentially; the ``net_compute`` top-level instruction names a
pre-scheduled *network program* — a stream of low-level network
instructions (:class:`NetOp`) that configure every node of the
butterfly per cycle.

A :class:`NetOp` is one logical network instruction before multi-issue:
it records its register-file reads/writes, its streamed coefficients
(matrix non-zeros fetched from HBM, bound by name at run time so one
compiled program serves every problem instance with the same sparsity
pattern), its routing lanes, and the node-occupancy bitmask the
scheduler bin-packs (Section IV-B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "BINARY_EWISE_FNS",
    "Location",
    "OpKind",
    "NetOp",
    "StreamRef",
    "TopOpcode",
    "TopInstruction",
    "EwiseFn",
]


class Location(NamedTuple):
    """An addressable word.

    ``space`` is one of:

    * ``"rf"`` — register-file banks (structural port limits apply);
    * ``"lbuf"`` — the factor-value buffer written during numeric
      factorization and consumed as coefficients (data deps only);
    * ``"scalar"`` — the scalar side registers (data deps only);
    * ``"hbm"`` — result words streamed back to HBM by ``write_vec``.
    """

    space: str
    bank: int
    addr: int


class OpKind(enum.Enum):
    """Low-level network instruction kinds (Fig. 6)."""

    MAC = "mac"  # multi-source reduction into one destination
    COLELIM = "colelim"  # single-source broadcast, per-dest coefficients
    PERMUTE = "permute"  # point-to-point routes (incl. HBM loads/stores)
    EWISE = "ewise"  # full-width element-wise vector operation
    SCALAR = "scalar"  # scalar side-operation (reciprocal, fused mul-sub)


class StreamRef(NamedTuple):
    """Reference to coefficients streamed from HBM at run time.

    ``name`` selects a stream buffer (e.g. ``"A"`` for the constraint
    matrix values, ``"L"`` for factor values); ``indices`` picks the
    words.  Binding by name keeps the compiled program valid for every
    numeric instance that shares the sparsity pattern.
    """

    name: str
    indices: np.ndarray


class EwiseFn(enum.Enum):
    """Element-wise vector functions supported by the EWISE kind."""

    SET = "set"  # out = stream/imm
    ADD = "add"  # out = a + b
    SUB = "sub"  # out = a - b
    MUL = "mul"  # out = a * b
    AXPBY = "axpby"  # out = s0*a + s1*b
    SCALE = "scale"  # out = s0*a
    RECIP = "recip"  # out = 1/a
    CLIP = "clip"  # out = min(max(a, lo_stream), hi_stream)
    COPY = "copy"  # out = a
    STREAM_MUL = "stream_mul"  # out = a * stream (unary: 2nd operand from HBM)
    STREAM_AXPY = "stream_axpy"  # out = a + s0 * stream
    FACTOR_FIN = "factor_fin"  # scalar: l = y*dinv to lbuf, d -= y²·dinv


# Two-operand EWISE functions: they stream the second operand through
# the staging port and double-pump (two issue slots, held RF ports).
BINARY_EWISE_FNS = frozenset(
    {EwiseFn.ADD, EwiseFn.SUB, EwiseFn.MUL, EwiseFn.AXPBY}
)


@dataclass
class NetOp:
    """One logical network instruction.

    Attributes
    ----------
    kind:
        Primitive pattern (selects routing/occupancy semantics).
    reads:
        Operand reads.  The register-file ports they take are
        :func:`repro.arch.simulator.op_ports`: one port per bank, and
        at most one read of a bank per one-cycle op (a double-pumped
        binary EWISE op streams its second operand block through the
        staging port).
    writes:
        ``(location, accumulate)`` pairs; ``accumulate`` adds into the
        stored word (the read-modify-write port used by column
        elimination and partial-sum MAC chunks).
    coeffs:
        Streamed coefficients (HBM): a :class:`StreamRef`, a concrete
        array (immediates), or ``None``.
    coeff_reads:
        Extra data dependencies on produced values (lbuf/scalar reads).
    src_lanes / dst_lanes:
        Routing endpoints used to derive occupancy.
    ewise_fn / scalars:
        EWISE/SCALAR payload.
    tag:
        Human-readable label for diagnostics and Fig. 8-style dumps.
    """

    kind: OpKind
    reads: list[Location] = field(default_factory=list)
    writes: list[tuple[Location, bool]] = field(default_factory=list)
    coeffs: StreamRef | np.ndarray | None = None
    coeff_reads: list[Location] = field(default_factory=list)
    src_lanes: list[int] = field(default_factory=list)
    dst_lanes: list[int] = field(default_factory=list)
    ewise_fn: EwiseFn | None = None
    scalars: tuple[float, ...] = ()
    coeff_scale: float = 1.0  # applied to resolved coefficients (e.g. −1 for
    # the subtractive updates of column elimination / triangular solves)
    tag: str = ""

    def all_read_locations(self) -> list[Location]:
        """Every location whose value this op consumes (data deps)."""
        return list(self.reads) + list(self.coeff_reads)

    def stream_ref(self) -> StreamRef | None:
        """The op's HBM stream reference, if its coefficients are one."""
        return self.coeffs if isinstance(self.coeffs, StreamRef) else None

    def all_write_locations(self) -> list[Location]:
        return [loc for loc, _ in self.writes]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetOp({self.kind.value}, tag={self.tag!r}, "
            f"reads={len(self.reads)}, writes={len(self.writes)})"
        )


class TopOpcode(enum.Enum):
    """Top-level instruction set (Table I of the paper)."""

    NORM_INF = "norm_inf"
    COND_SET = "cond_set"
    EW_RECI = "ew_reci"
    EW_PROD = "ew_prod"
    AXPBY = "axpby"
    SELECT_MIN = "select_min"
    SELECT_MAX = "select_max"
    NET_COMPUTE = "net_compute"
    LOAD_VEC = "load_vec"
    WRITE_VEC = "write_vec"


@dataclass
class TopInstruction:
    """A top-level instruction: opcode plus symbolic operands.

    ``operands`` are interpreter-defined names (vector ids, schedule
    names, scalars); the top-level program is shared across problem
    domains and never recompiled (Section III-D).
    """

    opcode: TopOpcode
    operands: tuple = ()
    comment: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TopInstruction({self.opcode.value}, {self.operands})"
