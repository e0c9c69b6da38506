"""Cycle-level functional simulator of the MIB network.

Executes a *scheduled* network program (bundles of multi-issued
:class:`~repro.arch.isa.NetOp`, one bundle per clock) while enforcing
exactly the constraints the real pipeline imposes:

* one read and one write port per register-file bank per cycle; a
  binary element-wise operation double-pumps — it occupies two issue
  cycles and holds its nodes and *all* of its read and write ports in
  both (:func:`op_ports`);
* disjoint node occupancy between co-issued instructions;
* pipeline latency — results commit ``log₂C + 3`` cycles after issue,
  and reading a location with an in-flight write raises
  :class:`HazardViolation`.

This module is the one definition of the machine: :func:`op_duration`,
:func:`op_occupancy`, :func:`op_ports` and :data:`SCALAR_UNITS` say
what one instruction takes, and :func:`hazard_walk` is the one check
of a schedule against them.  The scheduler books the same requests,
and the interpreter, the trace lowering and every load of a schedule
run the same walk.  A schedule that executes without a
:class:`HazardViolation` is hazard-free by construction, so the
simulator doubles as the oracle for the compiler's scheduling
correctness (the data the paper's Fig. 8 claims rest on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hbm import HBMModel, StreamBuffers
from .isa import BINARY_EWISE_FNS, EwiseFn, Location, NetOp, OpKind, StreamRef
from .regfile import RegisterFileArray
from .topology import Butterfly

__all__ = [
    "HazardViolation",
    "NetworkSimulator",
    "SCALAR_UNITS",
    "hazard_walk",
    "op_occupancy",
    "op_duration",
    "op_ports",
]

# Scalar side-units next to the network (reciprocals and the fused
# factorization finalize).  Sized so independent elimination-tree
# subtrees can finalize concurrently.
SCALAR_UNITS = 4


class HazardViolation(RuntimeError):
    """A structural or data hazard the schedule failed to avoid."""


def op_duration(op: NetOp) -> int:
    """Issue slots the op occupies (binary EWISE double-pumps)."""
    if op.kind is OpKind.EWISE and op.ewise_fn in BINARY_EWISE_FNS:
        return 2
    return 1


def op_occupancy(op: NetOp, bf: Butterfly) -> int:
    """Node-occupancy bitmask of one op (the bin-packing vector of
    Section IV-B, length C(log₂C + 1) plus one scalar-unit bit)."""
    cached = getattr(op, "_occ", None)
    if cached is not None:
        return cached
    if op.kind is OpKind.MAC:
        occ = bf.occupancy_reduce(op.src_lanes, op.dst_lanes[0])
    elif op.kind is OpKind.COLELIM:
        occ = bf.occupancy_broadcast(op.src_lanes[0], op.dst_lanes)
    elif op.kind is OpKind.PERMUTE:
        occ = bf.occupancy_permute(list(zip(op.src_lanes, op.dst_lanes)))
    elif op.kind is OpKind.EWISE:
        occ = bf.full_mask()
    elif op.kind is OpKind.SCALAR:
        # Scalar side-units are a counted resource (SCALAR_UNITS per
        # cycle), not a routed node — no network occupancy.
        occ = 0
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown op kind {op.kind}")
    op._occ = occ
    return occ


def op_ports(op: NetOp) -> tuple[int, int]:
    """Register-file ports of one op: ``(read_banks, write_banks)`` as
    bank masks (bit ``b`` = bank ``b``'s port).

    The op holds both masks in every cycle of :func:`op_duration`: a
    double-pumped binary EWISE op streams its operands over two cycles
    but keeps all of its read and write ports for both.
    """
    reads = 0
    for loc in op.reads:
        if loc.space == "rf":
            reads |= 1 << loc.bank
    writes = 0
    for loc, _ in op.writes:
        if loc.space == "rf":
            writes |= 1 << loc.bank
    return reads, writes


@dataclass
class SimulationStats:
    """Counters produced by one kernel execution."""

    cycles: int = 0
    instructions: int = 0
    bundles: int = 0
    latency: int = 0
    issue_width_histogram: dict[int, int] = field(default_factory=dict)
    node_cycles_busy: int = 0
    # Host→numpy crossing accounting (observability, not priced):
    # how many host-level dispatches (vectorized numpy calls for a
    # replay, per-op interpreter steps for the oracle) this execution
    # performed, and how many trace phases it advanced through.
    # Excluded from equality: execution modes are bit-identical in
    # results and cycles while differing exactly here, by design.
    host_crossings: int = field(default=0, compare=False)
    phases_executed: int = field(default=0, compare=False)

    @property
    def mean_issue_width(self) -> float:
        return self.instructions / self.bundles if self.bundles else 0.0


def hazard_walk(
    slots: list[list[NetOp]],
    bf: Butterfly,
    extra_latency: int,
    execute: Callable[[NetOp], list[tuple[Location, object, bool]]],
    commit: Callable[[Location, object, bool], None],
) -> SimulationStats:
    """Walk a schedule cycle by cycle and raise :class:`HazardViolation`
    on the first structural or data hazard.

    ``slots[t]`` is the bundle issued at cycle ``t``.  Per cycle the
    walk checks node occupancy, scalar-unit count and register-file
    ports (:func:`op_ports`, held for :func:`op_duration` cycles), and
    that no op reads a location an earlier op's write still has in
    flight.  ``execute(op)`` returns the op's writes as ``(location,
    value, accumulate)`` triples; each is handed to ``commit`` when its
    pipeline latency has elapsed, in issue order within a cycle and in
    ``(commit cycle, program order)`` in the final drain.  The walk
    keeps its own per-cycle state and shares none with the scheduler.
    """
    latency = bf.latency + int(extra_latency)
    # Writes in flight, bucketed by commit cycle (in issue order).
    pending: dict[int, list[tuple[int, Location, object, bool]]] = {}
    # Program-order sequence of every in-flight write, per location:
    # a read only races (RAW) against writes that precede it in
    # program order; overlapping a *later* write (WAR) is legal — the
    # read sees the committed old value.  Drained locations are
    # deleted so the map's size tracks writes in flight, not every
    # location ever touched across a long multi-kernel run.
    in_flight: dict[Location, list[int]] = {}
    # Ports and nodes a double-pumped op holds in a later cycle:
    # cycle -> (read banks, write banks, occupancy).
    held: dict[int, tuple[int, int, int]] = {}
    stats = SimulationStats()
    next_seq = 0

    for t, bundle in enumerate(slots):
        for seq, loc, value, acc in pending.pop(t, ()):
            commit(loc, value, acc)
            lst = in_flight[loc]
            lst.remove(seq)
            if not lst:
                del in_flight[loc]
        if not bundle:
            continue
        read_banks, write_banks, occ_used = held.pop(t, (0, 0, 0))
        scalar_used = 0
        for op in bundle:
            dur = op_duration(op)
            occ = op_occupancy(op, bf)
            if occ & occ_used:
                raise HazardViolation(
                    f"node conflict at cycle {t}: {op.tag or op.kind}"
                )
            occ_used |= occ
            if op.kind is OpKind.SCALAR:
                scalar_used += 1
                if scalar_used > SCALAR_UNITS:
                    raise HazardViolation(
                        f"scalar units oversubscribed at cycle {t}"
                    )
            reads, writes = op_ports(op)
            if dur == 1 and reads.bit_count() != sum(
                loc.space == "rf" for loc in op.reads
            ):
                raise HazardViolation(
                    f"op reads one bank twice at cycle {t}: {op.tag}"
                )
            if reads & read_banks:
                raise HazardViolation(
                    f"read-port conflict at cycle {t}: {op.tag or op.kind}"
                )
            if writes & write_banks:
                raise HazardViolation(
                    f"write-port conflict at cycle {t}: {op.tag or op.kind}"
                )
            read_banks |= reads
            write_banks |= writes
            for u in range(t + 1, t + dur):
                hr, hw, ho = held.get(u, (0, 0, 0))
                held[u] = (hr | reads, hw | writes, ho | occ)
            # Program-order stamp (assigned by the scheduler; falls
            # back to encounter order for hand-built schedules).
            seq = getattr(op, "_seq", None)
            if seq is None:
                seq = next_seq
            next_seq = max(next_seq, seq + 1)
            # Data hazards: reading a word while an *earlier* write to
            # it is still in flight is a true RAW violation.
            for loc in op.all_read_locations():
                lst = in_flight.get(loc)
                if lst and any(s < seq for s in lst):
                    raise HazardViolation(
                        f"RAW hazard at cycle {t} on {loc}: "
                        f"{op.tag or op.kind}"
                    )
            due = pending.setdefault(t + dur - 1 + latency, [])
            for loc, value, acc in execute(op):
                due.append((seq, loc, value, acc))
                in_flight.setdefault(loc, []).append(seq)
            stats.instructions += 1
            stats.node_cycles_busy += occ.bit_count()
        stats.bundles += 1
        width = len(bundle)
        stats.issue_width_histogram[width] = (
            stats.issue_width_histogram.get(width, 0) + 1
        )

    # Drain the pipeline: by commit cycle, then program order.
    for cycle in sorted(pending):
        for _, loc, value, acc in sorted(pending[cycle], key=lambda w: w[0]):
            commit(loc, value, acc)
    stats.cycles = len(slots) + latency
    stats.latency = latency
    return stats


class NetworkSimulator:
    """Functional + cycle-accurate execution of scheduled programs."""

    def __init__(
        self, c: int, *, depth: int = 1 << 16, extra_latency: int = 0
    ) -> None:
        self.bf = Butterfly(c)
        self.c = c
        self.extra_latency = int(extra_latency)
        self.rf = RegisterFileArray(c, depth)
        self.lbuf: dict[int, float] = {}
        self.scalar: dict[int, float] = {}
        self.hbm_out: dict[int, float] = {}
        self.hbm = HBMModel(channels=c)

    # ------------------------------------------------------------------
    # storage helpers
    # ------------------------------------------------------------------
    def read_loc(self, loc: Location) -> float:
        if loc.space == "rf":
            return self.rf.read(loc)
        if loc.space == "lbuf":
            return self.lbuf.get(loc.addr, 0.0)
        if loc.space == "scalar":
            return self.scalar.get(loc.addr, 0.0)
        if loc.space == "hbm":
            return self.hbm_out.get(loc.addr, 0.0)
        raise ValueError(f"unknown space {loc.space}")

    def reset(self, rows: int | None = None) -> None:
        """Clear the simulator's storage and traffic counters.

        ``rows`` bounds the dense register-file rows to zero (pass the
        allocator's ``used_rows``); ``None`` clears the full depth.
        The prefetch scratch region needs no clearing — every scratch
        word is written before it is read, by construction.
        """
        self.rf.data[:, : self.rf.depth if rows is None else rows] = 0.0
        self.rf._overflow.clear()
        self.lbuf.clear()
        self.scalar.clear()
        self.hbm_out.clear()
        self.hbm.words_read = 0
        self.hbm.words_written = 0

    def write_loc(self, loc: Location, value: float, accumulate: bool) -> None:
        if loc.space == "rf":
            self.rf.write(loc, value, accumulate=accumulate)
        elif loc.space == "lbuf":
            base = self.lbuf.get(loc.addr, 0.0) if accumulate else 0.0
            self.lbuf[loc.addr] = base + value
        elif loc.space == "scalar":
            base = self.scalar.get(loc.addr, 0.0) if accumulate else 0.0
            self.scalar[loc.addr] = base + value
        elif loc.space == "hbm":
            base = self.hbm_out.get(loc.addr, 0.0) if accumulate else 0.0
            self.hbm_out[loc.addr] = base + value
            self.hbm.record_write(1)
        else:
            raise ValueError(f"unknown space {loc.space}")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        slots: list[list[NetOp]],
        streams: StreamBuffers | None = None,
    ) -> SimulationStats:
        """Execute a schedule: ``slots[t]`` is the bundle issued at
        cycle ``t``.  Raises :class:`HazardViolation` on any structural
        or data hazard."""
        streams = streams or StreamBuffers()
        stats = hazard_walk(
            slots,
            self.bf,
            self.extra_latency,
            lambda op: self._execute(op, streams),
            self.write_loc,
        )
        # The oracle crosses the host boundary once per instruction
        # (every op is a Python-level dispatch) and once per bundle.
        stats.host_crossings = stats.instructions
        stats.phases_executed = stats.bundles
        return stats

    # ------------------------------------------------------------------
    def _coeff_values(self, op: NetOp, streams: StreamBuffers) -> np.ndarray | None:
        """Resolve streamed coefficients (and account HBM traffic)."""
        if op.coeffs is None:
            if op.coeff_reads:
                vals = np.array(
                    [self.read_loc(loc) for loc in op.coeff_reads], dtype=np.float64
                )
                return vals * op.coeff_scale if op.coeff_scale != 1.0 else vals
            return None
        if isinstance(op.coeffs, StreamRef):
            vals = np.asarray(
                streams.fetch(op.coeffs.name, op.coeffs.indices), dtype=np.float64
            )
            self.hbm.record_read(len(vals))
        else:
            vals = np.asarray(op.coeffs, dtype=np.float64)
            self.hbm.record_read(len(vals))
        return vals * op.coeff_scale if op.coeff_scale != 1.0 else vals

    def _execute(
        self, op: NetOp, streams: StreamBuffers
    ) -> list[tuple[Location, float, bool]]:
        """Compute the op's results (to be committed after the latency)."""
        coeffs = self._coeff_values(op, streams)
        out: list[tuple[Location, float, bool]] = []
        if op.kind is OpKind.MAC:
            if coeffs is not None and len(coeffs) != len(op.reads):
                raise ValueError(f"MAC coefficient count mismatch: {op.tag}")
            # Sequential left-fold in read order — the systolic
            # reduction order, and bit-identical to the trace replay's
            # segmented accumulation (``np.bincount`` adds weights in
            # input order).
            value = 0.0
            if coeffs is None:
                for l in op.reads:
                    value += self.read_loc(l)
            else:
                for w, l in zip(coeffs, op.reads):
                    value += float(w) * self.read_loc(l)
            loc, acc = op.writes[0]
            out.append((loc, value, acc))
        elif op.kind is OpKind.COLELIM:
            src = self.read_loc(op.reads[0])
            weights = coeffs if coeffs is not None else np.ones(len(op.writes))
            if len(weights) != len(op.writes):
                raise ValueError(f"COLELIM coefficient count mismatch: {op.tag}")
            for (loc, acc), w in zip(op.writes, weights):
                out.append((loc, w * src, acc))
        elif op.kind is OpKind.PERMUTE:
            if op.reads:
                values = [self.read_loc(l) for l in op.reads]
                if coeffs is not None:
                    values = [v * c for v, c in zip(values, coeffs)]
            else:  # pure HBM load
                if coeffs is None:
                    raise ValueError(f"load without coefficients: {op.tag}")
                values = list(coeffs)
            if len(values) != len(op.writes):
                raise ValueError(f"PERMUTE width mismatch: {op.tag}")
            for (loc, acc), v in zip(op.writes, values):
                out.append((loc, float(v), acc))
        elif op.kind is OpKind.EWISE:
            out.extend(self._execute_ewise(op, coeffs))
        elif op.kind is OpKind.SCALAR:
            out.extend(self._execute_scalar(op))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown op kind {op.kind}")
        return out

    def _execute_ewise(
        self, op: NetOp, coeffs: np.ndarray | None
    ) -> list[tuple[Location, float, bool]]:
        fn = op.ewise_fn
        width = len(op.writes)
        if fn is EwiseFn.SET:
            if coeffs is None or len(coeffs) != width:
                raise ValueError(f"SET width mismatch: {op.tag}")
            return [
                (loc, float(v), acc) for (loc, acc), v in zip(op.writes, coeffs)
            ]
        a = np.array([self.read_loc(l) for l in op.reads[:width]])
        if fn is EwiseFn.RECIP:
            vals = 1.0 / a
        elif fn is EwiseFn.COPY:
            vals = a
        elif fn is EwiseFn.SCALE:
            vals = op.scalars[0] * a
        elif fn is EwiseFn.STREAM_MUL:
            if coeffs is None or len(coeffs) != width:
                raise ValueError(f"STREAM_MUL stream mismatch: {op.tag}")
            vals = a * coeffs
        elif fn is EwiseFn.STREAM_AXPY:
            if coeffs is None or len(coeffs) != width:
                raise ValueError(f"STREAM_AXPY stream mismatch: {op.tag}")
            vals = a + op.scalars[0] * coeffs
        elif fn is EwiseFn.CLIP:
            if coeffs is None or len(coeffs) != 2 * width:
                raise ValueError(f"CLIP bounds stream mismatch: {op.tag}")
            vals = np.minimum(np.maximum(a, coeffs[:width]), coeffs[width:])
        elif fn in (EwiseFn.ADD, EwiseFn.SUB, EwiseFn.MUL, EwiseFn.AXPBY):
            if len(op.reads) != 2 * width:
                raise ValueError(f"binary EWISE needs 2x{width} reads: {op.tag}")
            b = np.array([self.read_loc(l) for l in op.reads[width:]])
            if fn is EwiseFn.ADD:
                vals = a + b
            elif fn is EwiseFn.SUB:
                vals = a - b
            elif fn is EwiseFn.MUL:
                vals = a * b
            else:  # AXPBY
                vals = op.scalars[0] * a + op.scalars[1] * b
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown ewise fn {fn}")
        return [
            (loc, float(v), acc) for (loc, acc), v in zip(op.writes, vals)
        ]

    def _execute_scalar(self, op: NetOp) -> list[tuple[Location, float, bool]]:
        fn = op.ewise_fn
        loc, acc = op.writes[0]
        if fn is EwiseFn.RECIP:
            return [(loc, 1.0 / self.read_loc(op.reads[0]), acc)]
        if fn is EwiseFn.MUL:
            a = self.read_loc(op.reads[0])
            b = self.read_loc(op.reads[1])
            return [(loc, a * b, acc)]
        if fn is EwiseFn.SUB:  # fused negative multiply-accumulate
            a = self.read_loc(op.reads[0])
            b = self.read_loc(op.reads[1])
            return [(loc, -a * b, True)]
        if fn is EwiseFn.COPY:
            return [(loc, self.read_loc(op.reads[0]), acc)]
        if fn is EwiseFn.FACTOR_FIN:
            # reads: y_j (rf) and dinv_j (rf); writes: l_kj to lbuf (set)
            # and the pivot update −y_j²·dinv_j into d_k (accumulate).
            y = self.read_loc(op.reads[0])
            dinv = self.read_loc(op.reads[1])
            l_loc, _ = op.writes[0]
            d_loc, _ = op.writes[1]
            return [(l_loc, y * dinv, False), (d_loc, -y * y * dinv, True)]
        raise ValueError(f"unsupported scalar fn {fn}")
