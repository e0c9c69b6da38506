"""Trace compilation and replay: validate once, re-execute cheaply.

ADMM is a fixed-point iteration — every iteration re-runs the exact
same compiled schedules.  :func:`compile_trace` walks a schedule once
through :func:`~repro.arch.simulator.hazard_walk`, the walk
:meth:`~repro.arch.simulator.NetworkSimulator.run` executes (structural
node occupancy, register-file ports, scalar-unit counts, RAW windows,
pipeline latency, commit ordering), and lowers it into a
:class:`CompiledTrace`: flat numpy index arrays over a compacted state
vector, grouped into *phases* whose internal ordering is provably
equivalent to the cycle-by-cycle interpretation.  Replaying the trace
executes a handful of vectorized numpy operations per phase instead of
millions of per-op Python dispatches, and is bit-identical to the
interpreter by construction:

* every element-wise op maps to the same IEEE-754 double operation
  applied elementwise (``a*b`` commutes bitwise, ``v*1.0 == v``);
* MAC reductions fold left in read order both ways — the interpreter
  accumulates sequentially, the replay uses ``np.bincount`` segmented
  sums (which add weights in input order);
* commits preserve program order: a phase boundary is inserted
  whenever an op reads a location committed earlier in the phase, and
  same-phase commit runs split wherever ordering could matter
  (mode changes, duplicate set-targets; duplicate accumulate-targets
  replay through ordered ``np.add.at``).

The trace binds coefficients late: :class:`~repro.arch.hbm.StreamRef`
operands resolve against the :class:`~repro.arch.hbm.StreamBuffers`
passed to :meth:`CompiledTrace.replay`, so re-binding new numeric
values (``update_values``, ρ refactorization) needs no re-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .hbm import StreamBuffers
from .isa import BINARY_EWISE_FNS, EwiseFn, Location, NetOp, OpKind
from .simulator import SimulationStats, hazard_walk
from .topology import Butterfly

__all__ = [
    "CompiledTrace",
    "TracePhase",
    "check_schedule",
    "compile_trace",
    "phase_crossings",
    "run_phases",
]

# Vectorized batch opcodes (first element of every batch tuple).
_MAC = 0  # segmented sum:   out[j] = Σ coeff·state over segment j
_SCATTER_MUL = 1  # out = coeff * state[src]        (COLELIM / PERMUTE·c)
_COPY = 2  # out = state[src]                (PERMUTE / COPY)
_CONST = 3  # out = coeff[slot]               (SET / pure HBM load)
_RECIP = 4  # out = 1 / state[src]
_SCALE = 5  # out = s0 * state[src]
_STREAM_MUL = 6  # out = state[src] * coeff
_STREAM_AXPY = 7  # out = state[src] + s0 * coeff
_CLIP = 8  # out = min(max(state[src], lo), hi)
_ADD = 9  # out = state[a] + state[b]
_SUB = 10  # out = state[a] - state[b]
_MUL = 11  # out = state[a] * state[b]
_AXPBY = 12  # out = s0*state[a] + s1*state[b]
_NEGMUL = 13  # out = -state[a] * state[b]      (fused mul-sub)
_FACTOR_FIN = 14  # out1 = y*dinv ; out2 = -y*y*dinv


@dataclass
class TracePhase:
    """One replay phase: a set of independent vectorized exec batches
    (all reading pre-phase state) followed by the ordered commit runs
    that close the phase."""

    batches: list[tuple]
    # Each commit run: (accumulate, state_idx, value_idx, has_dups).
    commits: list[tuple[bool, np.ndarray, np.ndarray, bool]]
    # Dynamic coefficients (lbuf/scalar factor values read at run time).
    cr_state: np.ndarray | None = None
    cr_slot: np.ndarray | None = None
    cr_scale: np.ndarray | None = None


def run_phases(
    phases: list[TracePhase],
    coeff: np.ndarray,
    state: np.ndarray,
    values: np.ndarray,
) -> None:
    """Execute a phase list against 1-D coeff/state/values buffers.

    The replay core behind :meth:`CompiledTrace.replay`.
    """
    for ph in phases:
        if ph.cr_state is not None:
            coeff[ph.cr_slot] = state[ph.cr_state] * ph.cr_scale
        for batch in ph.batches:
            code = batch[0]
            if code == _MAC:
                _, out, ridx, seg, cidx, n_out = batch
                values[out] = np.bincount(
                    seg, weights=coeff[cidx] * state[ridx], minlength=n_out
                )
            elif code == _SCATTER_MUL:
                _, out, a, cidx = batch
                values[out] = coeff[cidx] * state[a]
            elif code == _COPY:
                _, out, a = batch
                values[out] = state[a]
            elif code == _CONST:
                _, out, cidx = batch
                values[out] = coeff[cidx]
            elif code == _RECIP:
                _, out, a = batch
                values[out] = 1.0 / state[a]
            elif code == _SCALE:
                _, out, a, s0 = batch
                values[out] = s0 * state[a]
            elif code == _STREAM_MUL:
                _, out, a, cidx = batch
                values[out] = state[a] * coeff[cidx]
            elif code == _STREAM_AXPY:
                _, out, a, cidx, s0 = batch
                values[out] = state[a] + s0 * coeff[cidx]
            elif code == _CLIP:
                _, out, a, lo, hi = batch
                values[out] = np.minimum(
                    np.maximum(state[a], coeff[lo]), coeff[hi]
                )
            elif code == _ADD:
                _, out, a, b = batch
                values[out] = state[a] + state[b]
            elif code == _SUB:
                _, out, a, b = batch
                values[out] = state[a] - state[b]
            elif code == _MUL:
                _, out, a, b = batch
                values[out] = state[a] * state[b]
            elif code == _AXPBY:
                _, out, a, b, s0, s1 = batch
                values[out] = s0 * state[a] + s1 * state[b]
            elif code == _NEGMUL:
                _, out, a, b = batch
                values[out] = -state[a] * state[b]
            else:  # _FACTOR_FIN
                _, out1, out2, yi, di = batch
                y = state[yi]
                dinv = state[di]
                values[out1] = y * dinv
                values[out2] = -y * y * dinv
        for acc, sids, vids, has_dups in ph.commits:
            if acc:
                if has_dups:
                    np.add.at(state, sids, values[vids])
                else:
                    state[sids] += values[vids]
            else:
                state[sids] = values[vids]


def phase_crossings(phases: list[TracePhase]) -> int:
    """Host→numpy crossings of one pass over a phase list: one per
    dynamic-coefficient fill, exec batch, and commit run."""
    total = 0
    for ph in phases:
        if ph.cr_state is not None:
            total += 1
        total += len(ph.batches) + len(ph.commits)
    return total


@dataclass
class CompiledTrace:
    """A schedule lowered to flat replayable numpy arrays."""

    name: str
    c: int
    depth: int
    extra_latency: int
    n_state: int
    n_values: int
    phases: list[TracePhase]
    coeff_template: np.ndarray
    # Per stream name: (indices into the bound buffer, coeff slots to
    # fill, per-element scale or None).
    stream_plan: list[tuple[str, np.ndarray, np.ndarray, np.ndarray | None]]
    g_rf_state: np.ndarray
    g_rf_flat: np.ndarray
    g_other: list[tuple[Location, int]]
    s_rf_state: np.ndarray
    s_rf_flat: np.ndarray
    s_other: list[tuple[Location, int]]
    stats: SimulationStats
    hbm_words_read: int
    hbm_words_written: int

    # ------------------------------------------------------------------
    @cached_property
    def crossings(self) -> int:
        """Host→numpy crossings of one full replay: stream binds,
        gathers, per-phase exec/commit dispatches, scatters.  Memoized
        — the phase program is immutable and replay charges this every
        call."""
        return (
            len(self.stream_plan)
            + (1 if self.g_rf_state.size else 0)
            + len(self.g_other)
            + phase_crossings(self.phases)
            + (1 if self.s_rf_state.size else 0)
            + len(self.s_other)
        )

    # ------------------------------------------------------------------
    @cached_property
    def _buffers(self) -> tuple:
        """Per-trace scratch: (coeff, state, values), reused by every
        replay.

        Safe to reuse because a replay rewrites everything it reads:
        the stream plan and per-phase dynamic-coefficient writes cover
        every non-constant ``coeff`` slot, the gather covers every
        state id (``loc_sid`` is fully enumerated into the gather
        plans), and each value id is produced by exactly one exec
        batch before any commit consumes it.  Replays of one trace are
        not re-entrant — callers serialize per solver (the pool's
        per-entry lock).
        """
        return (
            self.coeff_template.copy(),
            np.zeros(self.n_state),
            np.empty(self.n_values),
        )

    # ------------------------------------------------------------------
    def replay(
        self, sim, streams: StreamBuffers | None = None
    ) -> SimulationStats:
        """Re-execute the trace against a simulator's storage.

        Functionally and bit-identically equivalent to
        ``sim.run(slots, streams)`` for the schedule this trace was
        compiled from, including HBM traffic accounting and the
        returned :class:`SimulationStats`.
        """
        if sim.c != self.c or sim.rf.depth != self.depth:
            raise ValueError(
                f"trace {self.name!r} compiled for C={self.c}/depth="
                f"{self.depth}, simulator has C={sim.c}/depth={sim.rf.depth}"
            )
        if sim.bf.latency + sim.extra_latency != self.stats.latency:
            raise ValueError(
                f"trace {self.name!r} pipeline latency mismatch"
            )
        streams = streams or StreamBuffers()
        coeff, state, values = self._buffers
        for name, idx, slots, scale in self.stream_plan:
            vals = np.asarray(streams.fetch(name, idx), dtype=np.float64)
            if scale is not None:
                vals = vals * scale
            coeff[slots] = vals

        flat = sim.rf.data.reshape(-1)
        if self.g_rf_state.size:
            state[self.g_rf_state] = flat[self.g_rf_flat]
        for loc, s in self.g_other:
            state[s] = sim.read_loc(loc)

        run_phases(self.phases, coeff, state, values)

        if self.s_rf_state.size:
            flat[self.s_rf_flat] = state[self.s_rf_state]
        for loc, s in self.s_other:
            v = float(state[s])
            if loc.space == "lbuf":
                sim.lbuf[loc.addr] = v
            elif loc.space == "scalar":
                sim.scalar[loc.addr] = v
            elif loc.space == "hbm":
                sim.hbm_out[loc.addr] = v
            else:  # rf overflow (prefetch scratch beyond the dense range)
                sim.rf.write(loc, v)
        sim.hbm.record_read(self.hbm_words_read)
        sim.hbm.record_write(self.hbm_words_written)

        return replace(
            self.stats,
            issue_width_histogram=dict(self.stats.issue_width_histogram),
            host_crossings=self.crossings,
            phases_executed=len(self.phases),
        )


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------
class _PhaseBuilder:
    """Accumulates one phase's exec records and commit events."""

    __slots__ = ("recs", "commits", "written", "cr")

    def __init__(self) -> None:
        self.recs: dict[int, list] = {}
        self.commits: list[tuple[int, int, bool]] = []  # (sid, vid, acc)
        self.written: set[int] = set()
        self.cr: list[tuple[int, int, float]] = []  # (sid, slot, scale)

    def empty(self) -> bool:
        return not (self.recs or self.commits or self.cr)


class _TraceBuilder:
    def __init__(self, c: int, depth: int) -> None:
        self.c = c
        self.depth = depth
        self.loc_sid: dict[Location, int] = {}
        self.sid_written: dict[int, Location] = {}
        self.coeff_items: list[float] = []
        self.stream_parts: dict[str, list[tuple[np.ndarray, int, float]]] = {}
        self.n_values = 0
        self.phases: list[TracePhase] = []
        self.pb = _PhaseBuilder()
        self.hbm_words_read = 0
        self.hbm_words_written = 0

    # -- id assignment -------------------------------------------------
    def _sid(self, loc: Location) -> int:
        s = self.loc_sid.get(loc)
        if s is None:
            s = len(self.loc_sid)
            self.loc_sid[loc] = s
        return s

    def _vids(self, k: int) -> list[int]:
        base = self.n_values
        self.n_values += k
        return list(range(base, base + k))

    def _rec(self, code: int, rec: tuple) -> None:
        self.pb.recs.setdefault(code, []).append(rec)

    # -- coefficients (mirrors NetworkSimulator._coeff_values) ---------
    def _coeff_slots(self, op: NetOp) -> list[int] | None:
        if op.coeffs is None:
            if op.coeff_reads:
                slots = []
                for loc in op.coeff_reads:
                    slot = len(self.coeff_items)
                    self.coeff_items.append(0.0)
                    self.pb.cr.append((self._sid(loc), slot, op.coeff_scale))
                    slots.append(slot)
                return slots
            return None
        ref = op.stream_ref()
        if ref is not None:
            idx = np.asarray(ref.indices, dtype=np.int64)
            start = len(self.coeff_items)
            self.coeff_items.extend([0.0] * len(idx))
            self.stream_parts.setdefault(ref.name, []).append(
                (idx, start, op.coeff_scale)
            )
            self.hbm_words_read += len(idx)
            return list(range(start, start + len(idx)))
        vals = np.asarray(op.coeffs, dtype=np.float64)
        self.hbm_words_read += len(vals)
        if op.coeff_scale != 1.0:
            vals = vals * op.coeff_scale
        start = len(self.coeff_items)
        self.coeff_items.extend(float(v) for v in vals)
        return list(range(start, start + len(vals)))

    def _ones(self, k: int) -> list[int]:
        start = len(self.coeff_items)
        self.coeff_items.extend([1.0] * k)
        return list(range(start, start + k))

    # -- exec recording (mirrors NetworkSimulator._execute) ------------
    def record_exec(self, op: NetOp) -> list[tuple[Location, int, bool]]:
        """Lower one op; returns its pending writes (loc, value id,
        accumulate) in the interpreter's emission order."""
        for loc in op.all_read_locations():
            s = self.loc_sid.get(loc)
            if s is not None and s in self.pb.written:
                self.flush_phase()
                break
        cs = self._coeff_slots(op)
        kind = op.kind
        if kind is OpKind.MAC:
            if cs is None:
                cs = self._ones(len(op.reads))
            if len(cs) != len(op.reads):
                raise ValueError(f"MAC coefficient count mismatch: {op.tag}")
            a = [self._sid(l) for l in op.reads]
            vid = self._vids(1)[0]
            self._rec(_MAC, (vid, a, cs))
            loc, acc = op.writes[0]
            return [(loc, vid, acc)]
        if kind is OpKind.COLELIM:
            if cs is None:
                cs = self._ones(len(op.writes))
            if len(cs) != len(op.writes):
                raise ValueError(
                    f"COLELIM coefficient count mismatch: {op.tag}"
                )
            src = self._sid(op.reads[0])
            vids = self._vids(len(op.writes))
            self._rec(_SCATTER_MUL, (vids, [src] * len(op.writes), cs))
            return [
                (loc, vid, acc) for (loc, acc), vid in zip(op.writes, vids)
            ]
        if kind is OpKind.PERMUTE:
            if op.reads:
                a = [self._sid(l) for l in op.reads]
                if cs is not None:
                    n = min(len(a), len(cs))
                    a, cs = a[:n], cs[:n]
                if len(a) != len(op.writes):
                    raise ValueError(f"PERMUTE width mismatch: {op.tag}")
                vids = self._vids(len(a))
                if cs is not None:
                    self._rec(_SCATTER_MUL, (vids, a, cs))
                else:
                    self._rec(_COPY, (vids, a))
            else:  # pure HBM load
                if cs is None:
                    raise ValueError(f"load without coefficients: {op.tag}")
                if len(cs) != len(op.writes):
                    raise ValueError(f"PERMUTE width mismatch: {op.tag}")
                vids = self._vids(len(cs))
                self._rec(_CONST, (vids, cs))
            return [
                (loc, vid, acc) for (loc, acc), vid in zip(op.writes, vids)
            ]
        if kind is OpKind.EWISE:
            return self._record_ewise(op, cs)
        if kind is OpKind.SCALAR:
            return self._record_scalar(op)
        raise ValueError(f"unknown op kind {kind}")  # pragma: no cover

    def _record_ewise(
        self, op: NetOp, cs: list[int] | None
    ) -> list[tuple[Location, int, bool]]:
        fn = op.ewise_fn
        width = len(op.writes)
        if fn is EwiseFn.SET:
            if cs is None or len(cs) != width:
                raise ValueError(f"SET width mismatch: {op.tag}")
            vids = self._vids(width)
            self._rec(_CONST, (vids, cs))
            return [
                (loc, vid, acc) for (loc, acc), vid in zip(op.writes, vids)
            ]
        a = [self._sid(l) for l in op.reads[:width]]
        if fn is EwiseFn.RECIP:
            vids = self._vids(len(a))
            self._rec(_RECIP, (vids, a))
        elif fn is EwiseFn.COPY:
            vids = self._vids(len(a))
            self._rec(_COPY, (vids, a))
        elif fn is EwiseFn.SCALE:
            vids = self._vids(len(a))
            self._rec(_SCALE, (vids, a, op.scalars[0]))
        elif fn is EwiseFn.STREAM_MUL:
            if cs is None or len(cs) != width or len(a) != width:
                raise ValueError(f"STREAM_MUL stream mismatch: {op.tag}")
            vids = self._vids(width)
            self._rec(_STREAM_MUL, (vids, a, cs))
        elif fn is EwiseFn.STREAM_AXPY:
            if cs is None or len(cs) != width or len(a) != width:
                raise ValueError(f"STREAM_AXPY stream mismatch: {op.tag}")
            vids = self._vids(width)
            self._rec(_STREAM_AXPY, (vids, a, cs, op.scalars[0]))
        elif fn is EwiseFn.CLIP:
            if cs is None or len(cs) != 2 * width or len(a) != width:
                raise ValueError(f"CLIP bounds stream mismatch: {op.tag}")
            vids = self._vids(width)
            self._rec(_CLIP, (vids, a, cs[:width], cs[width:]))
        elif fn in BINARY_EWISE_FNS:
            if len(op.reads) != 2 * width:
                raise ValueError(
                    f"binary EWISE needs 2x{width} reads: {op.tag}"
                )
            b = [self._sid(l) for l in op.reads[width:]]
            vids = self._vids(width)
            if fn is EwiseFn.ADD:
                self._rec(_ADD, (vids, a, b))
            elif fn is EwiseFn.SUB:
                self._rec(_SUB, (vids, a, b))
            elif fn is EwiseFn.MUL:
                self._rec(_MUL, (vids, a, b))
            else:  # AXPBY
                self._rec(
                    _AXPBY, (vids, a, b, op.scalars[0], op.scalars[1])
                )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown ewise fn {fn}")
        return [(loc, vid, acc) for (loc, acc), vid in zip(op.writes, vids)]

    def _record_scalar(self, op: NetOp) -> list[tuple[Location, int, bool]]:
        fn = op.ewise_fn
        loc, acc = op.writes[0]
        if fn is EwiseFn.RECIP:
            vid = self._vids(1)[0]
            self._rec(_RECIP, ([vid], [self._sid(op.reads[0])]))
            return [(loc, vid, acc)]
        if fn is EwiseFn.MUL:
            vid = self._vids(1)[0]
            self._rec(
                _MUL,
                ([vid], [self._sid(op.reads[0])], [self._sid(op.reads[1])]),
            )
            return [(loc, vid, acc)]
        if fn is EwiseFn.SUB:  # fused negative multiply-accumulate
            vid = self._vids(1)[0]
            self._rec(
                _NEGMUL,
                ([vid], [self._sid(op.reads[0])], [self._sid(op.reads[1])]),
            )
            return [(loc, vid, True)]
        if fn is EwiseFn.COPY:
            vid = self._vids(1)[0]
            self._rec(_COPY, ([vid], [self._sid(op.reads[0])]))
            return [(loc, vid, acc)]
        if fn is EwiseFn.FACTOR_FIN:
            v1, v2 = self._vids(2)
            self._rec(
                _FACTOR_FIN,
                (
                    [v1],
                    [v2],
                    [self._sid(op.reads[0])],
                    [self._sid(op.reads[1])],
                ),
            )
            l_loc, _ = op.writes[0]
            d_loc, _ = op.writes[1]
            return [(l_loc, v1, False), (d_loc, v2, True)]
        raise ValueError(f"unsupported scalar fn {fn}")

    # -- commits -------------------------------------------------------
    def emit_commit(self, loc: Location, vid: int, acc: bool) -> None:
        s = self._sid(loc)
        self.pb.commits.append((s, vid, acc))
        self.pb.written.add(s)
        self.sid_written[s] = loc
        if loc.space == "hbm":
            self.hbm_words_written += 1

    # -- phase finalization --------------------------------------------
    def flush_phase(self) -> None:
        pb = self.pb
        if pb.empty():
            return
        batches: list[tuple] = []
        for code, recs in pb.recs.items():
            if code == _MAC:
                out = np.array([r[0] for r in recs], dtype=np.int64)
                lens = [len(r[1]) for r in recs]
                ridx = np.array(
                    [s for r in recs for s in r[1]], dtype=np.int64
                )
                cidx = np.array(
                    [s for r in recs for s in r[2]], dtype=np.int64
                )
                seg = np.repeat(np.arange(len(recs), dtype=np.int64), lens)
                batches.append((_MAC, out, ridx, seg, cidx, len(recs)))
                continue
            out = np.array([v for r in recs for v in r[0]], dtype=np.int64)
            if code in (_COPY, _RECIP):
                a = np.array([s for r in recs for s in r[1]], dtype=np.int64)
                batches.append((code, out, a))
            elif code == _CONST:
                cidx = np.array(
                    [s for r in recs for s in r[1]], dtype=np.int64
                )
                batches.append((code, out, cidx))
            elif code in (_SCATTER_MUL, _STREAM_MUL):
                a = np.array([s for r in recs for s in r[1]], dtype=np.int64)
                cidx = np.array(
                    [s for r in recs for s in r[2]], dtype=np.int64
                )
                batches.append((code, out, a, cidx))
            elif code == _SCALE:
                a = np.array([s for r in recs for s in r[1]], dtype=np.int64)
                s0 = np.concatenate(
                    [np.full(len(r[1]), r[2], dtype=np.float64) for r in recs]
                )
                batches.append((code, out, a, s0))
            elif code == _STREAM_AXPY:
                a = np.array([s for r in recs for s in r[1]], dtype=np.int64)
                cidx = np.array(
                    [s for r in recs for s in r[2]], dtype=np.int64
                )
                s0 = np.concatenate(
                    [np.full(len(r[1]), r[3], dtype=np.float64) for r in recs]
                )
                batches.append((code, out, a, cidx, s0))
            elif code == _CLIP:
                a = np.array([s for r in recs for s in r[1]], dtype=np.int64)
                lo = np.array([s for r in recs for s in r[2]], dtype=np.int64)
                hi = np.array([s for r in recs for s in r[3]], dtype=np.int64)
                batches.append((code, out, a, lo, hi))
            elif code in (_ADD, _SUB, _MUL, _NEGMUL):
                a = np.array([s for r in recs for s in r[1]], dtype=np.int64)
                b = np.array([s for r in recs for s in r[2]], dtype=np.int64)
                batches.append((code, out, a, b))
            elif code == _AXPBY:
                a = np.array([s for r in recs for s in r[1]], dtype=np.int64)
                b = np.array([s for r in recs for s in r[2]], dtype=np.int64)
                s0 = np.concatenate(
                    [np.full(len(r[1]), r[3], dtype=np.float64) for r in recs]
                )
                s1 = np.concatenate(
                    [np.full(len(r[1]), r[4], dtype=np.float64) for r in recs]
                )
                batches.append((code, out, a, b, s0, s1))
            else:  # _FACTOR_FIN
                out1 = np.array(
                    [v for r in recs for v in r[0]], dtype=np.int64
                )
                out2 = np.array(
                    [v for r in recs for v in r[1]], dtype=np.int64
                )
                yi = np.array([s for r in recs for s in r[2]], dtype=np.int64)
                di = np.array([s for r in recs for s in r[3]], dtype=np.int64)
                batches.append((code, out1, out2, yi, di))

        commits: list[tuple[bool, np.ndarray, np.ndarray, bool]] = []
        run_s: list[int] = []
        run_v: list[int] = []
        run_mode: bool | None = None
        run_set_seen: set[int] = set()

        def close_run() -> None:
            if run_mode is None:
                return
            sids = np.array(run_s, dtype=np.int64)
            vids = np.array(run_v, dtype=np.int64)
            has_dups = len(set(run_s)) < len(run_s)
            commits.append((run_mode, sids, vids, has_dups))

        for sid, vid, acc in pb.commits:
            if run_mode is None or acc != run_mode or (
                not acc and sid in run_set_seen
            ):
                close_run()
                run_s, run_v = [], []
                run_mode = acc
                run_set_seen = set()
            run_s.append(sid)
            run_v.append(vid)
            if not acc:
                run_set_seen.add(sid)
        close_run()

        if pb.cr:
            cr_state = np.array([c[0] for c in pb.cr], dtype=np.int64)
            cr_slot = np.array([c[1] for c in pb.cr], dtype=np.int64)
            cr_scale = np.array([c[2] for c in pb.cr], dtype=np.float64)
        else:
            cr_state = cr_slot = cr_scale = None
        self.phases.append(
            TracePhase(batches, commits, cr_state, cr_slot, cr_scale)
        )
        self.pb = _PhaseBuilder()

    # -- assembly ------------------------------------------------------
    def finalize(
        self,
        stats: SimulationStats,
        *,
        name: str,
        extra_latency: int,
    ) -> CompiledTrace:
        self.flush_phase()
        coeff_template = np.array(self.coeff_items, dtype=np.float64)
        stream_plan = []
        for sname, parts in sorted(self.stream_parts.items()):
            idx = np.concatenate([p[0] for p in parts])
            slots = np.concatenate(
                [
                    np.arange(p[1], p[1] + len(p[0]), dtype=np.int64)
                    for p in parts
                ]
            )
            scales = np.concatenate(
                [np.full(len(p[0]), p[2], dtype=np.float64) for p in parts]
            )
            scale = scales if np.any(scales != 1.0) else None
            stream_plan.append((sname, idx, slots, scale))

        g_rf_state: list[int] = []
        g_rf_flat: list[int] = []
        g_other: list[tuple[Location, int]] = []
        for loc, s in self.loc_sid.items():
            if loc.space == "rf" and loc.addr < self.depth:
                g_rf_state.append(s)
                g_rf_flat.append(loc.bank * self.depth + loc.addr)
            else:
                g_other.append((loc, s))
        s_rf_state: list[int] = []
        s_rf_flat: list[int] = []
        s_other: list[tuple[Location, int]] = []
        for s, loc in self.sid_written.items():
            if loc.space == "rf" and loc.addr < self.depth:
                s_rf_state.append(s)
                s_rf_flat.append(loc.bank * self.depth + loc.addr)
            else:
                s_other.append((loc, s))
        return CompiledTrace(
            name=name,
            c=self.c,
            depth=self.depth,
            extra_latency=extra_latency,
            n_state=len(self.loc_sid),
            n_values=self.n_values,
            phases=self.phases,
            coeff_template=coeff_template,
            stream_plan=stream_plan,
            g_rf_state=np.array(g_rf_state, dtype=np.int64),
            g_rf_flat=np.array(g_rf_flat, dtype=np.int64),
            g_other=g_other,
            s_rf_state=np.array(s_rf_state, dtype=np.int64),
            s_rf_flat=np.array(s_rf_flat, dtype=np.int64),
            s_other=s_other,
            stats=stats,
            hbm_words_read=self.hbm_words_read,
            hbm_words_written=self.hbm_words_written,
        )


def compile_trace(
    slots: list[list[NetOp]],
    *,
    c: int,
    depth: int = 1 << 16,
    extra_latency: int = 0,
    name: str = "",
) -> CompiledTrace:
    """Validate-and-lower one schedule into a :class:`CompiledTrace`.

    The lowering runs inside :func:`~repro.arch.simulator.hazard_walk`,
    the walk :meth:`NetworkSimulator.run` executes, so it raises every
    :class:`~repro.arch.simulator.HazardViolation` the interpreter
    would, with the same diagnostics, and no trace replays a schedule
    the interpreter would refuse.
    """
    builder = _TraceBuilder(c, depth)
    stats = hazard_walk(
        slots,
        Butterfly(c),
        extra_latency,
        builder.record_exec,
        builder.emit_commit,
    )
    return builder.finalize(stats, name=name, extra_latency=int(extra_latency))


def _pending_writes(op: NetOp) -> list[tuple[Location, int, bool]]:
    return [(loc, 0, acc) for loc, acc in op.writes]


def check_schedule(
    slots: list[list[NetOp]], *, c: int, extra_latency: int = 0
) -> None:
    """:func:`~repro.arch.simulator.hazard_walk` with nothing executed.

    The check a schedule read from outside the process passes before
    it is priced or run: it raises every
    :class:`~repro.arch.simulator.HazardViolation` the interpreter or a
    lowering would, at about a third of a lowering's cost, and builds
    nothing.
    """
    hazard_walk(
        slots, Butterfly(c), extra_latency, _pending_writes, lambda *_: None
    )
