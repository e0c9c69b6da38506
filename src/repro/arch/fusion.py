"""Whole-iteration trace fusion: one ADMM iteration as one trace.

:func:`~repro.arch.trace.compile_trace` removed the per-op dispatch
cost inside a kernel; this module removes the per-kernel dispatch cost
inside an iteration.  :func:`fuse_iteration` takes the per-kernel
:class:`~repro.arch.trace.CompiledTrace` objects of one ADMM iteration
(the right-hand-side build, the KKT triangular solves, the
relaxation/projection/dual vector updates, and the residual products)
and lowers them into a single :class:`FusedTrace`:

* **one shared state vector** — every kernel's ``Location → state id``
  map is re-keyed into a common address space, so an upstream kernel's
  scatter and the downstream kernel's gather collapse into writing and
  reading the *same* fused state slot.  Intermediate results never
  round-trip through the register-file image between kernels.
* **one flat phase list** — the kernels' phases are concatenated and
  then optimized where the commit-ordering constraints allow it:
  hazard-free adjacent phases merge (:func:`_merge_phases`),
  same-opcode exec batches concatenate, commit runs coalesce, and
  set-commits fold into direct state writes through a unified
  state+values buffer (:func:`_finalize_segment`).  An iteration
  replays by driving the shared phase executor of
  :mod:`repro.arch.trace` straight through the optimized program.
* **a liveness-based buffer-reuse plan** — every in-flight value id is
  live from the phase that executes it to the phase that commits it;
  :func:`plan_buffer_reuse` linear-scans those intervals into a pooled
  scratch vector so the fused values buffer stays small instead of
  growing with the number of fused kernels.
* **iteration-invariant index arrays** — all remapped gather/scatter/
  commit indices and the merged stream-binding plan are computed once
  at fusion time; a steady-state iteration performs no index work.

Bit-identity is the contract and holds by construction: the per-kernel
scatter→gather round-trip between kernels is a float64 copy, so sharing
the slot instead is value-preserving; phases execute through the exact
dispatch of :func:`~repro.arch.trace.run_phases` (including the ordered
``np.add.at`` duplicate-accumulate commits and left-fold MACs); and
stream coefficients are bound from the same
:class:`~repro.arch.hbm.StreamBuffers` the per-kernel replay would
fetch from, re-synced whenever the solver rebinds them (ρ updates,
refactorization, ``update_values``).

The run-time state lives in :class:`FusedRun` (one solve) and
:class:`FusedBatchRun` (B lockstep lanes over a
:class:`~repro.arch.batch.BatchSimState`); both hold the fused state
vector *between* iterations and sync with the simulator image only at
iteration-loop entry, after invalidation, or when the solver needs the
image current (residual checks of the batch path, refactorization).
"""

from __future__ import annotations

import bisect
import heapq
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..xp import NUMPY
from .isa import Location
from .simulator import SimulationStats
from .trace import (
    _ADD,
    _AXPBY,
    _CLIP,
    _CONST,
    _COPY,
    _FACTOR_FIN,
    _MAC,
    _MUL,
    _NEGMUL,
    _RECIP,
    _SCALE,
    _SCATTER_MUL,
    _STREAM_AXPY,
    _STREAM_MUL,
    _SUB,
    CompiledTrace,
    TracePhase,
    _prepare_phase,
    phase_crossings,
    run_phases,
    run_phases_batch,
)

__all__ = [
    "FusedBatchRun",
    "FusedRun",
    "FusedSegment",
    "FusedTrace",
    "FusionError",
    "fuse_iteration",
    "fusion_stamp_matches",
    "plan_buffer_reuse",
    "verify_buffer_plan",
]


class FusionError(ValueError):
    """A kernel set cannot be fused (layout mismatch or a buffer-reuse
    plan that would clobber a live value)."""


# ----------------------------------------------------------------------
# buffer-reuse planning
# ----------------------------------------------------------------------
def plan_buffer_reuse(
    intervals: list[tuple[int, int]],
    groups: list[tuple[int, ...]] | None = None,
) -> tuple[np.ndarray, int]:
    """Linear-scan register allocation over live intervals.

    ``intervals[i] = (start, end)`` is value ``i``'s live range in
    abstract ticks, inclusive on both ends.  Returns ``(slots,
    n_slots)``: a pooled scratch slot per value such that two values
    sharing a slot never have overlapping live ranges — a freed slot is
    reused only for a value whose start tick is strictly after the
    previous occupant's end tick.

    ``groups`` optionally partitions the values into co-allocation
    units: each group's members receive *consecutive ascending* slots
    in group order, so an index array enumerating a group collapses to
    a Python slice downstream (:func:`_as_index`).  A group draws from
    a contiguous run of freed slots when one is available and extends
    the pool otherwise — trading a slightly larger pool for basic
    (view) indexing on every grouped access.  Values not covered by
    any group are allocated singly.
    """
    n = len(intervals)
    slots = np.zeros(n, dtype=np.int64)
    for i, (start, end) in enumerate(intervals):
        if end < start:
            raise FusionError(f"interval {i} ends before it starts")
    if groups is None:
        units = [(i,) for i in range(n)]
    else:
        covered = set()
        for g in groups:
            covered.update(g)
        units = list(groups) + [(i,) for i in range(n) if i not in covered]
    units.sort(key=lambda g: (min(intervals[v][0] for v in g), g[0]))
    expiry: list[tuple[int, int]] = []  # (end_tick, slot) min-heap
    avail: list[int] = []  # freed slot ids, ascending
    n_slots = 0
    for unit in units:
        start = min(intervals[v][0] for v in unit)
        while expiry and expiry[0][0] < start:
            _, s = heapq.heappop(expiry)
            bisect.insort(avail, s)
        k = len(unit)
        base = None
        if k == 1:
            if avail:
                base = avail.pop(0)
            else:
                base = n_slots
                n_slots += 1
        else:
            run = 1
            for j in range(1, len(avail)):
                run = run + 1 if avail[j] == avail[j - 1] + 1 else 1
                if run == k:
                    base = avail[j - k + 1]
                    del avail[j - k + 1 : j + 1]
                    break
            if base is None:
                base = n_slots
                n_slots += k
        for j, v in enumerate(unit):
            slots[v] = base + j
            heapq.heappush(expiry, (intervals[v][1], base + j))
    return slots, n_slots


def verify_buffer_plan(
    intervals: list[tuple[int, int]], slots: np.ndarray
) -> None:
    """Raise :class:`FusionError` if any two values sharing a slot have
    overlapping live ranges (the read-after-free / write-before-read
    safety condition of the reuse plan)."""
    by_slot: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for i, (start, end) in enumerate(intervals):
        by_slot[int(slots[i])].append((start, end, i))
    for slot, ivs in by_slot.items():
        ivs.sort()
        for (s1, e1, i1), (s2, e2, i2) in zip(ivs, ivs[1:]):
            if s2 <= e1:
                raise FusionError(
                    f"buffer plan clobbers live value: slot {slot} shared "
                    f"by values {i1} [{s1},{e1}] and {i2} [{s2},{e2}]"
                )


# ----------------------------------------------------------------------
# fusion pass
# ----------------------------------------------------------------------
def _loc_key(loc: Location, depth: int):
    """Storage-identity key for a location, matching the simulator's
    write semantics (``lbuf``/``scalar``/``hbm`` are addr-keyed word
    spaces) and :meth:`BatchSimState._aux_key`."""
    if loc.space == "rf":
        if loc.addr < depth:
            return ("rfd", loc.bank * depth + loc.addr)
        return ("rf", loc.bank, loc.addr)
    return (loc.space, loc.addr)


def _sid_locations(trace: CompiledTrace) -> list[Location | int]:
    """Per state id, the storage identity: the flat rf index for dense
    register-file words, the :class:`Location` otherwise.  Rebuilt from
    the gather plans, which enumerate *every* state id of a trace."""
    out: list[Location | int | None] = [None] * trace.n_state
    for sid, flat in zip(
        trace.g_rf_state.tolist(), trace.g_rf_flat.tolist()
    ):
        out[sid] = flat
    for loc, sid in trace.g_other:
        out[sid] = loc
    if any(v is None for v in out):
        raise FusionError(
            f"trace {trace.name!r} gather plan does not cover its state"
        )
    return out  # type: ignore[return-value]


def _remap_batch(
    batch: tuple, smap: np.ndarray, vmap: np.ndarray, cbase: int
) -> tuple:
    """One exec batch with state/value/coefficient indices rebased into
    the fused address spaces."""
    code = batch[0]
    if code == _MAC:
        _, out, ridx, seg, cidx, n_out = batch
        return (code, vmap[out], smap[ridx], seg, cidx + cbase, n_out)
    if code in (_SCATTER_MUL, _STREAM_MUL):
        _, out, a, cidx = batch
        return (code, vmap[out], smap[a], cidx + cbase)
    if code in (_COPY, _RECIP):
        _, out, a = batch
        return (code, vmap[out], smap[a])
    if code == _CONST:
        _, out, cidx = batch
        return (code, vmap[out], cidx + cbase)
    if code == _SCALE:
        _, out, a, s0 = batch
        return (code, vmap[out], smap[a], s0)
    if code == _STREAM_AXPY:
        _, out, a, cidx, s0 = batch
        return (code, vmap[out], smap[a], cidx + cbase, s0)
    if code == _CLIP:
        _, out, a, lo, hi = batch
        return (code, vmap[out], smap[a], lo + cbase, hi + cbase)
    if code in (_ADD, _SUB, _MUL, _NEGMUL):
        _, out, a, b = batch
        return (code, vmap[out], smap[a], smap[b])
    if code == _AXPBY:
        _, out, a, b, s0, s1 = batch
        return (code, vmap[out], smap[a], smap[b], s0, s1)
    if code == _FACTOR_FIN:
        _, out1, out2, yi, di = batch
        return (code, vmap[out1], vmap[out2], smap[yi], smap[di])
    raise FusionError(f"unknown batch opcode {code}")  # pragma: no cover


def _batch_out_vids(batch: tuple):
    """The value ids an exec batch defines."""
    if batch[0] == _FACTOR_FIN:
        yield from batch[1]
        yield from batch[2]
    else:
        yield from batch[1]


def _apply_vmap(batch: tuple, vmap: np.ndarray) -> tuple:
    """Rewrite a batch's output value ids through ``vmap``."""
    if batch[0] == _FACTOR_FIN:
        return (batch[0], vmap[batch[1]], vmap[batch[2]]) + batch[3:]
    return (batch[0], vmap[batch[1]]) + batch[2:]


def _batch_state_reads(batch: tuple) -> tuple:
    """The state-index arrays an exec batch reads."""
    code = batch[0]
    if code == _CONST:
        return ()
    if code == _FACTOR_FIN:
        return (batch[3], batch[4])
    if code in (_ADD, _SUB, _MUL, _NEGMUL, _AXPBY):
        return (batch[2], batch[3])
    return (batch[2],)


def _concat_batches(batches: list[tuple]) -> list[tuple]:
    """Concatenate same-opcode exec batches of one phase into single
    larger batches.  Safe because every batch of a phase reads the
    pre-phase state image and writes distinct value ids; ``_MAC``
    additionally renumbers segment ids so each output's ``np.bincount``
    fold keeps its original left-to-right read order."""
    by_code: dict[int, list[tuple]] = {}
    order: list[int] = []
    for b in batches:
        if b[0] not in by_code:
            order.append(b[0])
        by_code.setdefault(b[0], []).append(b)
    out: list[tuple] = []
    for code in order:
        group = by_code[code]
        if len(group) == 1:
            out.append(group[0])
        elif code == _MAC:
            n_out = 0
            segs = []
            for b in group:
                segs.append(b[3] + n_out)
                n_out += b[5]
            out.append(
                (
                    code,
                    np.concatenate([b[1] for b in group]),
                    np.concatenate([b[2] for b in group]),
                    np.concatenate(segs),
                    np.concatenate([b[4] for b in group]),
                    n_out,
                )
            )
        else:
            out.append(
                (code,)
                + tuple(
                    np.concatenate([b[i] for b in group])
                    for i in range(1, len(group[0]))
                )
            )
    return out


def _coalesce_commits(
    runs: list[tuple[bool, np.ndarray, np.ndarray, bool]],
    read_aware: bool = False,
) -> list[tuple[bool, np.ndarray, np.ndarray, bool]]:
    """Merge a phase's commit runs into fewer numpy calls.

    A run may move back to an earlier same-mode run when every run in
    between touches a disjoint state-id set (disjoint writes commute).
    Accumulate runs always merge once adjacent — concatenation keeps
    the temporal order of duplicate ids, and ``np.add.at`` folds them
    in array order.  Set runs merge only when they share no id, since
    a duplicate plain fancy-assignment has no ordering guarantee.

    ``read_aware`` handles post-finalize programs, where a commit's
    source indices can be *state words* (forwarded COPY sources), not
    just pooled slots: a run must then not move past a run that writes
    its sources or reads its words, and may not merge into a target
    whose words it reads — a merged statement gathers its entire
    right-hand side before storing, so the reading elements would see
    the pre-merge image.  (The target reading the *later* run's words
    is fine: the gather happens before those writes land, exactly as
    the original order had it.)
    """
    merged: list[list] = []  # [acc, [sids...], [vids...], sid_set, vid_set]
    for acc, sids, vids, _ in runs:
        sset = set(sids.tolist())
        vset = set(vids.tolist()) if read_aware else set()
        target = None
        for cand in reversed(merged):
            overlap = bool(sset & cand[3])
            if cand[0] == acc:
                if (acc or not overlap) and not (vset & cand[3]):
                    target = cand
                break
            if overlap or (vset & cand[3]) or (sset & cand[4]):
                break
        if target is None:
            merged.append([acc, [sids], [vids], sset, vset])
        else:
            target[1].append(sids)
            target[2].append(vids)
            target[3] |= sset
            target[4] |= vset
    out = []
    for acc, s_l, v_l, sset, _ in merged:
        s = np.concatenate(s_l) if len(s_l) > 1 else s_l[0]
        v = np.concatenate(v_l) if len(v_l) > 1 else v_l[0]
        out.append((acc, s, v, len(sset) < s.size))
    return out


def _as_index(a: np.ndarray):
    """A contiguous ascending index array as a ``slice`` — numpy basic
    indexing skips the fancy-indexing machinery, which dominates the
    cost of small-array dispatches.  Reads through a slice return
    views, but every batch's write region is disjoint from its read
    regions by construction, so view aliasing cannot occur."""
    if a.size and int(a[-1]) - int(a[0]) == a.size - 1:
        lo = int(a[0])
        if a.size == 1 or bool(np.all(np.diff(a) == 1)):
            return slice(lo, lo + a.size)
    return a


def _slice_batch(batch: tuple) -> tuple:
    """Convert a batch's index operands to slices where contiguous.
    The MAC segment map stays an array (``np.bincount`` input, and the
    batched replay offsets it per lane)."""
    if batch[0] == _MAC:
        code, out, ridx, seg, cidx, n_out = batch
        return (code, _as_index(out), _as_index(ridx), seg, _as_index(cidx), n_out)
    return tuple(
        _as_index(f)
        if isinstance(f, np.ndarray) and f.dtype == np.int64
        else f
        for f in batch
    )


def _finalize_segment(
    phases: list[TracePhase],
    slots: np.ndarray,
    n_state: int,
    defs: np.ndarray,
    gp_base: int,
) -> list[TracePhase]:
    """Rewrite a segment's value ids through the pooled-slot map into
    the unified runtime buffer, folding eligible set-commits away.

    The fused runtime uses ONE flat buffer: state word ``s`` at index
    ``s``, pooled value slot ``i`` at index ``n_state + i`` — so
    :func:`run_phases` runs with ``state`` and ``values`` aliased to
    the same array.  That unification lets a set-commit vanish: the
    producing batch element writes the state word directly at its def
    phase ``p`` instead of a value slot, and the commit at phase ``q``
    (pipeline latency defers commits past their producer) disappears.
    Folding is safe exactly when the word is untouched over the span:
    ``s`` is read by no batch and no coefficient refresh in phases
    ``[p, q]`` (those reads must see the pre-commit image) and has no
    other commit in ``[p, q]`` (an intervening write would land in the
    wrong order).  Accumulate commits keep their read-modify-write
    call.  ``defs`` gives each unpooled value id's global def tick,
    ``gp_base`` the segment's first global phase index.
    """
    read_phases: dict[int, list[int]] = {}
    commit_phases: dict[int, list[int]] = {}
    commit_pos: dict[int, list[tuple[int, int]]] = {}
    copy_src: dict[int, int] = {}  # COPY out vid -> source state word
    copy_bid: dict[int, int] = {}  # COPY out vid -> producing batch
    vid_commits: dict[int, int] = {}  # vid -> commit-element consumers
    n_copies = 0
    for q, ph in enumerate(phases):
        rs: set[int] = set()
        for b in ph.batches:
            for arr in _batch_state_reads(b):
                rs.update(arr.tolist())
            if b[0] == _COPY:
                for v, s in zip(b[1].tolist(), b[2].tolist()):
                    copy_src[v] = s
                    copy_bid[v] = n_copies
                n_copies += 1
        if ph.cr_state is not None:
            rs.update(ph.cr_state.tolist())
        for s in rs:
            read_phases.setdefault(s, []).append(q)
        for r, (_, sids, vids, _) in enumerate(ph.commits):
            for s in sids.tolist():
                commit_phases.setdefault(s, []).append(q)
                commit_pos.setdefault(s, []).append((q, r))
            for v in vids.tolist():
                vid_commits[v] = vid_commits.get(v, 0) + 1

    def span_clear(s: int, p: int, q: int) -> bool:
        lo = bisect.bisect_left(read_phases.get(s, ()), p)
        reads = read_phases.get(s, ())
        if lo < len(reads) and reads[lo] <= q:
            return False
        cp = commit_phases[s]
        lo = bisect.bisect_left(cp, p)
        return bisect.bisect_right(cp, q) - lo == 1  # just this commit

    def forward_clear(src: int, p: int, q: int, r: int) -> bool:
        # The copied word must reach the commit unmodified: no commit
        # to ``src`` from the COPY's phase ``p`` (its batches read
        # before that phase's commits land) up to run ``r`` of phase
        # ``q``.  The element's own run is safe — numpy materializes
        # the gathered right-hand side before any store.
        cp = commit_pos.get(src, ())
        lo = bisect.bisect_left(cp, (p, -1))
        return not (lo < len(cp) and cp[lo] < (q, r))

    # Statement-count-aware commit elimination, two competing moves:
    #
    # * **fold** (set elements): the producing batch writes the state
    #   word directly and the commit element vanishes — a run whose
    #   every element folds disappears entirely;
    # * **forward** (COPY-fed elements, set or accumulate): the commit
    #   reads the copied word through the unified buffer and the COPY
    #   batch disappears once every consumer forwards.
    #
    # A run is folded away only when that does not keep more than one
    # otherwise-removable COPY batch alive; everything else forwards.
    direct: dict[int, int] = {}  # unpooled vid -> state word
    fwd: dict[tuple[int, int, int], int] = {}  # (q, run, elem) -> word
    vid_fwd: dict[int, int] = {}
    folded: set[tuple[int, int]] = set()  # fully-folded (phase, run)
    folded_writes: dict[int, list[int]] = {}  # word -> def phases
    for q, ph in enumerate(phases):
        for r, (acc, sids, vids, _) in enumerate(ph.commits):
            if acc:
                continue
            vl = vids.tolist()
            # Redirecting a batch output is only sound when this run
            # is the value's sole consumer.
            if any(vid_commits[v] != 1 for v in vl):
                continue
            pl = [defs[v] // 2 - gp_base for v in vl]
            if not all(
                span_clear(s, p, q)
                for s, p in zip(sids.tolist(), pl)
            ):
                continue
            if len({copy_bid[v] for v in vl if v in copy_bid}) > 1:
                continue
            folded.add((q, r))
            for s, v, p in zip(sids.tolist(), vl, pl):
                direct[v] = s
                folded_writes.setdefault(s, []).append(p)
    for fl in folded_writes.values():
        fl.sort()
    for q, ph in enumerate(phases):
        for r, (_, sids, vids, _) in enumerate(ph.commits):
            if (q, r) in folded:
                continue
            for i, v in enumerate(vids.tolist()):
                src = copy_src.get(v)
                if src is None or v in direct:
                    continue
                p = defs[v] // 2 - gp_base
                if not forward_clear(src, p, q, r):
                    continue
                # A folded write lands at its producer's def phase,
                # not its commit phase — it must miss the span too.
                fl = folded_writes.get(src, ())
                lo = bisect.bisect_left(fl, p)
                if lo < len(fl) and fl[lo] <= q:
                    continue
                fwd[(q, r, i)] = src
                vid_fwd[v] = vid_fwd.get(v, 0) + 1
                bisect.insort(read_phases.setdefault(src, []), q)

    new_commits: list[list] = []
    for q, ph in enumerate(phases):
        kept = []
        for r, (acc, sids, vids, has_dups) in enumerate(ph.commits):
            if (q, r) in folded:
                continue
            final = slots[vids] + n_state
            for i, v in enumerate(vids.tolist()):
                src = fwd.get((q, r, i))
                if src is not None:
                    final[i] = src
            kept.append((acc, sids, final, has_dups))
        new_commits.append(kept)

    raw: list[TracePhase] = []
    for ph, kept in zip(phases, new_commits):
        batches = []
        for b in ph.batches:
            if b[0] == _COPY:
                # Drop elements (or the whole batch) whose output was
                # forwarded into every consuming commit.
                live = np.array(
                    [
                        vid_fwd.get(v, 0) < vid_commits.get(v, 0)
                        for v in b[1].tolist()
                    ],
                    dtype=bool,
                )
                if not live.any():
                    continue
                if not live.all():
                    b = (b[0], b[1][live], b[2][live])
            arrs = list(b)
            for fi in (1, 2) if b[0] == _FACTOR_FIN else (1,):
                vids = arrs[fi]
                new = slots[vids] + n_state
                for ei, v in enumerate(vids.tolist()):
                    s = direct.get(v)
                    if s is not None:
                        new[ei] = s
                arrs[fi] = new
            batches.append(tuple(arrs))
        raw.append(
            TracePhase(
                batches=batches,
                commits=list(kept),
                cr_state=ph.cr_state,
                cr_slot=ph.cr_slot,
                cr_scale=ph.cr_scale,
            )
        )
    raw = _sink_commits(raw)
    return [
        TracePhase(
            batches=[_slice_batch(b) for b in ph.batches],
            commits=[
                (acc, _as_index(sids), _as_index(vids), has_dups)
                for acc, sids, vids, has_dups in ph.commits
            ],
            cr_state=(
                _as_index(ph.cr_state) if ph.cr_state is not None else None
            ),
            cr_slot=(
                _as_index(ph.cr_slot) if ph.cr_slot is not None else None
            ),
            cr_scale=ph.cr_scale,
        )
        for ph in raw
    ]


def _sink_commits(phases: list[TracePhase]) -> list[TracePhase]:
    """Sink commit runs into the following phase where hazard-free, so
    runs separated only by unrelated batches coalesce segment-wide.

    A run (writing words ``W`` from unified-buffer sources ``V``) may
    move past the next phase's coefficient refresh and batches exactly
    when none of them reads ``W`` (they must see the pre-commit image),
    none writes ``W`` (write order), and none writes ``V`` (the run's
    sources must survive).  The run lands *ahead* of that phase's own
    runs, preserving global commit order; sinking ripples phase by
    phase, and each phase's accumulated runs re-coalesce at the end.
    """
    runs_per: list[list] = [list(ph.commits) for ph in phases]
    reads_per: list[set] = []
    writes_per: list[set] = []
    for ph in phases:
        rs: set[int] = set()
        ws: set[int] = set()
        for b in ph.batches:
            for arr in _batch_state_reads(b):
                rs.update(arr.tolist())
            for fi in (1, 2) if b[0] == _FACTOR_FIN else (1,):
                ws.update(b[fi].tolist())
        if ph.cr_state is not None:
            rs.update(ph.cr_state.tolist())
        reads_per.append(rs)
        writes_per.append(ws)
    for p in range(len(phases) - 1):
        nxt_reads = reads_per[p + 1]
        nxt_writes = writes_per[p + 1]
        runs = runs_per[p]
        wv = [
            (set(sids.tolist()), set(vids.tolist()))
            for _, sids, vids, _ in runs
        ]
        # Resolve right to left: sinking also moves a run past every
        # later run of its own phase that stays, which is legal only
        # when their words and sources are disjoint.
        sinks = [False] * len(runs)
        for i in range(len(runs) - 1, -1, -1):
            w, v = wv[i]
            if (w & nxt_reads) or (w & nxt_writes) or (v & nxt_writes):
                continue
            if any(
                not sinks[j]
                and (
                    (w & wv[j][0])
                    or (w & wv[j][1])
                    or (v & wv[j][0])
                )
                for j in range(i + 1, len(runs))
            ):
                continue
            sinks[i] = True
        runs_per[p] = [r for r, s in zip(runs, sinks) if not s]
        runs_per[p + 1] = [
            r for r, s in zip(runs, sinks) if s
        ] + runs_per[p + 1]
    return [
        TracePhase(
            batches=ph.batches,
            commits=_coalesce_commits(runs, read_aware=True),
            cr_state=ph.cr_state,
            cr_slot=ph.cr_slot,
            cr_scale=ph.cr_scale,
        )
        for ph, runs in zip(phases, runs_per)
    ]


def _merge_phases(phases: list[TracePhase]) -> list[TracePhase]:
    """Greedily merge adjacent phases with no read-after-commit hazard.

    A phase joins the current merged group unless it reads (through an
    exec batch or a dynamic-coefficient fill) a state id committed
    earlier in the group.  Merging runs all the group's batches before
    all its commits — valid because no batch reads anything the group
    writes, commit concatenation preserves global commit order, and
    coefficient-refresh slots are written once and only read by ops at
    or after their original phase.  Must run *before* value-slot
    pooling: liveness ticks are phase-granular, so pooling is computed
    on the merged program."""
    groups: list[list[TracePhase]] = []
    cur: list[TracePhase] = []
    committed: set[int] = set()
    for ph in phases:
        reads: set[int] = set()
        for b in ph.batches:
            for arr in _batch_state_reads(b):
                reads.update(arr.tolist())
        if ph.cr_state is not None:
            reads.update(ph.cr_state.tolist())
        if cur and reads & committed:
            groups.append(cur)
            cur = []
            committed = set()
        cur.append(ph)
        for _, sids, _, _ in ph.commits:
            committed.update(sids.tolist())
    if cur:
        groups.append(cur)

    out: list[TracePhase] = []
    for group in groups:
        crs = [ph for ph in group if ph.cr_state is not None]
        out.append(
            TracePhase(
                batches=_concat_batches(
                    [b for ph in group for b in ph.batches]
                ),
                commits=_coalesce_commits(
                    [cm for ph in group for cm in ph.commits]
                ),
                cr_state=(
                    np.concatenate([ph.cr_state for ph in crs])
                    if crs
                    else None
                ),
                cr_slot=(
                    np.concatenate([ph.cr_slot for ph in crs])
                    if crs
                    else None
                ),
                cr_scale=(
                    np.concatenate([ph.cr_scale for ph in crs])
                    if crs
                    else None
                ),
            )
        )
    return out


def _sub(idx) -> tuple[str, object | None]:
    """Source text for a subscript operand: a slice inlines literally,
    an array becomes a named closure constant."""
    if isinstance(idx, slice):
        return f"{idx.start}:{idx.stop}", None
    return "", idx


def compile_step(phases: list[TracePhase], xp=NUMPY):
    """Compile a phase list into one straight-line python function
    ``step(coeff, state)`` over the unified fused buffer.

    Emits, for every dynamic-coefficient fill, exec batch and commit
    run, the *textually identical* expression that
    :func:`~repro.arch.trace.run_phases` would dispatch to on ``xp`` —
    same operations, same operand order, same dtypes — so the result
    is bitwise equal to interpreting the phases; the generated
    function only removes the per-batch tuple-unpack/branch overhead
    of the interpreter loop.  Index arrays become closure constants
    (converted once for non-host backends); slice operands are inlined
    into the subscript."""
    env: dict = {
        "bincount": xp.bincount,
        "add_at": xp.add_at,
        "minimum": xp.minimum,
        "maximum": xp.maximum,
    }
    n = 0

    def ref(idx, convert=None) -> str:
        nonlocal n
        text, arr = _sub(idx)
        if arr is None:
            return text
        name = f"_a{n}"
        n += 1
        if convert is not None:
            arr = convert(arr)
        elif not xp.is_host and isinstance(arr, np.ndarray):
            arr = xp.constant(arr) if arr.dtype.kind == "f" else xp.index(arr)
        env[name] = arr
        return name

    lines = ["def step(coeff, state):"]
    for ph in phases:
        if ph.cr_state is not None:
            lines.append(
                f"    coeff[{ref(ph.cr_slot)}] = "
                f"state[{ref(ph.cr_state)}] * {ref(ph.cr_scale)}"
            )
        for b in ph.batches:
            code = b[0]
            if code == _MAC:
                _, out, ridx, seg, cidx, n_out = b
                lines.append(
                    f"    state[{ref(out)}] = bincount({ref(seg)}, "
                    f"weights=coeff[{ref(cidx)}] * state[{ref(ridx)}], "
                    f"minlength={n_out})"
                )
            elif code == _SCATTER_MUL:
                lines.append(
                    f"    state[{ref(b[1])}] = "
                    f"coeff[{ref(b[3])}] * state[{ref(b[2])}]"
                )
            elif code == _COPY:
                lines.append(
                    f"    state[{ref(b[1])}] = state[{ref(b[2])}]"
                )
            elif code == _CONST:
                lines.append(
                    f"    state[{ref(b[1])}] = coeff[{ref(b[2])}]"
                )
            elif code == _RECIP:
                lines.append(
                    f"    state[{ref(b[1])}] = 1.0 / state[{ref(b[2])}]"
                )
            elif code == _SCALE:
                lines.append(
                    f"    state[{ref(b[1])}] = "
                    f"{ref(b[3])} * state[{ref(b[2])}]"
                )
            elif code == _STREAM_MUL:
                lines.append(
                    f"    state[{ref(b[1])}] = "
                    f"state[{ref(b[2])}] * coeff[{ref(b[3])}]"
                )
            elif code == _STREAM_AXPY:
                lines.append(
                    f"    state[{ref(b[1])}] = state[{ref(b[2])}] + "
                    f"{ref(b[4])} * coeff[{ref(b[3])}]"
                )
            elif code == _CLIP:
                lines.append(
                    f"    state[{ref(b[1])}] = minimum(maximum("
                    f"state[{ref(b[2])}], coeff[{ref(b[3])}]), "
                    f"coeff[{ref(b[4])}])"
                )
            elif code == _ADD:
                lines.append(
                    f"    state[{ref(b[1])}] = "
                    f"state[{ref(b[2])}] + state[{ref(b[3])}]"
                )
            elif code == _SUB:
                lines.append(
                    f"    state[{ref(b[1])}] = "
                    f"state[{ref(b[2])}] - state[{ref(b[3])}]"
                )
            elif code == _MUL:
                lines.append(
                    f"    state[{ref(b[1])}] = "
                    f"state[{ref(b[2])}] * state[{ref(b[3])}]"
                )
            elif code == _NEGMUL:
                lines.append(
                    f"    state[{ref(b[1])}] = "
                    f"-state[{ref(b[2])}] * state[{ref(b[3])}]"
                )
            elif code == _AXPBY:
                lines.append(
                    f"    state[{ref(b[1])}] = "
                    f"{ref(b[4])} * state[{ref(b[2])}] + "
                    f"{ref(b[5])} * state[{ref(b[3])}]"
                )
            elif code == _FACTOR_FIN:
                lines.append(f"    _y = state[{ref(b[3])}]")
                lines.append(f"    _d = state[{ref(b[4])}]")
                lines.append(f"    state[{ref(b[1])}] = _y * _d")
                lines.append(
                    f"    state[{ref(b[2])}] = -_y * _y * _d"
                )
            else:  # pragma: no cover
                raise FusionError(f"unknown batch opcode {code}")
        for acc, sids, vids, has_dups in ph.commits:
            if acc and has_dups:
                # sids in call position: a slice would be a syntax
                # error inline, spell it out (cannot be contiguous
                # anyway — duplicates preclude it).  Backends without
                # an unbuffered scatter take their prepared handle.
                s_txt = (
                    f"slice({sids.start}, {sids.stop})"
                    if isinstance(sids, slice)
                    else ref(sids, convert=xp.prepare_add_at_index)
                )
                lines.append(
                    f"    add_at(state, {s_txt}, state[{ref(vids)}])"
                )
            elif acc:
                lines.append(
                    f"    state[{ref(sids)}] += state[{ref(vids)}]"
                )
            else:
                lines.append(
                    f"    state[{ref(sids)}] = state[{ref(vids)}]"
                )
    exec("\n".join(lines), env)  # noqa: S102 - self-generated source
    return env["step"]


@dataclass
class FusedSegment:
    """One source kernel inside a :class:`FusedTrace`: its remapped
    phases plus its original cycle/traffic accounting, so a fused
    replay charges exactly what the per-kernel replays would."""

    name: str
    phases: list[TracePhase]
    stats: SimulationStats
    hbm_words_read: int
    hbm_words_written: int
    _crossings: int | None = field(default=None, repr=False, compare=False)
    _prepared: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def crossings(self) -> int:
        if self._crossings is None:
            self._crossings = phase_crossings(self.phases)
        return self._crossings

    def phases_for(self, xp) -> list[TracePhase]:
        """The segment's phases prepared for ``xp`` (cached per
        backend; host backends get the originals)."""
        if xp.is_host:
            return self.phases
        prepared = self._prepared.get(xp.name)
        if prepared is None:
            prepared = [_prepare_phase(ph, xp) for ph in self.phases]
            self._prepared[xp.name] = prepared
        return prepared


@dataclass
class FusedTrace:
    """An ADMM iteration's kernels lowered into one phase program."""

    name: str
    c: int
    depth: int
    latency: int
    verified: bool
    n_state: int
    # Pooled value-slot count; the runtime buffer is one flat array of
    # n_state + n_slots words (slot i lives at word n_state + i) so
    # set-commits can be folded into direct state writes.
    n_slots: int
    n_values: int  # pre-pooling value count (Σ per-kernel)
    segments: list[FusedSegment]
    coeff_template: np.ndarray
    stream_plan: list[tuple[str, np.ndarray, np.ndarray, np.ndarray | None]]
    # Full-state sync-in maps (every fused state id) and written-state
    # sync-out maps (ids any fused kernel commits to).
    in_rf_state: np.ndarray
    in_rf_flat: np.ndarray
    in_other: list[tuple[Location, int]]
    out_rf_state: np.ndarray
    out_rf_flat: np.ndarray
    out_other: list[tuple[Location, int]]
    # Dense-rf flat index -> fused state id (host read-through).
    rf_sid: dict[int, int] = field(repr=False)
    stats: SimulationStats = field(default_factory=SimulationStats)
    # Per segment-count prefix: compiled step function / aggregates.
    _steps: dict = field(default_factory=dict, repr=False, compare=False)
    _aggs: dict = field(default_factory=dict, repr=False, compare=False)

    def prefix_step(self, k: int, xp=NUMPY):
        """One compiled straight-line function executing the first
        ``k`` segments (cached per ``(k, backend)``)."""
        fn = self._steps.get((k, xp.name))
        if fn is None:
            fn = compile_step(
                [ph for seg in self.segments[:k] for ph in seg.phases], xp
            )
            self._steps[(k, xp.name)] = fn
        return fn

    def prefix_stats(self, k: int) -> tuple:
        """Aggregated per-iteration accounting of the first ``k``
        segments: (cycles, instructions, bundles, node_cycles_busy,
        issue_width_histogram, phases_executed, crossings,
        hbm_words_read, hbm_words_written)."""
        agg = self._aggs.get(k)
        if agg is None:
            segs = self.segments[:k]
            hist: dict[int, int] = {}
            for seg in segs:
                for w, c in seg.stats.issue_width_histogram.items():
                    hist[w] = hist.get(w, 0) + c
            agg = (
                sum(s.stats.cycles for s in segs),
                sum(s.stats.instructions for s in segs),
                sum(s.stats.bundles for s in segs),
                sum(s.stats.node_cycles_busy for s in segs),
                hist,
                sum(len(s.phases) for s in segs),
                sum(s.crossings for s in segs),
                sum(s.hbm_words_read for s in segs),
                sum(s.hbm_words_written for s in segs),
            )
            self._aggs[k] = agg
        return agg

    def segment_index(self, names: tuple[str, ...]) -> int:
        """Number of leading segments covering ``names`` (which must be
        a prefix of the fused kernel order)."""
        have = tuple(s.name for s in self.segments[: len(names)])
        if have != tuple(names):
            raise FusionError(
                f"kernels {names} are not a prefix of fused order "
                f"{tuple(s.name for s in self.segments)}"
            )
        return len(names)

    @property
    def sync_in_crossings(self) -> int:
        return (
            len(self.stream_plan)
            + (1 if self.in_rf_state.size else 0)
            + len(self.in_other)
        )

    @property
    def sync_out_crossings(self) -> int:
        return (1 if self.out_rf_state.size else 0) + len(self.out_other)

    def iteration_crossings(self, count: int | None = None, xp=NUMPY) -> int:
        """Steady-state host→backend crossings of replaying the first
        ``count`` segments (no sync: state persists across iterations).
        Device backends run the whole prefix resident, so steady-state
        iterations cross zero times."""
        if not xp.is_host:
            return 0
        segs = self.segments if count is None else self.segments[:count]
        return sum(s.crossings for s in segs)

    def summary(self) -> dict:
        """Compact layout descriptor (the cache's fusion stamp)."""
        return {
            "verified": bool(self.verified),
            "c": int(self.c),
            "depth": int(self.depth),
            "latency": int(self.latency),
            "segments": [s.name for s in self.segments],
            "n_state": int(self.n_state),
            "n_slots": int(self.n_slots),
            "n_values": int(self.n_values),
            "n_coeff": int(self.coeff_template.size),
            "crossings": int(self.iteration_crossings()),
        }


def fusion_stamp_matches(
    stamp: dict | None,
    *,
    c: int,
    depth: int,
    latency: int,
    segments: tuple[str, ...],
) -> bool:
    """True if a cached fusion stamp covers this configuration, i.e.
    the kernels may be re-fused with the buffer-plan safety
    verification skipped (the plan is deterministic in the inputs the
    stamp fingerprints)."""
    if not stamp or not stamp.get("verified"):
        return False
    return (
        stamp.get("c") == c
        and stamp.get("depth") == depth
        and stamp.get("latency") == latency
        and list(stamp.get("segments", [])) == list(segments)
    )


def fuse_iteration(
    traces: list[CompiledTrace],
    *,
    name: str = "iteration",
    verify: bool = True,
) -> FusedTrace:
    """Fuse an ordered kernel sequence into one :class:`FusedTrace`.

    ``verify`` runs the buffer-plan overlap check
    (:func:`verify_buffer_plan`); pass ``False`` when a cached fusion
    stamp already certifies this exact configuration.
    """
    if not traces:
        raise FusionError("fuse_iteration needs at least one trace")
    c, depth, latency = traces[0].c, traces[0].depth, traces[0].stats.latency
    for tr in traces:
        if tr.c != c or tr.depth != depth or tr.stats.latency != latency:
            raise FusionError(
                f"trace {tr.name!r} layout differs from {traces[0].name!r}"
            )

    key_sid: dict = {}
    in_other: list[tuple[Location, int]] = []
    in_rf_state: list[int] = []
    in_rf_flat: list[int] = []

    def fused_sid(ident: Location | int) -> int:
        if isinstance(ident, Location):
            key = _loc_key(ident, depth)
        else:
            key = ("rfd", ident)
        s = key_sid.get(key)
        if s is None:
            s = len(key_sid)
            key_sid[key] = s
            if key[0] == "rfd":
                in_rf_state.append(s)
                in_rf_flat.append(key[1])
            else:
                assert isinstance(ident, Location)
                in_other.append((ident, s))
        return s

    # Pass 1: fused state maps.
    smaps: list[np.ndarray] = []
    vbases: list[int] = []
    n_values = 0
    for tr in traces:
        idents = _sid_locations(tr)
        smap = np.fromiter(
            (fused_sid(ident) for ident in idents),
            dtype=np.int64,
            count=tr.n_state,
        )
        if len(set(smap.tolist())) != tr.n_state:
            # Distinct locations collapsing onto one storage word would
            # falsify the per-commit has_dups flags.
            raise FusionError(
                f"trace {tr.name!r} has aliasing locations under fusion"
            )
        smaps.append(smap)
        vbases.append(n_values)
        n_values += tr.n_values

    # Pass 2: remap every phase into the fused address spaces with
    # globally-offset *unpooled* value ids, then optimize each kernel's
    # phase program (merge hazard-free phases, concatenate same-opcode
    # batches, coalesce commit runs) — the dominant cost of a fused
    # replay is the numpy-call count, not the element count.
    segments: list[FusedSegment] = []
    coeff_parts: list[np.ndarray] = []
    stream_plan: list[
        tuple[str, np.ndarray, np.ndarray, np.ndarray | None]
    ] = []
    out_seen: set[int] = set()
    out_rf_state: list[int] = []
    out_rf_flat: list[int] = []
    out_other: list[tuple[Location, int]] = []
    cbase = 0
    for tr, smap, vbase in zip(traces, smaps, vbases):
        vmap = np.arange(vbase, vbase + tr.n_values, dtype=np.int64)
        phases = [
            TracePhase(
                batches=[
                    _remap_batch(b, smap, vmap, cbase) for b in ph.batches
                ],
                commits=[
                    (acc, smap[sids], vmap[vids], has_dups)
                    for acc, sids, vids, has_dups in ph.commits
                ],
                cr_state=(
                    smap[ph.cr_state] if ph.cr_state is not None else None
                ),
                cr_slot=(
                    ph.cr_slot + cbase if ph.cr_slot is not None else None
                ),
                cr_scale=ph.cr_scale,
            )
            for ph in tr.phases
        ]
        phases = _merge_phases(phases)
        segments.append(
            FusedSegment(
                name=tr.name,
                phases=phases,
                stats=tr.stats,
                hbm_words_read=tr.hbm_words_read,
                hbm_words_written=tr.hbm_words_written,
            )
        )
        for sname, idx, cslots, scale in tr.stream_plan:
            stream_plan.append((sname, idx, cslots + cbase, scale))
        for sid, flat in zip(
            tr.s_rf_state.tolist(), tr.s_rf_flat.tolist()
        ):
            fs = int(smap[sid])
            if fs not in out_seen:
                out_seen.add(fs)
                out_rf_state.append(fs)
                out_rf_flat.append(flat)
        for loc, sid in tr.s_other:
            fs = int(smap[sid])
            if fs not in out_seen:
                out_seen.add(fs)
                out_other.append((loc, fs))
        coeff_parts.append(tr.coeff_template)
        cbase += tr.coeff_template.size

    # Pass 3: value-liveness over the *optimized* program, slot pooling
    # and in-place value-id rewrite.  A value is live from the merged
    # phase that executes it (tick 2p) to the one whose commit consumes
    # it (tick 2q+1); even/odd ticks keep a same-phase producer from
    # stealing a slot freed by that phase's own commits.  Pooling after
    # merging is mandatory: ticks are phase-granular, so a plan made on
    # the pre-merge program could alias two values whose defs land in
    # the same merged phase.
    defs = np.full(n_values, -1, dtype=np.int64)
    uses = np.full(n_values, -1, dtype=np.int64)
    groups: list[tuple[int, ...]] = []
    gp = 0
    for seg in segments:
        for ph in seg.phases:
            for batch in ph.batches:
                outs = (
                    (batch[1], batch[2])
                    if batch[0] == _FACTOR_FIN
                    else (batch[1],)
                )
                for arr in outs:
                    # Co-allocate each output array: consecutive slots
                    # turn its writes (and the commits that enumerate
                    # it in order) into slice accesses.
                    groups.append(tuple(arr.tolist()))
                for v in _batch_out_vids(batch):
                    defs[v] = 2 * gp
            for _, _sids, vids, _ in ph.commits:
                uses[vids] = 2 * gp + 1
            gp += 1
    if np.any(defs < 0) or np.any(uses < 0):
        raise FusionError("fused program has values without a def/use pair")
    intervals = list(zip(defs.tolist(), uses.tolist()))
    slots, n_slots = plan_buffer_reuse(intervals, groups)
    if verify:
        verify_buffer_plan(intervals, slots)
    n_state = len(key_sid)
    gp = 0
    for seg in segments:
        seg.phases = _finalize_segment(
            seg.phases, slots, n_state, defs, gp
        )
        gp += len(seg.phases)

    total = SimulationStats(latency=latency)
    for tr in traces:
        total.cycles += tr.stats.cycles
        total.instructions += tr.stats.instructions
        total.bundles += tr.stats.bundles
        total.node_cycles_busy += tr.stats.node_cycles_busy
        for w, k in tr.stats.issue_width_histogram.items():
            total.issue_width_histogram[w] = (
                total.issue_width_histogram.get(w, 0) + k
            )

    rf_sid = {
        flat: sid for sid, flat in zip(in_rf_state, in_rf_flat)
    }
    return FusedTrace(
        name=name,
        c=c,
        depth=depth,
        latency=latency,
        verified=verify,
        n_state=len(key_sid),
        n_slots=n_slots,
        n_values=len(intervals),
        segments=segments,
        coeff_template=(
            np.concatenate(coeff_parts)
            if coeff_parts
            else np.empty(0, dtype=np.float64)
        ),
        stream_plan=stream_plan,
        in_rf_state=np.array(in_rf_state, dtype=np.int64),
        in_rf_flat=np.array(in_rf_flat, dtype=np.int64),
        in_other=in_other,
        out_rf_state=np.array(out_rf_state, dtype=np.int64),
        out_rf_flat=np.array(out_rf_flat, dtype=np.int64),
        out_other=out_other,
        rf_sid=rf_sid,
        stats=total,
    )


# ----------------------------------------------------------------------
# run-time state
# ----------------------------------------------------------------------
class FusedRun:
    """Persistent fused-iteration state for one sequential solve.

    Holds the fused state/coefficient/values buffers across iterations;
    ``valid`` tracks whether they are in sync with the simulator image
    and the stream bindings.  The solver invalidates the run whenever
    it rebinds streams (ρ update, refactorization) or writes the
    register file outside the fused kernels.
    """

    def __init__(self, trace: FusedTrace, xp=NUMPY) -> None:
        self.trace = trace
        self.xp = xp
        self.coeff = xp.from_host(trace.coeff_template.copy())
        # Unified buffer: state word s at index s, pooled value slot i
        # at index n_state + i (the phase programs are pre-offset).
        self.state = xp.zeros(trace.n_state + trace.n_slots)
        self.valid = False
        self._view_plans: dict[tuple, tuple] = {}
        self._stats_cache: dict[tuple, SimulationStats] = {}

    def invalidate(self) -> None:
        self.valid = False

    def _sync_in(self, sim, streams) -> None:
        tr = self.trace
        xp = self.xp
        for sname, idx, slots, scale in tr.stream_plan:
            vals = np.asarray(streams.fetch(sname, idx), dtype=np.float64)
            if scale is not None:
                vals = vals * scale
            self.coeff[xp.index(slots)] = xp.from_host(vals)
        flat = sim.rf.data.reshape(-1)
        if tr.in_rf_state.size:
            self.state[xp.index(tr.in_rf_state)] = xp.from_host(
                flat[tr.in_rf_flat]
            )
        for loc, s in tr.in_other:
            self.state[s] = sim.read_loc(loc)
        self.valid = True

    def sync_out(self, sim) -> None:
        """Flush every fused-written word back to the simulator image
        (before non-fused kernels or host-side bulk reads touch it)."""
        tr = self.trace
        xp = self.xp
        if tr.out_rf_state.size:
            sim.rf.data.reshape(-1)[tr.out_rf_flat] = xp.to_host(
                self.state[xp.index(tr.out_rf_state)]
            )
        for loc, s in tr.out_other:
            v = float(self.state[s])
            if loc.space == "lbuf":
                sim.lbuf[loc.addr] = v
            elif loc.space == "scalar":
                sim.scalar[loc.addr] = v
            elif loc.space == "hbm":
                sim.hbm_out[loc.addr] = v
            else:
                sim.rf.write(loc, v)

    def _view_plan(self, view) -> tuple:
        key = (view.name, view.base, view.rotation, view.length)
        plan = self._view_plans.get(key)
        if plan is None:
            banks, addrs = view.bank_addr_arrays()
            flat = banks * self.trace.depth + addrs
            sids = np.array(
                [self.trace.rf_sid.get(int(f), -1) for f in flat],
                dtype=np.int64,
            )
            missing = sids < 0
            if np.any(missing):
                # Present-subset index precomputed so backend-side
                # conversion of it can memoize on a stable array.
                plan = (sids, flat, missing, sids[~missing])
            else:
                plan = (_as_index(sids), flat, None, None)
            self._view_plans[key] = plan
        return plan

    def read_view(self, sim, view) -> np.ndarray:
        """The current value of an allocator view, served from fused
        state (with a register-file fallback for words the fused
        kernels never touch).  Always returns a host array."""
        sids, flat, missing, present_sids = self._view_plan(view)
        xp = self.xp
        if missing is None:
            idx = xp.index(sids) if isinstance(sids, np.ndarray) else sids
            return np.asarray(xp.to_host(self.state[idx], copy=True))
        out = sim.rf.data.reshape(-1)[flat]
        out[~missing] = np.asarray(
            xp.to_host(self.state[xp.index(present_sids)])
        )
        return out

    def replay(self, sim, streams, count: int | None = None) -> SimulationStats:
        """Execute the first ``count`` fused segments (default: all)."""
        tr = self.trace
        if sim.c != tr.c or sim.rf.depth != tr.depth:
            raise FusionError(
                f"fused trace {tr.name!r} compiled for C={tr.c}/depth="
                f"{tr.depth}, simulator has C={sim.c}/depth={sim.rf.depth}"
            )
        crossings = 0
        if not self.valid:
            self._sync_in(sim, streams)
            crossings += tr.sync_in_crossings
        k = len(tr.segments) if count is None else count
        # Straight-line compiled executor over the whole prefix; emits
        # the exact statement sequence run_phases would dispatch on
        # this backend (bitwise equal), minus the interpreter overhead.
        tr.prefix_step(k, self.xp)(self.coeff, self.state)
        cyc, ins, bun, ncb, hist, phx, cross, hr, hw = tr.prefix_stats(k)
        if not self.xp.is_host:
            cross = 0  # device-resident iteration: no per-phase crossings
        sim.hbm.record_read(hr)
        sim.hbm.record_write(hw)
        # Per-prefix stats are iteration-invariant; every consumer of
        # the engine protocol only reads them, so one frozen object per
        # (prefix, sync) flavour serves the whole solve.
        out = self._stats_cache.get((k, crossings))
        if out is None:
            out = SimulationStats(cycles=cyc, latency=tr.latency)
            out.instructions = ins
            out.bundles = bun
            out.node_cycles_busy = ncb
            out.issue_width_histogram = dict(hist)
            out.phases_executed = phx
            out.host_crossings = crossings + cross
            self._stats_cache[(k, crossings)] = out
        return out


class FusedBatchRun:
    """Persistent fused-iteration state for B lockstep lanes.

    The batched twin of :class:`FusedRun` over a
    :class:`~repro.arch.batch.BatchSimState`: state/coeff/values carry
    a leading lane axis, sync-in gathers through the context's shared
    column maps, and lane surgery (harvest compaction, solo extraction)
    simply invalidates the run — the next replay re-syncs from the
    surgically updated context, which the solver flushed with
    :meth:`sync_out` before operating on it.
    """

    def __init__(self, trace: FusedTrace) -> None:
        self.trace = trace
        self.b = 0
        self.xp = None
        self.coeff = None
        self.state = None
        self.valid = False
        self._view_plans: dict[tuple, tuple] = {}
        self._seg_cache: dict[tuple, np.ndarray] = {}

    def invalidate(self) -> None:
        self.valid = False

    def _sync_in(self, ctx, streams) -> None:
        tr = self.trace
        b = ctx.b
        xp = ctx.xp
        if b != self.b or xp is not self.xp or self.coeff is None:
            self.b = b
            self.xp = xp
            self.coeff = xp.tile(tr.coeff_template, b)
            # Unified buffer (see FusedRun): lane-major state words
            # followed by the pooled value slots.
            self.state = xp.zeros((b, tr.n_state + tr.n_slots))
            self._seg_cache = {}
        for sname, idx, slots, scale in tr.stream_plan:
            vals = streams.fetch(sname, idx)
            if scale is not None:
                vals = vals * xp.constant(scale)
            self.coeff[:, xp.index(slots)] = vals
        if tr.in_rf_state.size:
            gcols = ctx.columns((tr.name, id(tr), "in"), tr.in_rf_flat)
            self.state[:, xp.index(tr.in_rf_state)] = ctx.rf[
                :, xp.index(gcols)
            ]
        for loc, s in tr.in_other:
            self.state[:, s] = ctx.read_loc(loc)
        self.valid = True

    def sync_out(self, ctx) -> None:
        tr = self.trace
        xp = ctx.xp
        if tr.out_rf_state.size:
            scols = ctx.columns((tr.name, id(tr), "out"), tr.out_rf_flat)
            ctx.rf[:, xp.index(scols)] = self.state[
                :, xp.index(tr.out_rf_state)
            ]
        for loc, s in tr.out_other:
            ctx.write_loc(loc, self.state[:, s])

    def _lane_segments(self, pi: int, bi: int, seg, n_out: int):
        key = (self.b, pi, bi)
        out = self._seg_cache.get(key)
        if out is None:
            host_seg = np.asarray(self.xp.to_host(seg))
            offsets = np.arange(self.b, dtype=np.int64) * n_out
            out = self.xp.index(
                (host_seg[None, :] + offsets[:, None]).ravel()
            )
            self._seg_cache[key] = out
        return out

    def read_view(self, ctx, view) -> np.ndarray:
        key = (view.name, view.base, view.rotation, view.length)
        plan = self._view_plans.get(key)
        if plan is None:
            banks, addrs = view.bank_addr_arrays()
            flat = banks * self.trace.depth + addrs
            sids = np.array(
                [self.trace.rf_sid.get(int(f), -1) for f in flat],
                dtype=np.int64,
            )
            missing = sids < 0
            if np.any(missing):
                plan = (sids, missing, sids[~missing])
            else:
                plan = (_as_index(sids), None, None)
            self._view_plans[key] = plan
        sids, missing, present_sids = plan
        xp = self.xp
        if missing is None:
            idx = xp.index(sids) if isinstance(sids, np.ndarray) else sids
            return np.asarray(xp.to_host(self.state[:, idx], copy=True))
        out = ctx.read_vector(view)
        out[:, ~missing] = np.asarray(
            xp.to_host(self.state[:, xp.index(present_sids)])
        )
        return out

    def replay(self, ctx, streams, count: int | None = None) -> SimulationStats:
        tr = self.trace
        if ctx.c != tr.c or ctx.depth != tr.depth:
            raise FusionError(
                f"fused trace {tr.name!r} compiled for C={tr.c}/depth="
                f"{tr.depth}, batch state has C={ctx.c}/depth={ctx.depth}"
            )
        crossings = 0
        if not self.valid or ctx.b != self.b or ctx.xp is not self.xp:
            self._sync_in(ctx, streams)
            crossings += tr.sync_in_crossings
        xp = self.xp
        # The phase-list executor is shared with the per-kernel batch
        # replay, so per lane the fused arithmetic is the same IEEE-754
        # sequence; the global phase index keys the MAC segment cache.
        segs = tr.segments if count is None else tr.segments[:count]
        out = SimulationStats(latency=tr.latency)
        pbase = 0
        for seg in segs:
            run_phases_batch(
                seg.phases_for(xp),
                self.coeff,
                self.state,
                self.state,
                lambda pi, bi, sarr, n_out, _pb=pbase: self._lane_segments(
                    _pb + pi, bi, sarr, n_out
                ),
                xp=xp,
            )
            out.cycles += seg.stats.cycles
            out.instructions += seg.stats.instructions
            out.bundles += seg.stats.bundles
            out.node_cycles_busy += seg.stats.node_cycles_busy
            for w, k in seg.stats.issue_width_histogram.items():
                out.issue_width_histogram[w] = (
                    out.issue_width_histogram.get(w, 0) + k
                )
            out.phases_executed += len(seg.phases)
            if xp.is_host:
                crossings += seg.crossings
            ctx.record_hbm(seg.hbm_words_read, seg.hbm_words_written)
            pbase += len(seg.phases)
        out.host_crossings = crossings
        return out
