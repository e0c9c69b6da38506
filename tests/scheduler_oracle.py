"""The set-based first-fit scheduler, kept as the oracle.

``_SlotState`` / ``_Tracker`` / ``_FirstFitScheduler`` are the bodies
``repro.compiler.scheduler`` ran before an instruction's bin-packing
request was priced once per placement and probed with integer masks,
moved here verbatim (every probe re-derives the request and tests
per-slot ``set``s).  The oracle pins the first-fit and prefetch
*algorithm*, not the machine: what an instruction takes comes from
``repro.arch.simulator`` (``op_duration``, ``op_occupancy``,
``op_ports``, ``SCALAR_UNITS``), the one definition the scheduler and
the hazard walk share.  ``oracle_schedule_program`` is the old
``schedule_program``; the product scheduler must emit the same schedule
slot by slot, op by op — :func:`schedule_signature` is the comparison
key, and the SHA-256 of it is what ``golden_schedules.json`` pins.

Two things changed in the oracle with the product since the move: a
schedule ends when its last op does (``_finish`` keeps the second
cycle of a closing double-pumped op), and the successor-list height
pass is the module-level :func:`successor_heights`, which the tests
compare with the product's one-pass ``dependency_heights``.

Both schedulers mutate the ops they place (``_seq``, prefetch operand
rewrites), so the two sides of a differential must be given separate
copies of the program.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field

from repro.arch.isa import Location, NetOp, OpKind
from repro.arch.simulator import (
    SCALAR_UNITS,
    op_duration,
    op_occupancy,
    op_ports,
)
from repro.arch.topology import Butterfly
from repro.compiler.kernels import NetworkProgram
from repro.compiler.scheduler import Schedule, ScheduleOptions


class _SlotState:
    """Per-cycle structural bookkeeping."""

    __slots__ = ("occ", "read_banks", "write_banks", "scalars")

    def __init__(self) -> None:
        self.occ = 0
        self.read_banks: set[int] = set()
        self.write_banks: set[int] = set()
        self.scalars = 0


def _port_sets(op: NetOp) -> tuple[list[set[int]], list[set[int]]]:
    """Per-cycle read/write bank sets (index = cycle offset): the
    ``op_ports`` masks, held in every cycle of ``op_duration``."""
    dur = op_duration(op)
    reads, writes = (
        {b for b in range(mask.bit_length()) if mask >> b & 1}
        for mask in op_ports(op)
    )
    return [reads] * dur, [writes] * dur


@dataclass
class _Tracker:
    """Data-dependency bookkeeping across placed instructions."""

    ready: dict[Location, int] = field(default_factory=dict)  # commit cycle
    last_read: dict[Location, int] = field(default_factory=dict)
    last_write_commit: dict[Location, int] = field(default_factory=dict)


def successor_heights(ops: list[NetOp]) -> list[int]:
    """Per op, the length of the longest chain of RAW / WAW / WAR
    dependent ops below it, from explicit successor lists."""
    n = len(ops)
    # Build RAW/WAW/WAR successor lists via location tracking.
    successors: list[list[int]] = [[] for _ in range(n)]
    last_writer: dict[Location, int] = {}
    readers: dict[Location, list[int]] = {}
    for i, op in enumerate(ops):
        for loc in op.all_read_locations():
            if loc in last_writer:
                successors[last_writer[loc]].append(i)
            readers.setdefault(loc, []).append(i)
        for loc in op.all_write_locations():
            if loc in last_writer:
                successors[last_writer[loc]].append(i)
            for r in readers.get(loc, ()):
                if r != i:
                    successors[r].append(i)
            readers[loc] = []
            last_writer[loc] = i
    height = [0] * n
    for i in range(n - 1, -1, -1):
        h = 0
        for s in successors[i]:
            h = max(h, height[s] + 1)
        height[i] = h
    return height


class _FirstFitScheduler:
    def __init__(self, program: NetworkProgram, c: int, options: ScheduleOptions):
        self.program = program
        self.c = c
        self.bf = Butterfly(c)
        self.latency = self.bf.latency + options.extra_latency
        self.options = options
        self.slots: list[_SlotState] = []
        self.bundles: list[list[NetOp]] = []
        self.track = _Tracker()
        self.n_prefetch = 0
        # Scratch addresses for prefetch copies, one cursor per bank,
        # placed in a reserved high region of the register files.
        self._scratch_next = defaultdict(int)
        self._scratch_base = 1 << 22  # disjoint from allocator addresses
        self._next_seq = 0

    # -- helpers -------------------------------------------------------
    def _slot(self, t: int) -> _SlotState:
        while len(self.slots) <= t:
            self.slots.append(_SlotState())
            self.bundles.append([])
        return self.slots[t]

    def _earliest_by_deps(self, op: NetOp) -> int:
        """First cycle all data dependencies allow issuing ``op``."""
        t = 0
        for loc in op.all_read_locations():
            t = max(t, self.track.ready.get(loc, 0))
        # Write-side ordering: this op's commits must land strictly
        # after previous commits and after previous reads of the same
        # location (WAW / WAR).
        dur = op_duration(op)
        commit_off = dur - 1 + self.latency
        for loc in op.all_write_locations():
            floor = max(
                self.track.last_write_commit.get(loc, -1),
                self.track.last_read.get(loc, -1),
            )
            t = max(t, floor + 1 - commit_off)
        return t

    def _fits(self, op: NetOp, t: int) -> tuple[bool, bool]:
        """``(fits, read_contention)`` at slot ``t``.

        ``read_contention`` flags a read-port clash with already-placed
        instructions — the conflict class data prefetching can break
        (moving the operand also moves its multiplier lane, so an
        accompanying node conflict is usually resolved by the same
        copy).
        """
        occ = op_occupancy(op, self.bf)
        reads_per_cycle, writes_per_cycle = _port_sets(op)
        dur = op_duration(op)
        ok = True
        read_block = False
        for off in range(dur):
            slot = self._slot(t + off)
            if occ & slot.occ:
                ok = False
            if writes_per_cycle[off] & slot.write_banks:
                ok = False
            if reads_per_cycle[off] & slot.read_banks:
                ok = False
                read_block = True
        if op.kind is OpKind.SCALAR and self._slot(t).scalars >= SCALAR_UNITS:
            ok = False
        return ok, read_block

    def _place(self, op: NetOp, t: int) -> None:
        op._seq = self._next_seq  # program order, consumed by the simulator
        self._next_seq += 1
        occ = op_occupancy(op, self.bf)
        reads_per_cycle, writes_per_cycle = _port_sets(op)
        dur = op_duration(op)
        for off in range(dur):
            slot = self._slot(t + off)
            slot.occ |= occ
            slot.read_banks |= reads_per_cycle[off]
            slot.write_banks |= writes_per_cycle[off]
        if op.kind is OpKind.SCALAR:
            self._slot(t).scalars += 1
        self.bundles[t].append(op)
        commit = t + dur - 1 + self.latency
        for loc in op.all_read_locations():
            self.track.last_read[loc] = max(
                self.track.last_read.get(loc, -1), t + dur - 1
            )
        for loc in op.all_write_locations():
            self.track.ready[loc] = max(self.track.ready.get(loc, 0), commit + 1)
            self.track.last_write_commit[loc] = max(
                self.track.last_write_commit.get(loc, -1), commit
            )

    # -- prefetching ---------------------------------------------------
    def _try_prefetch(self, op: NetOp, t_blocked: int) -> bool:
        """Break a read-port conflict by copying one operand early.

        Finds a blocked read bank, a free earlier slot, and an idle
        destination bank; inserts a single-flow PERMUTE copy and
        rewrites the instruction to read the copy (Section IV-A).
        """
        if self.n_prefetch >= self.options.max_prefetch:
            return False
        if op.kind not in (OpKind.MAC, OpKind.COLELIM):
            return False
        slot = self._slot(t_blocked)
        for ri, loc in enumerate(op.reads):
            if loc.space != "rf" or loc.bank not in slot.read_banks:
                continue
            # The copy must commit before the blocked issue cycle.
            t_copy_max = t_blocked - self.latency - 1
            if t_copy_max < self.track.ready.get(loc, 0):
                continue
            # Never collide with the op's own operand banks, nor with
            # reads already placed in the blocked slot.
            own_banks = _port_sets(op)[0][0]
            forbidden = {loc.bank} | slot.read_banks | own_banks
            for t_copy in range(self.track.ready.get(loc, 0), t_copy_max + 1):
                cslot = self._slot(t_copy)
                if loc.bank in cslot.read_banks:
                    continue
                for dst_bank in range(self.c):
                    if dst_bank in forbidden or dst_bank in cslot.write_banks:
                        continue
                    copy_occ = self.bf.occupancy_permute([(loc.bank, dst_bank)])
                    if copy_occ & cslot.occ:
                        continue
                    dst_loc = Location(
                        "rf",
                        dst_bank,
                        self._scratch_base + self._scratch_next[dst_bank],
                    )
                    self._scratch_next[dst_bank] += 1
                    copy = NetOp(
                        kind=OpKind.PERMUTE,
                        reads=[loc],
                        writes=[(dst_loc, False)],
                        src_lanes=[loc.bank],
                        dst_lanes=[dst_bank],
                        tag=f"prefetch:{op.tag or op.kind.value}",
                    )
                    self._place(copy, t_copy)
                    self.n_prefetch += 1
                    # Rewrite the blocked operand (and its lane).
                    op.reads[ri] = dst_loc
                    for li, lane in enumerate(op.src_lanes):
                        if lane == loc.bank:
                            op.src_lanes[li] = dst_bank
                            break
                    op._occ = None  # invalidate the occupancy cache
                    return True
        return False

    # -- priorities ----------------------------------------------------
    def _critical_path_order(self) -> list[NetOp]:
        """Reorder ops by descending dependency height (list scheduling).

        The height of an op is the length of the longest chain of
        dependent ops below it; issuing tall chains first keeps the
        pipeline busy while short independent work fills the gaps.
        Ties break by program order, which also keeps the order a valid
        topological order of the dependency graph.
        """
        ops = self.program.ops
        height = successor_heights(ops)
        order = sorted(range(len(ops)), key=lambda i: (-height[i], i))
        # Re-sorting must stay topological: an op's dependencies all
        # have strictly greater height, so they sort earlier.
        return [ops[i] for i in order]

    # -- main loops ----------------------------------------------------
    def run_multi_issue(self) -> Schedule:
        if self.options.priority == "critical_path":
            op_order = self._critical_path_order()
        elif self.options.priority == "program":
            op_order = self.program.ops
        else:
            raise ValueError(f"unknown priority {self.options.priority!r}")
        for op in op_order:
            t0 = self._earliest_by_deps(op)
            t = t0
            first_read_block: int | None = None
            while True:
                fits, read_block = self._fits(op, t)
                if fits:
                    break
                if read_block and first_read_block is None:
                    first_read_block = t
                t += 1
                if t - t0 > self.options.window:
                    raise RuntimeError(
                        f"scheduler window exceeded for {op.tag or op.kind}"
                    )
            if (
                self.options.prefetch
                and first_read_block is not None
                and t > first_read_block
                and self._try_prefetch(op, first_read_block)
            ):
                # Retry from the originally blocked slot with the
                # rewritten operand.
                t = first_read_block
                while True:
                    fits, _ = self._fits(op, t)
                    if fits:
                        break
                    t += 1
            self._place(op, t)
        return self._finish()

    def run_dynamic(self, window: int) -> Schedule:
        """Scoreboard-style dynamic issue with a bounded window.

        Models the hardware the paper leaves to future work: each
        cycle, the issue logic scans the oldest ``window`` un-issued
        instructions in order and dispatches every one whose operands
        have committed and whose resources are free *this* cycle.
        Unlike the static scheduler it cannot look arbitrarily far
        ahead, so a long dependency stall at the window head blocks
        younger independent work once the window is exhausted.
        """
        remaining = list(self.program.ops)
        issued = [False] * len(remaining)
        head = 0
        t = 0
        total = len(remaining)
        n_issued = 0
        while n_issued < total:
            # The window is the oldest `window` un-issued instructions.
            # Scoreboard rule: an instruction may only issue past older
            # *un-issued* instructions if it carries no dependence on
            # them — their queued writes block its reads (RAW) and
            # writes (WAW), and their queued reads block its writes
            # (WAR).
            stalled_writes: set[Location] = set()
            stalled_reads: set[Location] = set()
            count = 0
            i = head
            while i < total and count < window:
                if not issued[i]:
                    count += 1
                    op = remaining[i]
                    ok = self._earliest_by_deps(op) <= t
                    if ok:
                        reads = op.all_read_locations()
                        writes = op.all_write_locations()
                        ok = (
                            not any(l in stalled_writes for l in reads)
                            and not any(l in stalled_writes for l in writes)
                            and not any(l in stalled_reads for l in writes)
                        )
                    if ok:
                        fits, _ = self._fits(op, t)
                        ok = fits
                    if ok:
                        self._place(op, t)
                        issued[i] = True
                        n_issued += 1
                    else:
                        stalled_writes.update(op.all_write_locations())
                        stalled_reads.update(op.all_read_locations())
                i += 1
            while head < total and issued[head]:
                head += 1
            t += 1
            if t > len(self.slots) + self.latency + self.options.window:
                raise RuntimeError("dynamic scheduler made no progress")
        return self._finish()

    def run_single_issue(self) -> Schedule:
        next_free = 0
        for op in self.program.ops:
            t = max(next_free, self._earliest_by_deps(op))
            self._place(op, t)
            next_free = t + op_duration(op)
        return self._finish()

    def _finish(self) -> Schedule:
        # The schedule ends when its last op does: a double-pumped op
        # issued in the last bundle holds one slot past it.
        end = max(
            (t + op_duration(op) for t, b in enumerate(self.bundles) for op in b),
            default=0,
        )
        return Schedule(
            name=self.program.name,
            c=self.c,
            slots=self.bundles[:end],
            n_ops=len(self.program.ops) + self.n_prefetch,
            n_prefetch=self.n_prefetch,
            extra_latency=self.options.extra_latency,
        )


def oracle_schedule_program(
    program: NetworkProgram,
    c: int,
    options: ScheduleOptions | None = None,
) -> Schedule:
    """The pre-refactor ``schedule_program``."""
    options = options or ScheduleOptions()
    sched = _FirstFitScheduler(program, c, options)
    if options.mode == "dynamic":
        return sched.run_dynamic(options.dynamic_window)
    if options.mode != "static":
        raise ValueError(f"unknown scheduling mode {options.mode!r}")
    if options.multi_issue:
        return sched.run_multi_issue()
    return sched.run_single_issue()


def op_signature(op: NetOp) -> tuple:
    """Everything about a placed op the schedulers decide or rewrite."""
    return (
        op.kind.value,
        tuple(tuple(loc) for loc in op.reads),
        tuple((tuple(loc), bool(acc)) for loc, acc in op.writes),
        tuple(op.src_lanes),
        tuple(op.dst_lanes),
        tuple(tuple(loc) for loc in op.coeff_reads),
        op.tag,
        op._seq,
    )


def schedule_signature(schedule: Schedule) -> list[tuple]:
    """``(slot, op signature)`` for every op, in slot then bundle order."""
    return [
        (t, op_signature(op))
        for t, bundle in enumerate(schedule.slots)
        for op in bundle
    ]


def schedule_digest(schedule: Schedule) -> dict:
    """The golden-file record of one schedule."""
    sha = hashlib.sha256()
    for entry in schedule_signature(schedule):
        sha.update(repr(entry).encode())
        sha.update(b"\n")
    return {
        "cycles": schedule.cycles,
        "n_ops": schedule.n_ops,
        "n_prefetch": schedule.n_prefetch,
        "sha256": sha.hexdigest(),
    }


def assert_same_schedule(got: Schedule, want: Schedule) -> None:
    """Slot-by-slot, op-by-op equality of two schedules."""
    assert (got.cycles, got.n_ops, got.n_prefetch, got.n_slots) == (
        want.cycles,
        want.n_ops,
        want.n_prefetch,
        want.n_slots,
    ), f"{got.name}: schedule totals differ"
    for t, (gb, wb) in enumerate(zip(got.slots, want.slots)):
        g = [op_signature(op) for op in gb]
        w = [op_signature(op) for op in wb]
        assert g == w, f"{got.name}: slot {t} differs"
