"""Multi-issue network-instruction scheduling (Section IV).

Turns a lowered :class:`~repro.compiler.kernels.NetworkProgram` (a
sequential initial order) into per-cycle issue bundles.

Two modes:

* ``multi_issue=False`` — the "before reordering" baseline of Fig. 8:
  one instruction per slot, stalling on data hazards (empty slots where
  a result is still in flight);
* ``multi_issue=True`` — the paper's first-fit bin packing: each
  instruction's hardware request is its node-occupancy bitvector
  (length ``C(log₂C+1)`` plus the scalar unit) together with its
  register-file port usage; walking the ops tallest dependency chain
  first (``priority="critical_path"``, the default) or in the lowering
  order (``"program"``), each instruction is placed in the first slot
  where (a) all data dependencies have committed, and (b) no structural
  resource collides.

Structural read-port conflicts can additionally be broken by *data
prefetching* (Section IV-A): when a read port blocks an otherwise-early
placement, the scheduler inserts a copy instruction in an earlier free
slot that moves the operand to an idle bank and rewrites the blocked
instruction to read the copy.

Requests come from the simulator's one definition of the machine
(``op_duration``, ``op_occupancy``, ``op_ports``, ``SCALAR_UNITS``),
and :func:`~repro.arch.simulator.hazard_walk` re-verifies every
constraint with its own bookkeeping whenever a schedule is executed,
lowered or loaded, so a scheduling bug cannot silently corrupt
results.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..arch.isa import Location, NetOp, OpKind
from ..arch.simulator import SCALAR_UNITS, op_duration, op_occupancy, op_ports
from ..arch.topology import Butterfly
from .kernels import NetworkProgram

__all__ = ["Schedule", "ScheduleOptions", "schedule_program"]


@dataclass
class ScheduleOptions:
    """Knobs for the scheduling ablations of DESIGN.md §4.

    ``mode`` selects the scheduling style:

    * ``"static"`` — the paper's compile-time first-fit bin packing
      (Section IV); unbounded lookahead, optional data prefetching.
    * ``"dynamic"`` — the paper's *future-work* direction ("dynamic
      multiple-instruction-issue and reordering"): a run-time
      scoreboard that each cycle issues any ready, structurally
      compatible instructions from a bounded in-order window of size
      ``dynamic_window``.  No prefetch rewriting (hardware would need
      register renaming for that).
    """

    multi_issue: bool = True
    prefetch: bool = True
    max_prefetch: int = 4096  # cap on inserted copy instructions
    window: int = 1 << 20  # give-up bound when scanning for a slot
    mode: str = "static"
    dynamic_window: int = 16
    # Super-pipelining (paper future work): extra register stages in the
    # datapath raise the clock but lengthen the commit latency the
    # scheduler must respect.
    extra_latency: int = 0
    # Instruction order for static first-fit: "critical_path"
    # list-schedules by dependency height, releasing long chains first
    # (the out-of-order issue of Section IV-B); "program" visits ops in
    # lowering order, the baseline the ordering ablations measure.
    priority: str = "critical_path"


@dataclass
class Schedule:
    """A scheduled network program."""

    name: str
    c: int
    slots: list[list[NetOp]]
    n_ops: int
    n_prefetch: int = 0
    extra_latency: int = 0  # super-pipelining register stages

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    @property
    def cycles(self) -> int:
        """Total execution cycles including pipeline drain."""
        return len(self.slots) + Butterfly(self.c).latency + self.extra_latency

    def issue_width_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for bundle in self.slots:
            if bundle:
                hist[len(bundle)] = hist.get(len(bundle), 0) + 1
        return hist

    def mean_issue_width(self) -> float:
        busy = [len(b) for b in self.slots if b]
        return sum(busy) / len(busy) if busy else 0.0

    def occupancy_utilization(self) -> float:
        """Busy-node-cycles over total node-cycles (temporal+spatial
        utilization, the quantity multi-issue exists to raise)."""
        bf = Butterfly(self.c)
        total = bf.num_nodes * max(1, len(self.slots))
        busy = 0
        for bundle in self.slots:
            for op in bundle:
                busy += bin(op_occupancy(op, bf) & bf.full_mask()).count("1")
        return busy / total


Locations = tuple[int, ...]

# The ops a prefetch copy can serve: one operand per source lane, and
# the copy moves that lane with it.
_PREFETCHABLE = (OpKind.MAC, OpKind.COLELIM)


class _Ids(dict):
    """Location -> id, numbering each new location as it is looked up."""

    def __missing__(self, loc: Location) -> int:
        self[loc] = n = len(self)
        return n


def dependency_heights(
    locs: list[tuple[Locations, Locations]], n_locations: int
) -> list[int]:
    """Per op, the length of the longest chain of RAW / WAW / WAR
    dependent ops below it.

    ``locs`` holds each op's ``(reads, writes)`` in program order as
    location ids below ``n_locations``.  One reverse pass keeps, per
    location, the height of the nearest later writer and of the tallest
    reader before that writer.  An op's successors through a location it
    writes are that writer and those readers; through a location it
    reads, that writer alone.  An op that writes one location twice is
    its own successor (height at least 1), as in a successor-list walk
    of the same graph.
    """
    height = [0] * len(locs)
    next_writer = [-1] * n_locations
    next_reader = [-1] * n_locations
    for i in range(len(locs) - 1, -1, -1):
        reads, writes = locs[i]
        h = 0
        for loc in reads:
            if next_writer[loc] >= h:
                h = next_writer[loc] + 1
        for loc in writes:
            if next_writer[loc] >= h:
                h = next_writer[loc] + 1
            if next_reader[loc] >= h:
                h = next_reader[loc] + 1
        if not h and len(writes) > 1 and len(set(writes)) < len(writes):
            h = 1
        height[i] = h
        # Within the op, its reads come before its writes.
        for loc in writes:
            next_writer[loc] = h
            next_reader[loc] = -1
        for loc in reads:
            if next_reader[loc] < h:
                next_reader[loc] = h
    return height


class _FirstFitScheduler:
    """First-fit bin packing over per-cycle resource words.

    Slot ``t``'s structural state is four integers in parallel lists:
    the node-occupancy word ``occ[t]``, the read- and write-bank masks
    ``rd[t]`` / ``wr[t]`` (bit ``b`` = bank ``b``'s port is taken) and
    the scalar-unit count ``sc[t]``.  An instruction's *request* —
    ``(occ, dur, reads, writes, is_scalar)``, its node occupancy and
    register-file ports (:func:`~repro.arch.simulator.op_ports`) held
    in each of its ``dur`` cycles — is a pure function of the instruction
    until a prefetch rewrites an operand, so it is derived once per
    placement (``request_builds`` counts the derivations) and every
    probe is a handful of integer ANDs.

    Data dependencies are tracked per location id (:meth:`_location_ids`):
    ``ready[l]`` is the first cycle location ``l``'s value can be read,
    ``last_read[l]`` the last slot that reads it and
    ``last_write_commit[l]`` the commit cycle of its last write.
    """

    def __init__(self, program: NetworkProgram, c: int, options: ScheduleOptions):
        self.program = program
        self.c = c
        self.bf = Butterfly(c)
        self.latency = self.bf.latency + options.extra_latency
        self.options = options
        self.occ: list[int] = []
        self.rd: list[int] = []
        self.wr: list[int] = []
        self.sc: list[int] = []
        self.bundles: list[list[NetOp]] = []
        self._loc_ids = _Ids()
        self.ready: list[int] = []
        self.last_read: list[int] = []
        self.last_write_commit: list[int] = []
        self.n_prefetch = 0
        # Slots the prefetch search has visited (``_try_prefetch``).
        self.prefetch_visits = 0
        # One past the last slot any placed op holds.
        self._end = 0
        self._request_builds = 0
        # Per request scanned with no read clash to report, a run of
        # slots ``[lo, hi)`` it is known not to fit (``_first_fit``).
        self._unfit: dict[tuple, tuple[int, int]] = {}
        # Scratch addresses for prefetch copies, one cursor per bank,
        # placed in a reserved high region of the register files.
        self._scratch_next = defaultdict(int)
        self._scratch_base = 1 << 22  # disjoint from allocator addresses
        self._next_seq = 0

    @property
    def request_builds(self) -> int:
        """How many times a request was derived from an instruction:
        once per placed instruction plus once per prefetch rewrite."""
        return self._request_builds

    # -- helpers -------------------------------------------------------
    def _grow(self, n: int) -> None:
        """Make slots ``0 .. n-1`` exist."""
        extra = n - len(self.occ)
        if extra > 0:
            zeros = [0] * extra
            self.occ += zeros
            self.rd += zeros
            self.wr += zeros
            self.sc += zeros
            self.bundles += [[] for _ in range(extra)]

    def _location_ids(self, ops: list[NetOp]) -> list[tuple[Locations, Locations]]:
        """Per op, ``(reads, writes)`` as location ids: every location it
        consumes (its operands, then its coefficient words) and every
        location it writes.  A location is hashed here once per mention;
        the dependency bookkeeping indexes lists by id."""
        ids = self._loc_ids.__getitem__
        out = []
        for op in ops:
            reads = tuple(map(ids, op.reads))
            if op.coeff_reads:
                reads += tuple(map(ids, op.coeff_reads))
            out.append((reads, tuple([ids(loc) for loc, _ in op.writes])))
        self._track_new_locations()
        return out

    def _track_new_locations(self) -> None:
        """Extend the dependency lists to every location id handed out:
        a new location is ready at cycle 0, unread and unwritten."""
        extra = len(self._loc_ids) - len(self.ready)
        self.ready += [0] * extra
        self.last_read += [-1] * extra
        self.last_write_commit += [-1] * extra

    def _build_request(self, op: NetOp) -> tuple:
        """The hardware request of ``op``: ``(occ, dur, reads, writes,
        is_scalar)``; occupancy and the port bank masks are held in
        every one of the ``dur`` cycles."""
        self._request_builds += 1
        return (
            op_occupancy(op, self.bf),
            op_duration(op),
            *op_ports(op),
            op.kind is OpKind.SCALAR,
        )

    def _earliest_by_deps(self, reads: Locations, writes: Locations, dur: int) -> int:
        """First cycle all data dependencies allow issuing an op of
        duration ``dur`` with these location ids."""
        t = 0
        ready = self.ready
        for loc in reads:
            if ready[loc] > t:
                t = ready[loc]
        # Write-side ordering: this op's commits must land strictly
        # after previous commits and after previous reads of the same
        # location (WAW / WAR).
        if writes:
            last_write_commit = self.last_write_commit
            last_read = self.last_read
            base = 1 - (dur - 1 + self.latency)
            for loc in writes:
                floor = last_write_commit[loc]
                if last_read[loc] > floor:
                    floor = last_read[loc]
                if floor + base > t:
                    t = floor + base
        return t

    def _probe(self, request: tuple, t: int) -> tuple[bool, bool]:
        """``(fits, read_contention)`` of ``request`` at slot ``t``.

        ``read_contention`` flags a read-port clash with already-placed
        instructions — the conflict class data prefetching can break
        (moving the operand also moves its multiplier lane, so an
        accompanying node conflict is usually resolved by the same
        copy).
        """
        occ, dur, reads, writes, is_scalar = request
        self._grow(t + dur)
        ok = True
        read_block = False
        for u in range(t, t + dur):
            if occ & self.occ[u] or writes & self.wr[u]:
                ok = False
            if reads & self.rd[u]:
                ok = False
                read_block = True
        if is_scalar and self.sc[t] >= SCALAR_UNITS:
            ok = False
        return ok, read_block

    def _first_fit(
        self, request: tuple, t0: int, report_read_block: bool
    ) -> tuple[int, int | None]:
        """First slot at or after ``t0`` where ``request`` fits, and the first
        slot on the way whose read ports blocked it (``None`` if none, or
        if ``report_read_block`` is false).

        Up to the first read-port clash the scan is linear on purpose:
        *which* slot that is decides where a prefetch copy is aimed, so
        it is part of the emitted schedule and a skip index could not
        know it.  Past it — or from ``t0`` when there is no clash to
        report (the request reads no register, or its op is not one a
        prefetch copy can serve) — only the first slot that fits
        matters.  Slots only fill up, so a run of slots a request did
        not fit never fits it again, and that part of the scan jumps to
        the end of the request's known run (``_unfit``).
        """
        occ, dur, reads, writes, is_scalar = request
        s_occ, s_rd, s_wr, s_sc = self.occ, self.rd, self.wr, self.sc
        n = len(s_occ)  # a slot past the end is empty: it always fits
        first_read_block: int | None = None
        t = t0
        if reads and report_read_block:
            while t < n:
                if dur == 1:
                    read_block = reads & s_rd[t]
                    fits = not (
                        read_block
                        or occ & s_occ[t]
                        or writes & s_wr[t]
                        or (is_scalar and s_sc[t] >= SCALAR_UNITS)
                    )
                else:
                    fits, read_block = self._probe(request, t)
                if fits:
                    return t, None
                if read_block:
                    break
                t += 1
            else:
                return t, None
            first_read_block = t
            t += 1
        # Every slot in [t0, t) is known not to fit.
        lo, hi = self._unfit.get(request, (t, t))
        if not lo <= t <= hi:
            lo = hi = t
        t = hi
        if dur == 1:
            # The common case, inlined: one cycle, a few ANDs a probe.
            while t < n and (
                reads & s_rd[t]
                or occ & s_occ[t]
                or writes & s_wr[t]
                or (is_scalar and s_sc[t] >= SCALAR_UNITS)
            ):
                t += 1
        else:
            # Double-pumped EWISE holds its ports over two cycles: slot
            # ``t`` fits when every slot it holds is free.
            while t < n:
                if not (is_scalar and s_sc[t] >= SCALAR_UNITS) and not any(
                    occ & s_occ[u] or writes & s_wr[u] or reads & s_rd[u]
                    for u in range(t, min(t + dur, n))
                ):
                    break
                t += 1
        self._unfit[request] = (min(lo, t0), t)
        return t, first_read_block

    def _place(
        self, op: NetOp, t: int, request: tuple, reads: Locations, writes: Locations
    ) -> None:
        """Issue ``op`` (its request and location ids) at slot ``t``."""
        op._seq = self._next_seq  # program order, consumed by the simulator
        self._next_seq += 1
        occ, dur, read_banks, write_banks, is_scalar = request
        end = t + dur
        if end > len(self.occ):
            self._grow(end)
        if end > self._end:
            self._end = end
        for u in range(t, end):
            self.occ[u] |= occ
            self.rd[u] |= read_banks
            self.wr[u] |= write_banks
        if is_scalar:
            self.sc[t] += 1
        self.bundles[t].append(op)
        last = end - 1
        commit = last + self.latency
        last_read = self.last_read
        for loc in reads:
            if last_read[loc] < last:
                last_read[loc] = last
        ready = self.ready
        last_write_commit = self.last_write_commit
        for loc in writes:
            if ready[loc] <= commit:
                ready[loc] = commit + 1
            if last_write_commit[loc] < commit:
                last_write_commit[loc] = commit

    # -- prefetching ---------------------------------------------------
    def _try_prefetch(
        self, op: NetOp, request: tuple, reads: Locations, t_blocked: int
    ) -> Locations | None:
        """Break a read-port conflict of a MAC or COLELIM ``op`` by
        copying one operand early.

        Finds a blocked read bank, a free earlier slot, and an idle
        destination bank; inserts a single-flow PERMUTE copy and
        rewrites the instruction to read the copy (Section IV-A).
        Returns the op's rewritten read location ids, or ``None`` if no
        copy fits.  The caller keeps the copy count under
        ``max_prefetch``.
        """
        blocked_reads = self.rd[t_blocked]
        all_banks = (1 << self.c) - 1
        # The destination bank is never one of the op's own operand
        # banks nor one read in the blocked slot (the source bank is
        # both).  When those cover every bank, no slot can take a copy.
        forbidden = blocked_reads | request[2]
        if forbidden == all_banks:
            return None
        # The copy must commit before the blocked issue cycle; every
        # candidate slot lies below ``t_blocked`` and so already exists.
        t_copy_max = t_blocked - self.latency - 1
        s_rd, s_wr, s_occ = self.rd, self.wr, self.occ
        for ri, loc in enumerate(op.reads):
            if loc.space != "rf" or not (blocked_reads >> loc.bank) & 1:
                continue
            t_ready = self.ready[reads[ri]]
            if t_copy_max < t_ready:
                continue
            src_bit = 1 << loc.bank
            for t_copy in range(t_ready, t_copy_max + 1):
                if s_rd[t_copy] & src_bit:
                    continue
                free = all_banks & ~(forbidden | s_wr[t_copy])
                slot_occ = s_occ[t_copy]
                while free:
                    low = free & -free
                    free ^= low
                    dst_bank = low.bit_length() - 1
                    if self.bf.path_mask(loc.bank, dst_bank) & slot_occ:
                        continue
                    dst_loc = Location(
                        "rf",
                        dst_bank,
                        self._scratch_base + self._scratch_next[dst_bank],
                    )
                    self._scratch_next[dst_bank] += 1
                    dst = self._loc_ids[dst_loc]
                    self._track_new_locations()
                    copy = NetOp(
                        kind=OpKind.PERMUTE,
                        reads=[loc],
                        writes=[(dst_loc, False)],
                        src_lanes=[loc.bank],
                        dst_lanes=[dst_bank],
                        tag=f"prefetch:{op.tag or op.kind.value}",
                    )
                    self._place(
                        copy, t_copy, self._build_request(copy), (reads[ri],), (dst,)
                    )
                    self.n_prefetch += 1
                    self.prefetch_visits += t_copy + 1 - t_ready
                    # Rewrite the blocked operand (and its lane).
                    op.reads[ri] = dst_loc
                    for li, lane in enumerate(op.src_lanes):
                        if lane == loc.bank:
                            op.src_lanes[li] = dst_bank
                            break
                    # The one point an instruction's request changes:
                    # drop the occupancy cached on the op.
                    op._occ = None
                    return (*reads[:ri], dst, *reads[ri + 1 :])
            self.prefetch_visits += t_copy_max + 1 - t_ready
        return None

    # -- main loops ----------------------------------------------------
    def run_multi_issue(self) -> Schedule:
        ops = self.program.ops
        locs = self._location_ids(ops)
        if self.options.priority == "critical_path":
            # List scheduling: tallest dependency chain first, ties in
            # program order.  An op's dependencies all have strictly
            # greater height, so the order stays topological.
            height = dependency_heights(locs, len(self._loc_ids))
            order = sorted(range(len(ops)), key=height.__getitem__, reverse=True)
        elif self.options.priority == "program":
            order = range(len(ops))
        else:
            raise ValueError(f"unknown priority {self.options.priority!r}")
        for i in order:
            op = ops[i]
            reads, writes = locs[i]
            request = self._build_request(op)
            t0 = self._earliest_by_deps(reads, writes, request[1])
            prefetchable = (
                self.options.prefetch
                and op.kind in _PREFETCHABLE
                and self.n_prefetch < self.options.max_prefetch
            )
            t, first_read_block = self._first_fit(request, t0, prefetchable)
            if t - t0 > self.options.window:
                raise RuntimeError(
                    f"scheduler window exceeded for {op.tag or op.kind}"
                )
            if (
                prefetchable
                and first_read_block is not None
                and t > first_read_block
            ):
                rewritten = self._try_prefetch(op, request, reads, first_read_block)
                if rewritten is not None:
                    # Retry from the originally blocked slot with the
                    # rewritten operand.
                    reads = rewritten
                    request = self._build_request(op)
                    t, _ = self._first_fit(request, first_read_block, False)
            self._place(op, t, request, reads, writes)
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
        remaining = self.program.ops
        locs = self._location_ids(remaining)
        requests: list[tuple | None] = [None] * len(remaining)
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
            stalled_writes: set[int] = set()
            stalled_reads: set[int] = set()
            count = 0
            i = head
            while i < total and count < window:
                if not issued[i]:
                    count += 1
                    op = remaining[i]
                    reads, writes = locs[i]
                    if requests[i] is None:
                        requests[i] = self._build_request(op)
                    request = requests[i]
                    ok = (
                        self._earliest_by_deps(reads, writes, request[1]) <= t
                        and not any(l in stalled_writes for l in reads)
                        and not any(l in stalled_writes for l in writes)
                        and not any(l in stalled_reads for l in writes)
                        and self._probe(request, t)[0]
                    )
                    if ok:
                        self._place(op, t, request, reads, writes)
                        issued[i] = True
                        n_issued += 1
                    else:
                        stalled_writes.update(writes)
                        stalled_reads.update(reads)
                i += 1
            while head < total and issued[head]:
                head += 1
            t += 1
            if t > len(self.occ) + self.latency + self.options.window:
                raise RuntimeError("dynamic scheduler made no progress")
        return self._finish()

    def run_single_issue(self) -> Schedule:
        next_free = 0
        ops = self.program.ops
        for op, (reads, writes) in zip(ops, self._location_ids(ops)):
            request = self._build_request(op)
            t = max(next_free, self._earliest_by_deps(reads, writes, request[1]))
            self._place(op, t, request, reads, writes)
            next_free = t + request[1]
        return self._finish()

    def _finish(self) -> Schedule:
        # The schedule ends when its last op does: a double-pumped op
        # issued in the last bundle holds one slot past it.
        return Schedule(
            name=self.program.name,
            c=self.c,
            slots=self.bundles[: self._end],
            n_ops=len(self.program.ops) + self.n_prefetch,
            n_prefetch=self.n_prefetch,
            extra_latency=self.options.extra_latency,
        )


def schedule_program(
    program: NetworkProgram,
    c: int,
    options: ScheduleOptions | None = None,
) -> Schedule:
    """Schedule a lowered program for a width-``C`` network."""
    options = options or ScheduleOptions()
    sched = _FirstFitScheduler(program, c, options)
    if options.mode == "dynamic":
        return sched.run_dynamic(options.dynamic_window)
    if options.mode != "static":
        raise ValueError(f"unknown scheduling mode {options.mode!r}")
    if options.multi_issue:
        return sched.run_multi_issue()
    return sched.run_single_issue()
