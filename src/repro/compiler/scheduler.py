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
  register-file port usage; walking the initial order, each instruction
  is placed in the first slot where (a) all data dependencies have
  committed, and (b) no structural resource collides.

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
from dataclasses import dataclass, field

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
    # Instruction priority for static first-fit: "program" keeps the
    # lowering order (the paper's method); "critical_path" list-schedules
    # by dependency height, releasing long chains first.
    priority: str = "program"


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


@dataclass
class _Tracker:
    """Data-dependency bookkeeping across placed instructions."""

    ready: dict[Location, int] = field(default_factory=dict)  # commit cycle
    last_read: dict[Location, int] = field(default_factory=dict)
    last_write_commit: dict[Location, int] = field(default_factory=dict)


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
        self.track = _Tracker()
        self.n_prefetch = 0
        # Requests of instructions not yet placed, keyed by id(op): the
        # ops outlive the scheduler, the table does not.
        self._requests: dict[int, tuple] = {}
        self._request_builds = 0
        # Per read-free one-cycle request, a run of slots ``[lo, hi)``
        # it is known not to fit (``_first_fit``).
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

    def _request(self, op: NetOp) -> tuple:
        """The hardware request of ``op``: ``(occ, dur, reads, writes,
        is_scalar)``; occupancy and the port bank masks are held in
        every one of the ``dur`` cycles."""
        req = self._requests.get(id(op))
        if req is None:
            req = (
                op_occupancy(op, self.bf),
                op_duration(op),
                *op_ports(op),
                op.kind is OpKind.SCALAR,
            )
            self._requests[id(op)] = req
            self._request_builds += 1
        return req

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
        return self._probe(self._request(op), t)

    def _probe(self, request: tuple, t: int) -> tuple[bool, bool]:
        """:meth:`_fits` for an already-derived request."""
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

    def _first_fit(self, op: NetOp, t0: int) -> tuple[int, int | None]:
        """First slot at or after ``t0`` where ``op`` fits, and the first
        slot on the way whose read ports blocked it (``None`` if none).

        The scan is linear on purpose: *which* slot first shows a
        read-port clash decides where a prefetch copy is aimed, so it is
        part of the emitted schedule and a skip index could not know it.
        A request that reads no register can clash with no read port, so
        it alone skips the slots an identical request already failed.
        """
        request = self._request(op)
        occ, dur, reads, writes, is_scalar = request
        first_read_block: int | None = None
        t = t0
        if dur == 1:
            # The common case, inlined: one cycle, three ANDs a probe.
            # A slot past the end is empty, so it always fits.
            s_occ, s_rd, s_wr, s_sc = self.occ, self.rd, self.wr, self.sc
            n = len(s_occ)
            if not reads:
                # No read port, so no read clash to report: the answer
                # is the first slot that fits.  Slots only fill up, so
                # a run of slots this request did not fit never fits it
                # again, and a scan that starts inside the run may
                # start at its end.
                lo, hi = self._unfit.get(request, (t, t))
                if not lo <= t <= hi:
                    lo = hi = t
                t = hi
            while t < n:
                if reads & s_rd[t]:
                    if first_read_block is None:
                        first_read_block = t
                elif not (
                    occ & s_occ[t]
                    or writes & s_wr[t]
                    or (is_scalar and s_sc[t] >= SCALAR_UNITS)
                ):
                    break
                t += 1
            if not reads:
                self._unfit[request] = (lo, t)
        else:
            # Double-pumped EWISE holds its ports over two cycles.
            while True:
                fits, read_block = self._probe(request, t)
                if fits:
                    break
                if read_block and first_read_block is None:
                    first_read_block = t
                t += 1
        return t, first_read_block

    def _place(self, op: NetOp, t: int) -> None:
        op._seq = self._next_seq  # program order, consumed by the simulator
        self._next_seq += 1
        occ, dur, reads, writes, is_scalar = self._request(op)
        del self._requests[id(op)]
        self._grow(t + dur)
        for u in range(t, t + dur):
            self.occ[u] |= occ
            self.rd[u] |= reads
            self.wr[u] |= writes
        if is_scalar:
            self.sc[t] += 1
        self.bundles[t].append(op)
        last = t + dur - 1
        commit = last + self.latency
        track = self.track
        for loc in op.all_read_locations():
            if track.last_read.get(loc, -1) < last:
                track.last_read[loc] = last
        for loc in op.all_write_locations():
            if track.ready.get(loc, 0) <= commit:
                track.ready[loc] = commit + 1
            if track.last_write_commit.get(loc, -1) < commit:
                track.last_write_commit[loc] = commit

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
        blocked_reads = self.rd[t_blocked]
        own_banks = self._request(op)[2]
        # The copy must commit before the blocked issue cycle; every
        # candidate slot lies below ``t_blocked`` and so already exists.
        t_copy_max = t_blocked - self.latency - 1
        all_banks = (1 << self.c) - 1
        for ri, loc in enumerate(op.reads):
            if loc.space != "rf" or not (blocked_reads >> loc.bank) & 1:
                continue
            t_ready = self.track.ready.get(loc, 0)
            if t_copy_max < t_ready:
                continue
            src_bit = 1 << loc.bank
            # Never collide with the op's own operand banks, nor with
            # reads already placed in the blocked slot.
            forbidden = src_bit | blocked_reads | own_banks
            for t_copy in range(t_ready, t_copy_max + 1):
                if self.rd[t_copy] & src_bit:
                    continue
                free = all_banks & ~(forbidden | self.wr[t_copy])
                slot_occ = self.occ[t_copy]
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
                    # The one point an instruction's request changes:
                    # drop it (and the occupancy cached on the op).
                    op._occ = None
                    del self._requests[id(op)]
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
        order = sorted(range(n), key=lambda i: (-height[i], i))
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
            t, first_read_block = self._first_fit(op, t0)
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
                t, _ = self._first_fit(op, first_read_block)
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
            if t > len(self.occ) + self.latency + self.options.window:
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
        # Trim trailing empty slots.
        last = max(
            (t for t, b in enumerate(self.bundles) if b), default=-1
        )
        return Schedule(
            name=self.program.name,
            c=self.c,
            slots=self.bundles[: last + 1],
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
