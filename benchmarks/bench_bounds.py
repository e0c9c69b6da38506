"""Scheduled slots against lower bounds, per kernel.

For the four kernels a network-executed ADMM solve runs (``factor``,
``kkt_solve``, ``iter_pre``, ``iter_post``) on the five domains at
C = 8 and 32, reports the slots the scheduler emits beside two lower
bounds on any schedule of the same lowered program
(:func:`schedule_bounds`): the renamed
dependency bound, and the resource bound with the term that sets it.
For ``factor`` and ``kkt_solve``, the kernels critical-path order
shortens, it also reports the slots of the same program scheduled in
program order, and below the table their sums over every cell.
Below that, the register-file rows each pattern allocates: the
factorization's per-lane scratch copies are the only ones that grow
with C, and ``arch/resources.py`` prices no register-file storage.

A schedule's slots run to the end of its last op, the second cycle of
a closing double-pumped element-wise op included, so every bound is a
bound on the slots.

* ``pytest benchmarks/bench_bounds.py`` — writes
  ``benchmarks/results/ablation_bounds.txt``.
* ``python benchmarks/bench_bounds.py [--check]`` — the same table;
  ``--check`` writes nothing and exits non-zero when a kernel's slots
  are below a bound, when the default's ``factor`` + ``kkt_solve``
  slots sum to more than program order's, or when the table differs
  from the committed file.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from dataclasses import dataclass

from repro.analysis import ascii_table
from repro.arch.isa import OpKind
from repro.arch.simulator import (
    SCALAR_UNITS,
    op_duration,
    op_occupancy,
    op_ports,
)
from repro.arch.topology import Butterfly
from repro.backends import MIBSolver
from repro.compiler import NetworkProgram, schedule_program
from repro.problems import (
    huber_problem,
    lasso_problem,
    mpc_problem,
    portfolio_problem,
    svm_problem,
)

from benchmarks.common import RESULTS_DIR, emit

RESULT = "ablation_bounds.txt"
KERNELS = ("factor", "kkt_solve", "iter_pre", "iter_post")
# The kernels also scheduled in program order.
ORDERED = ("factor", "kkt_solve")
WIDTHS = (8, 32)
PATTERNS = {
    "lasso": lambda: lasso_problem(16, n_samples=64, seed=0),
    "mpc": lambda: mpc_problem(6, seed=0),
    "portfolio": lambda: portfolio_problem(48, seed=0),
    "svm": lambda: svm_problem(10, n_samples=40, seed=0),
    "huber": lambda: huber_problem(10, n_samples=30, seed=0),
}


@dataclass(frozen=True)
class ScheduleBounds:
    """Lower bounds, in issue slots, on any schedule of one program.

    ``dependency`` is the ASAP length on unlimited hardware that keeps
    every read-after-write dependency and the commit order of the
    accumulations into one value, but renames storage reuse away (no
    WAR / WAW ordering).  The rest are resource bounds: network node
    slots (``nodes``), scalar units (``scalar``), register-file read
    ports over all ``C`` banks (``reads``) and the busiest bank's write
    port (``bank_writes``).  A schedule's slots minus ``dependency`` is
    what false dependencies and packing cost it.
    """

    dependency: int
    nodes: int
    scalar: int
    reads: int
    bank_writes: int

    def resource_terms(self) -> dict[str, int]:
        return {
            "nodes": self.nodes,
            "scalar": self.scalar,
            "reads/C": self.reads,
            "bank writes": self.bank_writes,
        }

    @property
    def resource(self) -> int:
        return max(self.resource_terms().values())

    @property
    def bound(self) -> int:
        return max(self.dependency, self.resource)


def schedule_bounds(
    program: NetworkProgram, c: int, *, extra_latency: int = 0
) -> ScheduleBounds:
    """The :class:`ScheduleBounds` of an unscheduled ``program``.

    Port usage follows the machine's one model (``op_ports``): an op
    holds its node occupancy and its read banks in every cycle it
    occupies, so reads count one port per distinct bank per cycle.
    Writes count once per op and written bank, a valid but looser
    bound: a double-pumped op holds its write ports for both cycles.
    """
    bf = Butterfly(c)
    latency = bf.latency + extra_latency
    nodes_mask = bf.full_mask()
    ready: dict = {}  # location -> first slot its current value is readable
    last_commit: dict = {}  # location -> commit slot of its last write
    dependency = node_slots = scalars = reads = 0
    bank_writes = [0] * c
    for op in program.ops:
        dur = op_duration(op)
        t = max(
            (ready.get(loc, 0) for loc in op.all_read_locations()), default=0
        )
        for loc, acc in op.writes:
            if acc and loc in last_commit:
                t = max(t, last_commit[loc] + 1 - (dur - 1 + latency))
        commit = t + dur - 1 + latency
        for loc, acc in op.writes:
            last_commit[loc] = commit
            ready[loc] = commit + 1
        dependency = max(dependency, t + dur)
        node_slots += dur * bin(op_occupancy(op, bf) & nodes_mask).count("1")
        scalars += op.kind is OpKind.SCALAR
        read_banks, write_banks = op_ports(op)
        reads += dur * read_banks.bit_count()
        for bank in range(c):
            bank_writes[bank] += write_banks >> bank & 1
    return ScheduleBounds(
        dependency=dependency,
        nodes=-(-node_slots // bf.num_nodes),
        scalar=-(-scalars // SCALAR_UNITS),
        reads=-(-reads // c),
        bank_writes=max(bank_writes),
    )


class BoundedSolver(MIBSolver):
    """An :class:`MIBSolver` that records each kernel's bounds from its
    lowered program, before the scheduler rewrites it, and the slots of
    the ``ORDERED`` kernels scheduled in program order."""

    def __init__(self, *args, **kwargs) -> None:
        self.bounds: dict[str, ScheduleBounds] = {}
        self.program_order_slots: dict[str, int] = {}
        super().__init__(*args, **kwargs)

    def _schedule(self, name, ops):
        ops = list(ops)
        self.bounds[name] = schedule_bounds(
            NetworkProgram(name, ops),
            self.c,
            extra_latency=self.options.extra_latency,
        )
        if name in ORDERED:
            # The scheduler rewrites the ops it places: schedule a copy.
            self.program_order_slots[name] = schedule_program(
                NetworkProgram(name, copy.deepcopy(ops)),
                self.c,
                dataclasses.replace(self.options, priority="program"),
            ).n_slots
        return super()._schedule(name, ops)


def measure() -> tuple[list[list], list[list], list[str]]:
    """``(bound rows, register-file rows, violations)``."""
    rows, rf_rows, violations = [], [], []
    for c in WIDTHS:
        for domain, make in PATTERNS.items():
            solver = BoundedSolver(make(), c=c)
            for kernel in KERNELS:
                sched = solver.kernels.schedules[kernel]
                b = solver.bounds[kernel]
                terms = b.resource_terms()
                rows.append([
                    c, domain, kernel, sched.n_slots,
                    solver.program_order_slots.get(kernel, "-"),
                    b.dependency, b.resource, max(terms, key=terms.get),
                    f"{sched.n_slots / b.bound:.2f}",
                ])
                if sched.n_slots < b.bound:
                    violations.append(f"C={c} {domain} {kernel}: {b}")
            alloc = solver.builder.alloc
            copies = (c - 1) * alloc.get("factor_y").rows()
            used = alloc.used_rows
            rf_rows.append([
                c, domain, used - copies, used, copies * c,
                f"{used / (used - copies):.2f}",
            ])
    return rows, rf_rows, violations


def ordered_sums(rows) -> tuple[int, int]:
    """``ORDERED`` kernels' slots summed over the table's cells:
    ``(default, program order)``."""
    cells = [r for r in rows if r[2] in ORDERED]
    return sum(r[3] for r in cells), sum(r[4] for r in cells)


def render(rows, rf_rows) -> str:
    default, program = ordered_sums(rows)
    return "\n\n".join([
        ascii_table(
            ["C", "domain", "kernel", "slots", "program order", "dep bound",
             "res bound", "res term", "slots/bound"],
            rows,
            title="Ablation 10 — scheduled slots vs lower bounds",
        )
        + f"\n{' + '.join(ORDERED)} slots over all cells: {default}"
        f" (critical path, the default) vs {program} (program order)",
        ascii_table(
            ["C", "domain", "rf rows K=1", "rf rows K=C", "copy words",
             "ratio"],
            rf_rows,
            title="Register-file rows: one factor scratch vs one per lane",
        ),
    ])


def test_ablation_bounds(benchmark):
    rows, rf_rows, violations = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    emit(RESULT, render(rows, rf_rows))
    assert not violations, violations


def main(argv: list[str]) -> int:
    rows, rf_rows, violations = measure()
    text = render(rows, rf_rows)
    if "--check" not in argv:
        emit(RESULT, text)
        return 0
    print(text)
    failures = [f"slots below bound: {v}" for v in violations]
    default, program = ordered_sums(rows)
    if default > program:
        failures.append(
            f"{' + '.join(ORDERED)} slots {default} exceed program order's"
            f" {program}"
        )
    committed = (RESULTS_DIR / RESULT).read_text()
    if committed != text + "\n":
        failures.append(f"{RESULT} differs from the regenerated table")
    for failure in failures:
        print(f"FAIL {failure}")
    if not failures:
        print("bounds check OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
