"""Schedule statistics and comparison reports (Fig. 8).

Summarizes what multi-issue reordering buys: total cycles before and
after, issue-width distribution, and node utilization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import NetworkProgram
from .scheduler import Schedule, ScheduleOptions, schedule_program

__all__ = [
    "SchedulingComparison",
    "compare_scheduling",
    "dependency_edge_count",
    "render_occupancy",
]


@dataclass(frozen=True)
class SchedulingComparison:
    """Before/after-reordering metrics of one network program."""

    name: str
    c: int
    n_ops: int
    cycles_before: int
    cycles_after: int
    mean_issue_width: float
    utilization_before: float
    utilization_after: float
    n_prefetch: int

    @property
    def speedup(self) -> float:
        return self.cycles_before / self.cycles_after if self.cycles_after else 0.0

    def rows(self) -> list[tuple[str, str]]:
        """Key/value rows for the report renderer."""
        return [
            ("program", self.name),
            ("network width C", str(self.c)),
            ("network instructions", str(self.n_ops)),
            ("cycles before reordering", str(self.cycles_before)),
            ("cycles after reordering", str(self.cycles_after)),
            ("cycle reduction", f"{self.speedup:.2f}x"),
            ("mean issue width", f"{self.mean_issue_width:.2f}"),
            ("node utilization before", f"{self.utilization_before:.3f}"),
            ("node utilization after", f"{self.utilization_after:.3f}"),
            ("prefetch copies inserted", str(self.n_prefetch)),
        ]


def dependency_edge_count(program: NetworkProgram) -> int:
    """Number of data-dependency edges in a program's dependency graph.

    Counts producer→consumer pairs over locations (RAW edges from the
    most recent writer, plus WAR/WAW ordering edges), the quantity
    behind the paper's Fig. 8 observation that the factorization's
    dependency graph has "orders of magnitude more edges" than the
    multiplication case.
    """
    last_writer: dict = {}
    readers_since_write: dict = {}
    edges = 0
    for idx, op in enumerate(program.ops):
        for loc in op.all_read_locations():
            if loc in last_writer:
                edges += 1  # RAW
            readers_since_write.setdefault(loc, []).append(idx)
        for loc, _acc in op.writes:
            if loc in last_writer:
                edges += 1  # WAW
            edges += len(readers_since_write.get(loc, ()))  # WAR
            readers_since_write[loc] = []
            last_writer[loc] = idx
    return edges


def render_occupancy(
    schedule: Schedule, *, start: int = 0, count: int = 24
) -> str:
    """ASCII Gantt of per-slot network occupancy (a textual Fig. 8).

    One line per issue slot: issue width, busy-node fraction as a bar,
    and the tags of the co-issued instructions.
    """
    from ..arch.topology import Butterfly
    from ..arch.simulator import op_occupancy

    bf = Butterfly(schedule.c)
    total = bf.num_nodes
    lines = [f"slot | width | occupancy ({total} nodes)"]
    for t in range(start, min(start + count, len(schedule.slots))):
        bundle = schedule.slots[t]
        busy = 0
        for op in bundle:
            busy += bin(op_occupancy(op, bf) & bf.full_mask()).count("1")
        bar_len = int(round(20 * busy / total))
        tags = ",".join((op.tag or op.kind.value) for op in bundle[:3])
        if len(bundle) > 3:
            tags += f",+{len(bundle) - 3}"
        lines.append(
            f"{t:4d} | {len(bundle):5d} | "
            f"[{'#' * bar_len}{'.' * (20 - bar_len)}] {tags}"
        )
    return "\n".join(lines)


def compare_scheduling(
    program: NetworkProgram, c: int, *, prefetch: bool = True
) -> SchedulingComparison:
    """Schedule a program with and without multi-issue (Fig. 8), both
    walking it in program order as the figure does."""
    before = schedule_program(
        program, c, ScheduleOptions(multi_issue=False, prefetch=False)
    )
    after = schedule_program(
        program,
        c,
        ScheduleOptions(multi_issue=True, prefetch=prefetch, priority="program"),
    )
    return SchedulingComparison(
        name=program.name,
        c=c,
        n_ops=len(program.ops),
        cycles_before=before.cycles,
        cycles_after=after.cycles,
        mean_issue_width=after.mean_issue_width(),
        utilization_before=before.occupancy_utilization(),
        utilization_after=after.occupancy_utilization(),
        n_prefetch=after.n_prefetch,
    )
