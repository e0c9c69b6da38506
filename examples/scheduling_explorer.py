#!/usr/bin/env python3
"""Explore multi-issue instruction scheduling across domains (Fig. 8).

For each benchmark domain, lowers the constraint-matrix SpMV (and, for
the direct path, the KKT factorization) into network instructions and
shows what first-fit multi-issue packing buys over sequential issue:
cycles before/after, mean issue width, node utilization and prefetch
copies.

Run:  python examples/scheduling_explorer.py [C]
"""

from __future__ import annotations

import sys

from repro.analysis import ascii_table
from repro.compiler import KernelBuilder, NetworkProgram, compare_scheduling, row_major_view
from repro.linalg import symbolic_factor
from repro.problems import benchmark_suite
from repro.solver import assemble_kkt
import numpy as np


def spmv_program(problem, c: int) -> NetworkProgram:
    kb = KernelBuilder(c)
    x = kb.vector("x", problem.n)
    y = kb.vector("y", problem.m)
    ops = kb.spmv(row_major_view(problem.a), x, y, "A")
    return NetworkProgram(f"{problem.name}:spmv", ops)


def factor_program(problem, c: int) -> NetworkProgram:
    kb = KernelBuilder(c)
    rho = np.full(problem.m, 0.1)
    kkt = assemble_kkt(problem, 1e-6, rho)
    sym = symbolic_factor(kkt.matrix)
    dim = problem.n + problem.m
    ops = kb.factorization(
        sym,
        kkt.matrix,
        y=kb.lane_copies(kb.vector("fy", dim)),
        d=kb.vector("fd", dim),
        dinv=kb.vector("fdinv", dim),
    )
    return NetworkProgram(f"{problem.name}:factor", ops)


def main() -> None:
    c = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    rows = []
    for spec in benchmark_suite(n_scales=3):
        if spec.scale_index != 1:
            continue
        problem = spec.generate()
        for kind, build in (("spmv", spmv_program), ("factor", factor_program)):
            cmp = compare_scheduling(build(problem, c), c)
            rows.append(
                [
                    spec.domain,
                    kind,
                    cmp.n_ops,
                    cmp.cycles_before,
                    cmp.cycles_after,
                    f"{cmp.speedup:.2f}x",
                    f"{cmp.mean_issue_width:.2f}",
                    cmp.n_prefetch,
                ]
            )
    print(
        ascii_table(
            [
                "domain",
                "kernel",
                "ops",
                "cycles before",
                "cycles after",
                "reduction",
                "issue width",
                "prefetches",
            ],
            rows,
            title=f"multi-issue scheduling across domains (C={c})",
        )
    )
    print(
        "\nThe SVM SpMV row is this reproduction's counterpart of the"
        "\npaper's Fig. 8 example (2072 -> 271 cycles at C=32)."
    )


if __name__ == "__main__":
    main()
