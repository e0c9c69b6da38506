"""Figure 8: multi-issue network-instruction reordering.

The paper's example: the SpMV network program of the SVM domain's A
matrix at C = 32 drops from 2072 cycles (sequential issue) to 271
(first-fit multi-issue).  Regenerates the same experiment for the SVM
domain and reports the reduction for every domain; also validates on
the simulator that the reordered program computes the same result.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import ascii_table
from repro.arch import NetworkSimulator, StreamBuffers
from repro.compiler import (
    KernelBuilder,
    NetworkProgram,
    ScheduleOptions,
    compare_scheduling,
    row_major_view,
    schedule_program,
)
from repro.problems import DOMAINS, benchmark_suite, svm_problem

from benchmarks.common import emit, n_scales

C = 32


def _spmv_program(problem, c=C):
    kb = KernelBuilder(c)
    x = kb.vector("x", problem.n)
    y = kb.vector("y", problem.m)
    return (
        kb,
        NetworkProgram(
            f"{problem.name}:A-spmv", kb.spmv(row_major_view(problem.a), x, y, "A")
        ),
    )


def test_fig8_svm_spmv_reordering(benchmark):
    """The paper's headline example (SVM A-matrix SpMV, C=32)."""
    problem = svm_problem(40, n_samples=160)
    _, program = _spmv_program(problem)

    cmp = benchmark.pedantic(
        lambda: compare_scheduling(program, C), rounds=1, iterations=1
    )
    emit(
        "fig8_svm.txt",
        ascii_table(
            ["metric", "value"],
            cmp.rows(),
            title=(
                "Fig. 8 — SVM A-matrix SpMV network program, C=32 "
                "(paper: 2072 -> 271 cycles, 7.6x)"
            ),
        ),
    )
    # Shape: a large reduction from packing short instructions.
    assert cmp.speedup > 2.0
    assert cmp.mean_issue_width > 2.0
    assert cmp.utilization_after > cmp.utilization_before


def test_fig8_reordered_program_is_correct(benchmark):
    """The reordered schedule must compute the same SpMV (the simulator
    additionally enforces every hazard constraint)."""
    problem = svm_problem(20, n_samples=80)

    def run():
        results = {}
        for mi in (False, True):
            kb, program = _spmv_program(problem)
            sched = schedule_program(
                program, C, ScheduleOptions(multi_issue=mi, priority="program")
            )
            sim = NetworkSimulator(C, depth=1 << 23)
            xv = np.random.default_rng(0).standard_normal(problem.n)
            sim.rf.load_vector(kb.alloc.get("x"), xv)
            streams = StreamBuffers()
            streams.bind("A", problem.a.data)
            sim.run(sched.slots, streams)
            results[mi] = sim.rf.read_vector(kb.alloc.get("y"))
        return results, problem.a.matvec(xv)

    (results, expected) = benchmark.pedantic(run, rounds=1, iterations=1)
    np.testing.assert_allclose(results[True], results[False], atol=1e-10)
    np.testing.assert_allclose(results[True], expected, atol=1e-9)


def test_fig8_dependency_graph_density(benchmark):
    """Fig. 8 (right): 'The associated data dependency graph [of
    factorization] has orders of magnitude more edges compared to the
    matrix multiplication case.'"""
    from repro.compiler import dependency_edge_count
    from repro.linalg import symbolic_factor
    from repro.solver import assemble_kkt

    problem = svm_problem(24, n_samples=96)

    def run():
        kb, spmv_prog = _spmv_program(problem)
        kkt = assemble_kkt(problem, 1e-6, np.full(problem.m, 0.1))
        sym = symbolic_factor(kkt.matrix)
        kb2 = KernelBuilder(C)
        dim = problem.n + problem.m
        factor_prog = NetworkProgram(
            "factor",
            kb2.factorization(
                sym,
                kkt.matrix,
                y=kb2.lane_copies(kb2.vector("fy", dim)),
                d=kb2.vector("fd", dim),
                dinv=kb2.vector("fdinv", dim),
            ),
        )
        return {
            "spmv_ops": len(spmv_prog.ops),
            "spmv_edges": dependency_edge_count(spmv_prog),
            "factor_ops": len(factor_prog.ops),
            "factor_edges": dependency_edge_count(factor_prog),
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "fig8_dependency_graph.txt",
        ascii_table(
            ["program", "instructions", "dependency edges", "edges/instr"],
            [
                [
                    "A-matrix SpMV",
                    stats["spmv_ops"],
                    stats["spmv_edges"],
                    f"{stats['spmv_edges'] / stats['spmv_ops']:.2f}",
                ],
                [
                    "KKT factorization",
                    stats["factor_ops"],
                    stats["factor_edges"],
                    f"{stats['factor_edges'] / stats['factor_ops']:.2f}",
                ],
            ],
            title=(
                "Fig. 8 (right) — dependency-graph density: factorization "
                "vs multiplication (SVM, C=32)"
            ),
        ),
    )
    # Orders of magnitude more edges in absolute terms, and denser
    # per instruction.
    assert stats["factor_edges"] > 50 * stats["spmv_edges"]
    assert (
        stats["factor_edges"] / stats["factor_ops"]
        > stats["spmv_edges"] / stats["spmv_ops"]
    )


def test_fig8_all_domains(benchmark):
    """Cycle reduction of the A-matrix SpMV program for every domain."""
    specs = [
        s
        for s in benchmark_suite(n_scales=min(4, n_scales()))
        if s.scale_index == 1
    ]

    def run():
        rows = []
        for spec in specs:
            problem = spec.generate()
            _, program = _spmv_program(problem)
            cmp = compare_scheduling(program, C)
            rows.append(
                [
                    spec.domain,
                    cmp.n_ops,
                    cmp.cycles_before,
                    cmp.cycles_after,
                    f"{cmp.speedup:.2f}x",
                    f"{cmp.mean_issue_width:.2f}",
                    cmp.n_prefetch,
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "fig8_domains.txt",
        ascii_table(
            [
                "domain",
                "instructions",
                "cycles before",
                "cycles after",
                "reduction",
                "mean issue width",
                "prefetches",
            ],
            rows,
            title="Fig. 8 (extended) — SpMV reordering across domains, C=32",
        ),
    )
    assert {r[0] for r in rows} == set(DOMAINS)
    for r in rows:
        assert float(r[4].rstrip("x")) > 1.5, r
