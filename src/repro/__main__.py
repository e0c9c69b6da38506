"""Command-line interface: ``python -m repro <command>``.

Commands
--------
solve      Generate a benchmark problem and solve it (host reference,
           cycle-priced MIB backend, or fully network-executed).
compile    Compile a problem's sparsity pattern and report per-kernel
           schedules; optionally save the executable.
schedule   Fig. 8-style before/after multi-issue comparison of one
           kernel.
suite      Quick sweep over the benchmark grid with modeled speedups.
serve      Long-running QP solve service (warm solver pool, HTTP/JSON
           API, live metrics) — see repro.serve.
info       Architecture summary for a given network width.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .analysis import (
    ascii_table,
    evaluate_problem,
    evaluate_suite,
    format_si,
    kv_block,
    process_cache,
    suite_summary_block,
)
from .arch import Butterfly, estimate_resources
from .backends import MIBSolver
from .compiler import (
    KernelBuilder,
    NetworkProgram,
    ScheduleCache,
    compare_scheduling,
    row_major_view,
    save_schedule,
)
from .problems import DOMAINS, benchmark_suite, domain_scales
from .problems.suite import _GENERATORS
from .solver import Settings, solve as host_solve


def _make_problem(args) -> object:
    if getattr(args, "qps", None):
        from .io import read_qps

        return read_qps(args.qps)
    if args.domain not in _GENERATORS:
        raise SystemExit(f"unknown domain {args.domain!r}; pick from {DOMAINS}")
    return _GENERATORS[args.domain](args.dimension, args.seed)


def _settings(args) -> Settings:
    return Settings(eps_abs=args.eps, eps_rel=args.eps)


def cmd_solve(args) -> int:
    problem = _make_problem(args)
    settings = _settings(args)
    print(f"problem: {problem.name}  n={problem.n} m={problem.m} nnz={problem.nnz}")
    if args.backend == "host":
        result = host_solve(problem, variant=args.variant, settings=settings)
        rows = [
            ("status", result.status.value),
            ("iterations", result.iterations),
            ("objective", f"{result.objective:.6f}"),
            ("primal residual", f"{result.primal_residual:.2e}"),
            ("dual residual", f"{result.dual_residual:.2e}"),
            ("total FLOPs", format_si(result.trace.total_flops)),
        ]
    else:
        solver = MIBSolver(
            problem,
            variant=args.variant,
            c=args.width,
            settings=settings,
            execution=args.execution,
        )
        if args.backend == "network":
            net = solver.solve_on_network()
            rows = [
                ("status", net.status.value),
                ("iterations", net.iterations),
                ("objective", f"{net.objective:.6f}"),
                ("executed cycles", net.cycles),
                ("rho refactorizations", net.rho_updates),
                (f"host crossings ({args.execution})", net.host_crossings),
                ("device time", f"{net.cycles / solver.clock_hz * 1e6:.1f} us"),
            ]
        else:
            report = solver.solve()
            rows = [
                ("status", report.result.status.value),
                ("iterations", report.result.iterations),
                ("objective", f"{report.result.objective:.6f}"),
                ("cycles", report.cycles),
                ("runtime", f"{report.runtime_seconds * 1e6:.1f} us"),
                ("compile time", f"{solver.compile_seconds * 1e3:.1f} ms"),
            ]
    print(kv_block(f"{args.backend} / {args.variant}", rows))
    return 0


def cmd_compile(args) -> int:
    problem = _make_problem(args)
    cache = ScheduleCache(args.cache_dir) if args.cache_dir else None
    solver = MIBSolver(
        problem,
        variant=args.variant,
        c=args.width,
        settings=_settings(args),
        cache=cache,
    )
    rows = [
        [name, sched.n_ops, sched.n_slots, sched.cycles, f"{sched.mean_issue_width():.2f}"]
        for name, sched in solver.kernels.schedules.items()
    ]
    print(
        ascii_table(
            ["kernel", "instructions", "slots", "cycles", "issue width"],
            rows,
            title=f"compiled {problem.name} for C={args.width} "
            f"({solver.compile_seconds:.2f}s)",
        )
    )
    if cache is not None:
        status = "hit" if solver.cache_hit else "miss (stored)"
        print(f"cache: {status}  key={solver.cache_key[:16]}…  dir={cache.cache_dir}")
    if args.output:
        for name, sched in solver.kernels.schedules.items():
            path = save_schedule(sched, f"{args.output}.{name}.mibx")
            print(f"saved {path}")
    return 0


def cmd_schedule(args) -> int:
    problem = _make_problem(args)
    kb = KernelBuilder(args.width)
    x = kb.vector("x", problem.n)
    y = kb.vector("y", problem.m)
    program = NetworkProgram(
        f"{problem.name}:spmv", kb.spmv(row_major_view(problem.a), x, y, "A")
    )
    cmp = compare_scheduling(program, args.width)
    print(kv_block("multi-issue scheduling (Fig. 8)", cmp.rows()))
    return 0


def suite_rows(
    specs, evaluations
) -> tuple[list[str], list[list[object]]]:
    """Deterministic per-problem table rows for ``suite`` output.

    Factored out so the parallel-determinism tests can byte-compare
    the exact rows a ``--jobs N`` run renders.
    """
    rows = []
    baselines: list[str] = []
    for spec, ev in zip(specs, evaluations):
        baselines = sorted(set(ev.measurements) - {"mib"})
        rows.append(
            [
                spec.label,
                ev.nnz,
                ev.iterations,
                format_si(ev.measurements["mib"].runtime_s) + "s",
            ]
            + [f"{ev.speedup_over(b):.1f}x" for b in baselines]
        )
    headers = ["problem", "nnz", "iters", "MIB runtime"] + [
        f"vs {b}" for b in baselines
    ]
    return headers, rows


def cmd_suite(args) -> int:
    domains = (
        tuple(d.strip() for d in args.domains.split(",") if d.strip())
        if args.domains
        else DOMAINS
    )
    try:
        specs = benchmark_suite(domains=domains, n_scales=args.scales)
    except ValueError as exc:
        raise SystemExit(f"{exc}; pick from {DOMAINS}")
    t0 = time.perf_counter()
    evaluations = evaluate_suite(
        specs,
        variant=args.variant,
        c=args.width,
        settings=_settings(args),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    wall = time.perf_counter() - t0
    headers, rows = suite_rows(specs, evaluations)
    print(ascii_table(headers, rows, title=f"suite sweep ({args.variant}, C={args.width})"))
    cache_hits = sum(ev.cache_hit for ev in evaluations)
    cache = process_cache(args.cache_dir) if args.jobs <= 1 else None
    print()
    print(
        suite_summary_block(
            problems=len(evaluations),
            jobs=args.jobs,
            wall_seconds=wall,
            compile_seconds=sum(ev.compile_seconds for ev in evaluations),
            solve_seconds=sum(ev.solve_seconds for ev in evaluations),
            cache_hits=cache_hits if args.cache_dir else None,
            cache_misses=(
                len(evaluations) - cache_hits if args.cache_dir else None
            ),
            extra_rows=cache.stats.rows() if cache is not None else [],
        )
    )
    return 0


def cmd_serve(args) -> int:
    from .serve import ServeServer

    server = ServeServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        max_batch=args.max_batch,
        batch_policy=args.batch_policy,
        default_timeout_s=args.timeout,
        capacity=args.pool_size,
        variant=args.variant,
        c=args.width,
        settings=_settings(args),
        cache_dir=args.cache_dir,
        shards=args.shards,
        session_capacity=args.session_capacity,
        session_ttl_s=args.session_ttl,
    )
    server.start()
    tier = (
        f"shards={args.shards} x workers={args.workers}"
        if args.shards
        else f"workers={args.workers}"
    )
    print(
        f"repro.serve listening on http://{server.host}:{server.port} "
        f"(variant={args.variant}, C={args.width}, pool={args.pool_size}, "
        f"{tier}, max-batch={args.max_batch}, "
        f"policy={args.batch_policy})"
    )
    print(
        "endpoints: POST /v1/solve   POST /v1/sequence   "
        "POST /v1/scenarios   GET /v1/health   GET /v1/metrics"
    )
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("\nshutting down...")
    finally:
        server.stop()
        print(server.metrics.render())
    return 0


def cmd_info(args) -> int:
    bf = Butterfly(args.width)
    est = estimate_resources(args.width)
    rows = [
        ("network width C", args.width),
        ("adder stages", bf.stages),
        ("total nodes C(log2C+1)", bf.num_nodes),
        ("pipeline latency", f"{bf.latency} cycles"),
        ("raw control bits / instr", bf.control_bits),
        ("clock (model)", f"{est.clock_hz / 1e6:.0f} MHz"),
        ("LUTs", f"{est.luts:,} ({est.utilization()['LUT']:.1%} of U50)"),
        ("registers", f"{est.registers:,} ({est.utilization()['Register']:.1%})"),
        ("fits Alveo U50", est.fits()),
    ]
    print(kv_block("MIB architecture summary", rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Multi-Issue Butterfly reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_args(p):
        p.add_argument("--domain", default="portfolio", help=f"one of {DOMAINS}")
        p.add_argument("--dimension", type=int, default=20)
        p.add_argument("--qps", help="load the problem from a QPS file instead")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--variant", choices=("direct", "indirect"), default="direct")
        p.add_argument("--width", type=int, default=16, help="network width C")
        p.add_argument("--eps", type=float, default=1e-3)

    p = sub.add_parser("solve", help="solve one benchmark problem")
    add_problem_args(p)
    p.add_argument(
        "--backend", choices=("host", "mib", "network"), default="mib"
    )
    p.add_argument(
        "--execution",
        choices=("interpret", "replay"),
        default="replay",
        help="how '--backend network' runs kernels: 'interpret' "
        "(cycle-stepped oracle) or 'replay' (per-kernel compiled "
        "traces; bit-identical)",
    )
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("compile", help="compile a pattern, report kernels")
    add_problem_args(p)
    p.add_argument("--output", help="path prefix for saved executables")
    p.add_argument(
        "--cache-dir",
        help="pattern-keyed compilation cache directory (reuses or "
        "stores the compiled executable)",
    )
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("schedule", help="Fig. 8 before/after comparison")
    add_problem_args(p)
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser("suite", help="sweep the benchmark grid")
    add_problem_args(p)
    p.add_argument("--scales", type=int, default=3)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel compile+solve worker processes (deterministic "
        "output order; 1 = serial)",
    )
    p.add_argument(
        "--cache-dir",
        help="shared compilation cache directory for the sweep",
    )
    p.add_argument(
        "--domains",
        help=f"comma-separated subset of {DOMAINS} (default: all)",
    )
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("serve", help="run the QP solve service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000, help="0 = ephemeral")
    p.add_argument(
        "--workers", type=int, default=2, help="queue-draining solver threads"
    )
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run N shard worker processes (consistent-hash pattern "
        "routing, values over each shard's pipe; 0 = in-process). "
        "--workers then counts drain threads per shard",
    )
    p.add_argument(
        "--pool-size",
        type=int,
        default=8,
        help="warm solvers kept resident (LRU beyond this)",
    )
    p.add_argument(
        "--queue-size", type=int, default=64, help="pending-request bound"
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="coalesced same-pattern requests solved per dispatch "
        "(1 disables coalescing)",
    )
    p.add_argument(
        "--batch-policy",
        choices=("adaptive", "greedy", "off"),
        default="adaptive",
        help="batching policy: 'adaptive' learns per-pattern batch "
        "caps, value buckets and dispatch holds online; "
        "'greedy' always coalesces up to --max-batch; 'off' "
        "disables coalescing",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="default per-request deadline in seconds",
    )
    p.add_argument(
        "--cache-dir",
        help="pattern-keyed compilation cache directory shared with "
        "suite/compile runs",
    )
    p.add_argument(
        "--session-capacity",
        type=int,
        default=256,
        help="client warm-start sessions kept resident per pool "
        "(LRU beyond this; see POST /v1/solve 'session')",
    )
    p.add_argument(
        "--session-ttl",
        type=float,
        default=300.0,
        help="idle seconds before a warm-start session expires",
    )
    p.add_argument("--variant", choices=("direct", "indirect"), default="direct")
    p.add_argument("--width", type=int, default=16, help="network width C")
    p.add_argument("--eps", type=float, default=1e-3)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("info", help="architecture summary")
    p.add_argument("--width", type=int, default=32)
    p.set_defaults(fn=cmd_info)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
