"""The traced layer walk: one workload's inputs, in process, span by span.

The live run measures a request from outside and cannot see inside it.
The walk takes the same generated requests through the same public API
the server calls, in the same order, in this process, recording a span
at every layer boundary.  It has three parts:

* **pattern spans** (request id ``pattern:<name>``) — per sparsity
  pattern: ``MIBSolver`` construction cold and from the schedule cache,
  AMD ordering and symbolic factorization of its KKT system, eager
  trace lowering, and fixed-iteration probes of the network-executed
  engines (``solve_on_network``, ``solve_batch``);
* **request spans** (``<phase>:<index>``) — a share of the plan's
  requests, each taken through client encode → JSON decode → CSC
  rebuild → fingerprint → ``SolverPool`` → result encode → client
  decode.  A pool span has no recorded children: the solver it drives
  is constructed inside the pool, out of reach of instance-level
  wrappers, so its children are the durations the pool itself reports
  (``compile_seconds + solve_seconds``, kept as ``reported_child_ms``);
* **solver spans** (``<phase>:<index>/solver``) — the same instance on
  a twin ``MIBSolver`` the walk constructed, whose public methods carry
  instance-level wrappers: ``update_values`` / ``bind_values`` /
  ``bind_rho`` / ``solve``, the reference ADMM loop under it and every
  KKT solve and refactorization under that.  A second, unwrapped twin
  with identical history solves the same instance, alternately before
  and after the wrapped one; the two totals give the tracing overhead
  over exactly the same work.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.backends import MIBSolver
from repro.backends.session import SolveSession
from repro.compiler import ScheduleCache
from repro.io import decode_bounds, problem_from_dict, problem_to_dict, problem_with_values
from repro.linalg import amd_order, symbolic_factor
from repro.serve import SolverPool
from repro.solver import QPProblem, Settings, SolveResult

from benchmarks.e2e import wire
from benchmarks.e2e.metrics import metric, p, share
from benchmarks.e2e.serve_child import C, SETTINGS
from benchmarks.e2e.spans import Tracer
from benchmarks.e2e.workloads import Plan, Request, perturbed

WALK_SHARE = 1 / 3  # of each pattern's requests, oldest first
PROBE_ITERATIONS = 10
PROBE_LANES = 16


@dataclass
class WalkResult:
    rows: list[dict]
    layers: dict[str, dict]
    # request id -> wall ms of its request spans (for the accounting)
    request_ms: dict[str, float] = field(default_factory=dict)


def walk_items(plan: Plan) -> list[tuple[str, list[Request]]]:
    """The requests the walk covers, as ``(request id, requests)``.

    The first ``WALK_SHARE`` of every pattern's requests in each phase,
    kept in plan order.  An item holds one request per client: clients
    in lock-step present their requests together, and the walk hands
    such a round to the pool as one batch, as the queue would.
    """
    items = []
    for phase, lists in plan.phases.items():
        seen: dict[str, int] = {}
        quota = {
            name: math.ceil(
                WALK_SHARE * sum(r.pattern == name for r in lists[0])
            )
            for name in plan.patterns
        }
        for index, round_ in enumerate(zip(*lists)):
            pattern = round_[0].pattern
            seen[pattern] = seen.get(pattern, 0) + 1
            if seen[pattern] <= quota[pattern]:
                items.append((f"{phase}:{index}", list(round_)))
    return items


def _new_solver(base: QPProblem, cache: ScheduleCache) -> MIBSolver:
    return MIBSolver(base, c=C, settings=Settings(**SETTINGS), cache=cache)


class _Twin:
    """A ``MIBSolver`` the walk owns, with the stream state the pool
    would keep for it (one session per pattern, as the plans use)."""

    def __init__(self, solver: MIBSolver) -> None:
        self.solver = solver
        self.session = SolveSession(solver)

    def serve(self, request: Request) -> None:
        if request.session is not None:
            self.session.step(request.problem)
        else:
            self.solver.update_values(request.problem)
            self.solver.solve()


def _wrap_solver(tracer: Tracer, solver: MIBSolver) -> None:
    kkt = solver.reference.kkt_solver
    tracer.wrap(kkt, "solve", "solver.direct.kkt_solve")
    tracer.wrap(kkt, "update_values", "solver.direct.refactor")
    tracer.wrap(kkt, "update_rho", "solver.direct.update_rho")
    tracer.wrap(
        solver.reference,
        "solve",
        "solver.admm.solve",
        attrs=lambda result: {"iterations": result.iterations},
    )
    tracer.wrap(solver, "update_values", "backends.mib.update_values")
    tracer.wrap(
        solver, "bind_values", "backends.mib.bind_values",
        attrs=lambda kind: {"bind": kind},
    )
    tracer.wrap(
        solver, "bind_rho", "backends.mib.bind_rho",
        attrs=lambda changed: {"refactorized": bool(changed)},
    )
    tracer.wrap(solver, "solve", "backends.mib.solve")


def _pattern_spans(
    tracer: Tracer, name: str, base: QPProblem, rng
) -> tuple[MIBSolver, MIBSolver]:
    """Construction, ordering, lowering and engine probes of one
    pattern; returns the cold-built twin and an untouched cached one."""
    tracer.request = f"pattern:{name}"
    cache = ScheduleCache()
    with tracer.span("backends.mib.construct_cold"):
        cold = _new_solver(base, cache)
    with tracer.span("backends.mib.construct_cached"):
        probe = _new_solver(base, cache)
    kkt = cold.reference.kkt_solver.kkt.matrix
    with tracer.span("linalg.amd"):
        perm = amd_order(kkt)
    permuted = perm.permute_symmetric(kkt.symmetrize_from_upper())
    with tracer.span("linalg.symbolic"):
        symbolic_factor(permuted.upper_triangle())
    # The first network-executed solve of a pattern lowers its traces
    # lazily; the second is the steady state.
    with tracer.span("backends.mib.first_network_solve"):
        probe.solve_on_network(max_iter=PROBE_ITERATIONS)
    with tracer.span("backends.mib.solve_on_network") as span:
        report = probe.solve_on_network(max_iter=PROBE_ITERATIONS)
        span.set(iterations=report.iterations)
    lanes = [perturbed(base, rng) for _ in range(PROBE_LANES)]
    probe.solve_batch(lanes, max_iter=PROBE_ITERATIONS)  # lowers batch traces
    with tracer.span("backends.mib.solve_batch") as span:
        batch = probe.solve_batch(lanes, max_iter=PROBE_ITERATIONS)
        span.set(lane_iterations=sum(r.iterations for r in batch.lanes))
    # Lowering on a solver restored from the cache, with the validation
    # stamps the probes above flushed into it: the re-admission cost.
    lowered = _new_solver(base, cache)
    with tracer.span("backends.mib.compile_traces"):
        lowered.compile_traces()
    return cold, _new_solver(base, cache)


def _payload(solved, result_doc: dict) -> dict:
    """The reply block the engine builds for one pool solve."""
    return {
        "status": "ok",
        "fingerprint": solved.fingerprint,
        "warm": solved.warm,
        "delta_bind": solved.delta_bind,
        "session": solved.session_key,
        "cache_hit": solved.cache_hit,
        "compile_seconds": solved.compile_seconds,
        "solve_seconds": solved.solve_seconds,
        "cycles": solved.report.cycles,
        "runtime_seconds": solved.report.runtime_seconds,
        "solved": solved.report.result.solved,
        "result": result_doc,
    }


def _request_spans(
    tracer: Tracer, pool: SolverPool, requests: list[Request]
) -> None:
    """One round (a request per client) through wire, pool and back."""
    decoded = []
    for request in requests:
        with tracer.span("serve.client.encode"):
            with tracer.span("io.problem_to_dict"):
                doc = problem_to_dict(request.problem)
            sent = wire.encode(wire.request_body(request, doc))
        with tracer.span("serve.server.json_loads"):
            body = json.loads(sent)
        with tracer.span("io.problem_from_dict"):
            problem = problem_from_dict(body["problem"])
        with tracer.span("compiler.cache.fingerprint"):
            key = pool.fingerprint(problem)
        variants = []
        for raw in body.get("scenarios", ()):
            with tracer.span("io.problem_with_values"):
                variants.append(
                    problem_with_values(
                        problem,
                        q=np.asarray(raw["q"], dtype=np.float64),
                        l=decode_bounds(raw["l"]),
                        u=decode_bounds(raw["u"]),
                        a_data=raw.get("a_data"),
                        p_data=raw.get("p_data"),
                    )
                )
        decoded.append((request, problem, key, variants))

    request, problem, key, variants = decoded[0]
    if variants or len(decoded) > 1:
        lanes = variants or [d[1] for d in decoded]
        with tracer.span("serve.pool.solve_batch") as span:
            solves = pool.solve_batch(lanes, fingerprint=key)
            reported = max(s.compile_seconds for s in solves) + max(
                s.solve_seconds for s in solves
            )
            span.set(
                reported_child_ms=reported * 1e3,
                lanes=len(solves),
                solo_lanes=sum(s.solo_lane for s in solves),
            )
    else:
        with tracer.span("serve.pool.solve") as span:
            solved = pool.solve(problem, fingerprint=key, session=request.session)
            span.set(
                reported_child_ms=(solved.compile_seconds + solved.solve_seconds)
                * 1e3
            )
        solves = [solved]

    # One reply per request; a fan-out's reply carries all its lanes.
    replies = [solves] if variants else [[s] for s in solves]
    for group in replies:
        blocks = []
        for solved in group:
            with tracer.span("solver.results.to_dict"):
                result_doc = solved.report.result.to_dict()
            blocks.append(_payload(solved, result_doc))
        reply = {"status": "ok", "scenarios": blocks} if variants else blocks[0]
        with tracer.span("serve.server.json_dumps"):
            sent = wire.encode(reply)
        with tracer.span("serve.client.json_loads"):
            received = json.loads(sent)
        for block in received["scenarios"] if variants else [received]:
            with tracer.span("solver.results.from_dict"):
                SolveResult.from_dict(block["result"])


def run_walk(plan: Plan, seed: int) -> WalkResult:
    tracer = Tracer()
    rng = np.random.default_rng([seed, 0xE2E])
    twins: dict[str, tuple[_Twin, _Twin]] = {}
    for name, base in plan.patterns.items():
        cold, plain = _pattern_spans(tracer, name, base, rng)
        _wrap_solver(tracer, cold)
        twins[name] = (_Twin(cold), _Twin(plain))

    pool = SolverPool(c=C, settings=Settings(**SETTINGS))
    for request in plan.warmup:
        tracer.request = f"warmup:{request.pattern}"
        _request_spans(tracer, pool, [request])
        for twin in twins[request.pattern]:
            if request.kind == "solve":
                twin.serve(request)

    request_ms: dict[str, float] = {}
    traced_s = untraced_s = 0.0
    for flip, (request_id, requests) in enumerate(walk_items(plan)):
        tracer.request = request_id
        t0 = time.perf_counter()
        _request_spans(tracer, pool, requests)
        request_ms[request_id] = (time.perf_counter() - t0) * 1e3
        if requests[0].kind != "solve":
            continue
        tracer.request = f"{request_id}/solver"
        wrapped, plain = twins[requests[0].pattern]
        # Alternate which twin goes first so neither always finds the
        # instance's data already in the processor's caches.
        for twin in (wrapped, plain) if flip % 2 else (plain, wrapped):
            t0 = time.perf_counter()
            for request in requests:
                twin.serve(request)
            if twin is wrapped:
                traced_s += time.perf_counter() - t0
            else:
                untraced_s += time.perf_counter() - t0

    rows = tracer.rows()
    layers = _layers(rows)
    layers["trace.overhead_share"] = metric(
        traced_s / untraced_s - 1.0 if untraced_s else 0.0, len(request_ms)
    )
    return WalkResult(rows=rows, layers=layers, request_ms=request_ms)


def _layers(rows: list[dict]) -> dict[str, dict]:
    """The walk's per-layer metrics: p50 ms per call unless noted, over
    the spans of plan requests (pattern spans for the per-pattern ones)."""

    def spans(name: str, scope: str = "request"):
        for row in rows:
            kind = row["request"].split(":", 1)[0]
            in_scope = (
                kind == "pattern"
                if scope == "pattern"
                else kind not in ("pattern", "warmup")
            )
            if row["name"] == name and in_scope:
                yield row

    def ms(row: dict) -> float:
        return row["end_ms"] - row["start_ms"]

    def p50(name: str, scope: str = "request") -> dict:
        return p((ms(r) for r in spans(name, scope)), 50)

    def per(name: str, attr: str, scope: str = "request") -> dict:
        group = list(spans(name, scope))
        total = sum(r["attrs"][attr] for r in group)
        return metric(sum(map(ms, group)) / total if total else 0.0, total)

    binds = list(spans("backends.mib.bind_values"))
    rho_binds = list(spans("backends.mib.bind_rho"))
    batches = list(spans("serve.pool.solve_batch"))
    pool_spans = list(spans("serve.pool.solve")) + batches
    out = {
        f"{name}_ms": p50(name)
        for name in (
            "serve.client.encode",
            "io.problem_to_dict",
            "serve.server.json_loads",
            "io.problem_from_dict",
            "io.problem_with_values",
            "compiler.cache.fingerprint",
            "solver.results.to_dict",
            "serve.server.json_dumps",
            "solver.results.from_dict",
            "backends.mib.update_values",
            "solver.admm.solve",
            "solver.direct.kkt_solve",
            "solver.direct.refactor",
        )
    }
    out.update(
        {
            f"{name}_ms": p50(name, "pattern")
            for name in (
                "backends.mib.first_network_solve",
                "backends.mib.construct_cold",
                "backends.mib.construct_cached",
                "backends.mib.compile_traces",
                "linalg.amd",
                "linalg.symbolic",
            )
        }
    )
    out["backends.mib.bind_values_delta_ms"] = p(
        (ms(r) for r in binds if r["attrs"]["bind"] == "delta"), 50
    )
    out["backends.mib.bind_rho_refactor_share"] = share(
        sum(r["attrs"]["refactorized"] for r in rho_binds), len(rho_binds)
    )
    out["solver.admm.ms_per_iter"] = per("solver.admm.solve", "iterations")
    out["backends.mib.solve_on_network_ms_per_iter"] = per(
        "backends.mib.solve_on_network", "iterations", "pattern"
    )
    out["backends.mib.solve_batch_ms_per_lane_iter"] = per(
        "backends.mib.solve_batch", "lane_iterations", "pattern"
    )
    out["backends.mib.batch_solo_fallback_share"] = share(
        sum(r["attrs"]["solo_lanes"] for r in batches),
        sum(r["attrs"]["lanes"] for r in batches),
    )
    out["serve.pool.solve_self_ms"] = p((r["self_ms"] for r in pool_spans), 50)
    return out
