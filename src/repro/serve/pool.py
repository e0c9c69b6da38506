"""Warm solver pool keyed by sparsity-pattern fingerprint.

The serve layer's core amortization structure.  A
:class:`~repro.backends.mib.MIBSolver` is expensive to construct (full
lowering + multi-issue scheduling of every kernel) and nearly free to
*rebind* (``bind_values`` refreshes numbers only — the paper's
compile-once/solve-many mechanism).  The pool therefore keeps one warm
solver per resident pattern:

* **hit** — the request's fingerprint matches a resident solver; the
  new numeric instance is bound with ``bind_values`` and solved.
  Lowering and scheduling never run, and when ``P`` and ``A`` are
  bitwise the bound instance's (a parametric stream moving only
  ``q``/``l``/``u``) neither does the numeric refactorization.
* **miss** — a solver is constructed through the shared
  :class:`~repro.compiler.ScheduleCache`, so even a cold pool entry
  skips scheduling when the pattern was ever compiled before (by this
  process, a sibling worker, or a previous run sharing the cache
  directory).

An entry is the process's one record of a pattern: its
:class:`~repro.io.Skeleton` from :meth:`SolverPool.admit` on (what a
values-only body decodes against) and its solver once a solve builds
it; entries are evicted least-recently-used beyond ``capacity``.  Only
solvers count: ``pool_hits`` / ``pool_misses`` are solver lookups,
``pool_evictions`` evicted solvers, and ``len`` / ``fingerprints`` /
``entries_info`` see the entries holding one.  The table has one lock;
each entry's lock serializes building its solver and every solve on
it, so a pattern compiles once however many threads miss on it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass, field

from ..backends.mib import MIBSolveReport, MIBSolver
from ..backends.session import SolveSession
from ..compiler import ScheduleCache, ScheduleOptions
from ..io import Skeleton
from ..solver import QPProblem, Settings
from .metrics import ServeMetrics
from .session import SessionStore

__all__ = ["PoolSolve", "SolverPool"]


@dataclass
class _PoolEntry:
    skeleton: Skeleton
    solver: MIBSolver | None = None  # built by the first solve
    lock: threading.Lock = field(default_factory=threading.Lock)
    solves: int = 0
    # Per-iteration host→numpy crossings of this pattern's replayed
    # traces; computed once on first use (forces trace lowering, a
    # one-time per-pattern cost).
    crossings_per_iter: int | None = None


@dataclass(frozen=True)
class PoolSolve:
    """One pool-served solve: the report plus how it was served."""

    fingerprint: str
    report: MIBSolveReport
    warm: bool  # served by a resident solver (no construction at all)
    cache_hit: bool  # construction (if any) restored from the cache
    compile_seconds: float  # 0.0 on the warm path
    solve_seconds: float
    # Always False: no serving path runs a lockstep pass a lane could
    # leave.  Kept until benchmarks/e2e stops reading it.
    solo_lane: bool = False
    # Anonymous path: bind_values took the vectors-only delta (no
    # matrix rescale, no refactorization).  Session path: the step
    # continued the session's own stream (SessionStep.delta_bind), which
    # may still have refactored — the shared solver was rebound by
    # another request, or the carried ρ changed the KKT system.
    delta_bind: bool = False
    # Session path only: the key whose carried state seeded the solve.
    session_key: str | None = None


class SolverPool:
    """Thread-safe LRU table of patterns and their warm solvers.

    Parameters
    ----------
    capacity:
        Resident pattern budget (patterns, not bytes).  Evicting an
        entry drops its skeleton and warm solver; its compiled artifact
        stays in the schedule cache, so re-admission skips scheduling.
    variant / c / settings:
        Solver configuration shared by every entry; part of the
        pattern fingerprint, so one pool serves exactly one
        configuration (run several pools for several).
    cache:
        Shared :class:`~repro.compiler.ScheduleCache`; constructed
        internally when not given (``cache_dir`` selects the on-disk
        location, memory-only otherwise).
    metrics:
        Shared :class:`~repro.serve.metrics.ServeMetrics` registry.

    Warm starting is per client stream: a ``session`` key carries its
    own ``(x, y, ρ)`` (:mod:`repro.serve.session`).
    """

    def __init__(
        self,
        *,
        capacity: int = 8,
        variant: str = "direct",
        c: int = 16,
        settings: Settings | None = None,
        cache: ScheduleCache | None = None,
        cache_dir: str | None = None,
        metrics: ServeMetrics | None = None,
        session_capacity: int = 256,
        session_ttl_s: float = 300.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.variant = variant
        self.c = c
        self.settings = settings if settings is not None else Settings()
        self.cache = cache if cache is not None else ScheduleCache(cache_dir)
        self.metrics = metrics if metrics is not None else ServeMetrics()
        # Mirrors MIBSolver's default scheduler configuration; the
        # fingerprint must match the key the solver computes itself.
        self._options = ScheduleOptions()
        self._entries: OrderedDict[str, _PoolEntry] = OrderedDict()
        self._lock = threading.Lock()
        # Client-keyed carried iterates for the streaming API (sticky
        # warm start on /v1/solve, /v1/sequence steps).
        self.sessions = SessionStore(
            capacity=session_capacity,
            ttl_s=session_ttl_s,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------
    def fingerprint(self, problem: QPProblem) -> str:
        """The pattern+configuration key a request coalesces under."""
        return self.cache.key_for(
            problem,
            variant=self.variant,
            c=self.c,
            options=self._options,
            settings=self.settings,
        )

    def __len__(self) -> int:
        return len(self.entries_info())

    def fingerprints(self) -> list[str]:
        """Patterns with a solver, least- to most-recently used."""
        return [info["fingerprint"] for info in self.entries_info()]

    def entries_info(self) -> list[dict]:
        """Per-solver observability for ``/v1/metrics``: fingerprint,
        solve count and the per-iteration crossing count (``None``
        until the first solve lowers the traces)."""
        with self._lock:
            return [
                {
                    "fingerprint": key,
                    "solves": entry.solves,
                    "crossings_per_iter": entry.crossings_per_iter,
                }
                for key, entry in self._entries.items()
                if entry.solver is not None
            ]

    def admit(self, problem: QPProblem) -> str:
        """Hold ``problem``'s pattern as most recently used (building
        nothing) and return its fingerprint."""
        key = self.fingerprint(problem)
        self._entry(key, problem)
        return key

    def skeleton(self, fingerprint: str) -> Skeleton | None:
        """The structure of a held pattern, touched as most recently
        used (``None`` when the pattern is not held)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return None
            self._entries.move_to_end(fingerprint)
            return entry.skeleton

    # ------------------------------------------------------------------
    def solve(
        self,
        problem: QPProblem,
        *,
        fingerprint: str | None = None,
        session: str | None = None,
    ) -> PoolSolve:
        """Solve one numeric instance through the pool.

        ``fingerprint`` may be passed when the caller already computed
        it (the serve queue keys requests by it); it must equal
        :meth:`fingerprint` of the problem.  ``session`` routes the
        solve through that key's carried ``(x, y, ρ)`` state instead of
        the anonymous path (sticky warm start, one step of a stream).
        """
        if session is not None:
            return self.solve_sequence(
                [problem], fingerprint=fingerprint, session=session
            )[0]
        return self.solve_batch([problem], fingerprint=fingerprint)[0]

    @staticmethod
    def _count_crossings(entry: _PoolEntry) -> float:
        """Fill ``entry.crossings_per_iter`` after the entry's first
        solve (caller holds the entry lock); returns the seconds spent.

        Counting lowers the iteration kernels to traces the reference
        solve never needed — trace compilation, tens of milliseconds
        on a first touch — so the caller bills it to that response's
        ``compile_seconds``; it is no part of the solve.
        """
        if entry.crossings_per_iter is not None:
            return 0.0
        t0 = time.perf_counter()
        entry.crossings_per_iter = entry.solver.iteration_crossings()
        return time.perf_counter() - t0

    # ------------------------------------------------------------------
    def solve_sequence(
        self,
        problems: list[QPProblem],
        *,
        fingerprint: str | None = None,
        session: str | None = None,
        should_stop=None,
    ) -> list[PoolSolve]:
        """Solve an ordered parametric stream on one pinned solver.

        All steps run on the pattern's resident solver under one entry
        lock, carrying ``(x, y, ρ)`` from step to step through a
        :class:`~repro.backends.session.SolveSession`; vectors-only
        steps ride the delta bind.  With ``session`` set, that is the
        key's stored session, stepped in place with the session lock
        held for the whole span so concurrent requests on one key
        serialize; it holds the entry's solver only for that span.  A
        step's ``solve_seconds`` is its own time.  ``should_stop``,
        when given, is polled before every step (the engine's deadline
        hook); a truthy return ends the sequence early with the steps
        solved so far.

        Returns one :class:`PoolSolve` per *completed* step, in order.
        """
        if not problems:
            return []
        key = fingerprint or self.fingerprint(problems[0])
        state = (
            self.sessions.acquire(session, key)
            if session is not None
            else None
        )
        metrics = self.metrics
        solves: list[PoolSolve] = []
        if state is not None:
            state.lock.acquire()
        try:
            entry = self._entry(key, problems[0])
            with entry.lock:
                warm, cache_hit, compile_seconds = self._build(
                    key, entry, problems[0]
                )
                sess = state.session if state is not None else SolveSession()
                sess.solver = entry.solver
                for i, problem in enumerate(problems):
                    if should_stop is not None and should_stop():
                        break
                    t0 = time.perf_counter()
                    step = sess.step(problem)
                    solve_seconds = time.perf_counter() - t0
                    entry.solves += 1
                    compile_seconds += self._count_crossings(entry)
                    solves.append(
                        PoolSolve(
                            fingerprint=key,
                            report=step.report,
                            # Step 0 pays any construction; later steps
                            # always ride the now-resident solver.
                            warm=warm if i == 0 else True,
                            cache_hit=cache_hit,
                            compile_seconds=(
                                compile_seconds if i == 0 else 0.0
                            ),
                            solve_seconds=solve_seconds,
                            delta_bind=step.delta_bind,
                            session_key=session,
                        )
                    )
                crossings = entry.crossings_per_iter or 0
        finally:
            if state is not None:
                # Lent for this request only: a stored session must not
                # keep the solver alive once the pool evicts its pattern.
                state.session.solver = None
                state.lock.release()
                self.sessions.touch(session)
        for solved in solves:
            self._account(solved, crossings)
        if session is not None and solves:
            metrics.inc("session_solves", len(solves))
        return solves

    # ------------------------------------------------------------------
    def solve_batch(
        self,
        problems: list[QPProblem],
        *,
        fingerprint: str | None = None,
    ) -> list[PoolSolve]:
        """Solve same-pattern instances in payload order as anonymous
        solo solves (:meth:`iter_batch`, collected)."""
        return list(self.iter_batch(problems, fingerprint=fingerprint))

    def iter_batch(
        self,
        problems: list[QPProblem],
        *,
        fingerprint: str | None = None,
    ) -> Iterator[PoolSolve]:
        """The anonymous solve, one instance after the other on the
        pattern's resident solver under one hold of its entry lock.

        Every lane is ``bind_values`` + ``solve()``, so the adapted ρ
        carries from lane to lane and from pass to pass exactly as between consecutive
        :meth:`solve` calls — which are the one-lane case.  A lane
        whose ``P``/``A`` values are bitwise the bound instance's takes
        the delta bind (no matrix rescale, no refactorization), which
        answers bitwise as the full rebind would.  Each
        :class:`PoolSolve` is yielded the moment its solve finishes,
        with the entry lock held: the consumer may answer a request
        before the later lanes run, and must not re-enter the pool.
        A lane's ``solve_seconds`` is its elapsed time since the pass
        began — what that request actually waited.
        """
        if not problems:
            return
        key = fingerprint or self.fingerprint(problems[0])
        entry = self._entry(key, problems[0])
        with entry.lock:
            warm, cache_hit, compile_seconds = self._build(
                key, entry, problems[0]
            )
            solver = entry.solver
            t0 = time.perf_counter()
            for problem in problems:
                delta_bind = warm and solver.bind_values(problem) == "delta"
                report = solver.solve()
                solve_seconds = time.perf_counter() - t0
                entry.solves += 1
                solved = PoolSolve(
                    fingerprint=key,
                    report=report,
                    warm=warm,
                    cache_hit=cache_hit,
                    compile_seconds=(
                        compile_seconds + self._count_crossings(entry)
                    ),
                    solve_seconds=solve_seconds,
                    delta_bind=delta_bind,
                )
                self._account(solved, entry.crossings_per_iter)
                yield solved
                # The first lane paid any construction; later lanes
                # ride the now-resident solver.
                warm, compile_seconds = True, 0.0
        if len(problems) > 1:
            self.metrics.inc("batched_solves")
            self.metrics.inc("batched_lanes", len(problems))
            self.metrics.observe_batch(len(problems))

    def _account(self, solved: PoolSolve, crossings_per_iter: int) -> None:
        """Count one finished solve of any path in the shared series."""
        metrics = self.metrics
        metrics.observe("solve", solved.solve_seconds)
        if solved.warm:
            metrics.inc("warm_solve_count")
            metrics.observe("warm_solve", solved.solve_seconds)
        if solved.delta_bind:
            metrics.inc("delta_binds")
        iterations = solved.report.result.iterations
        metrics.inc("admm_iterations", iterations)
        metrics.inc("host_crossings", iterations * crossings_per_iter)

    # ------------------------------------------------------------------
    def _entry(self, key: str, problem: QPProblem) -> _PoolEntry:
        """The entry for ``key``, touched as most recently used, or a
        new solver-less one holding ``problem``'s skeleton; the least
        recently used entries beyond ``capacity`` are evicted."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry
            entry = self._entries[key] = _PoolEntry(Skeleton.of(problem))
            while len(self._entries) > self.capacity:
                _, evicted = self._entries.popitem(last=False)
                if evicted.solver is not None:
                    self.metrics.inc("pool_evictions")
            return entry

    def _build(
        self, key: str, entry: _PoolEntry, problem: QPProblem
    ) -> tuple[bool, bool, float]:
        """``(warm, cache_hit, compile_seconds)`` of ``entry``'s solver,
        built first if it has none (caller holds the entry lock)."""
        if entry.solver is not None:
            self.metrics.inc("pool_hits")
            return True, True, 0.0
        t0 = time.perf_counter()
        solver = MIBSolver(
            problem,
            variant=self.variant,
            c=self.c,
            settings=self.settings,
            cache=self.cache,
        )
        compile_seconds = time.perf_counter() - t0
        if solver.cache_key != key:
            raise RuntimeError(
                "pool fingerprint does not match the solver's cache key"
            )
        entry.solver = solver
        self.metrics.inc("pool_misses")
        if not solver.cache_hit:
            self.metrics.inc("compile_count")
            self.metrics.observe("compile", compile_seconds)
        return False, solver.cache_hit, compile_seconds
