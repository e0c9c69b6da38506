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

Entries are evicted least-recently-used beyond ``capacity``.  The pool
is thread-safe: the resident map has one lock, each entry serializes
its own solves (a solver holds mutable iterate state), and per-key
construction locks ensure a pattern is compiled once even when many
threads miss on it simultaneously.
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
from ..solver import QPProblem, Settings
from .metrics import ServeMetrics
from .session import SessionStore

__all__ = ["PoolSolve", "SolverPool"]


@dataclass
class _PoolEntry:
    solver: MIBSolver
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
    """Thread-safe LRU pool of warm pattern-compiled solvers.

    Parameters
    ----------
    capacity:
        Resident solver budget (patterns, not bytes).  Evicting an
        entry only drops the warm solver; its compiled artifact stays
        in the schedule cache, so re-admission skips scheduling.
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
        self._lock = threading.RLock()
        self._building: dict[str, threading.Lock] = {}
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
        with self._lock:
            return len(self._entries)

    def fingerprints(self) -> list[str]:
        """Resident patterns, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def entries_info(self) -> list[dict]:
        """Per-entry observability for ``/v1/metrics``: fingerprint,
        solve count and the per-iteration crossing count (``None``
        until the first solve lowers the traces)."""
        with self._lock:
            items = list(self._entries.items())
        return [
            {
                "fingerprint": key,
                "solves": entry.solves,
                "crossings_per_iter": entry.crossings_per_iter,
            }
            for key, entry in items
        ]

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
        steps ride the delta bind.  With ``session`` set, the carried
        state is restored from — and saved back to — that key's
        :class:`~repro.serve.session.SessionState`, and the session
        lock is held for the whole span so concurrent requests on one
        key serialize.  ``should_stop``, when given, is polled before
        every step (the engine's deadline hook); a truthy return ends
        the sequence early with the steps solved so far.

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
            entry, warm, cache_hit, compile_seconds = self._get_or_create(
                key, problems[0]
            )
            with entry.lock:
                sess = SolveSession(entry.solver)
                if state is not None and state.warm:
                    sess.restore(
                        state.x,
                        state.y,
                        state.rho,
                        a_data=state.a_data,
                        p_data=state.p_data,
                    )
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
                if state is not None:
                    state.x, state.y, state.rho = sess.x, sess.y, sess.rho
                    state.a_data = sess.last_a_data
                    state.p_data = sess.last_p_data
                    state.steps += sess.steps
                    state.delta_binds += sess.delta_binds
        finally:
            if state is not None:
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
        answers bitwise as the full rebind would; the first rebind
        after construction is always full.  Each
        :class:`PoolSolve` is yielded the moment its solve finishes,
        with the entry lock held: the consumer may answer a request
        before the later lanes run, and must not re-enter the pool.
        A lane's ``solve_seconds`` is its elapsed time since the pass
        began — what that request actually waited.
        """
        if not problems:
            return
        key = fingerprint or self.fingerprint(problems[0])
        entry, warm, cache_hit, compile_seconds = self._get_or_create(
            key, problems[0]
        )
        solver = entry.solver
        with entry.lock:
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
    def _get_or_create(
        self, key: str, problem: QPProblem
    ) -> tuple[_PoolEntry, bool, bool, float]:
        """Look up or build the entry for ``key``.

        Returns ``(entry, warm, cache_hit, compile_seconds)``.  The
        per-key build lock makes concurrent misses on one pattern
        compile once: the losers block, then find the winner's entry.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.metrics.inc("pool_hits")
                return entry, True, True, 0.0
            build_lock = self._building.setdefault(key, threading.Lock())
        with build_lock:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.metrics.inc("pool_hits")
                    return entry, True, True, 0.0
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
            entry = _PoolEntry(solver=solver)
            with self._lock:
                self._entries[key] = entry
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.metrics.inc("pool_evictions")
                self._building.pop(key, None)
            self.metrics.inc("pool_misses")
            if not solver.cache_hit:
                self.metrics.inc("compile_count")
                self.metrics.observe("compile", compile_seconds)
            return entry, False, solver.cache_hit, compile_seconds
