"""Adaptive batching controller: policy over the coalescing mechanism.

A coalesced batch is its requests solved one after the other on the
pattern's resident solver (:meth:`SolverPool.iter_batch`), so the
controller never touches results: it only chooses *which* requests
share a dispatch.  The cost model below was built to price a lockstep
batch engine that no longer serves (DESIGN.md §5.2); it stays, fed the
sequential pass's cost, until the benchmark stops configuring it.

Decisions, all learned online per pattern fingerprint from served
traffic (no offline profiles):

* **batch or not / how many** — :meth:`BatchController.max_batch_for`
  caps each pattern's batch size from an EWMA cost model: expected
  iterations, warm solo seconds, an affine pass-cost fit
  (``fixed + marginal * lanes``, from decayed regression over observed
  passes) and the per-pass iteration spread.  A pattern whose batched
  passes are slower per lane than solo solves degenerates to solo
  dispatch — the honest outcome when batching cannot pay.
* **who rides together** — :meth:`BatchController.rider` is the
  :meth:`~repro.serve.queue.RequestQueue.next_batch` hook: a candidate
  joins the head's batch only when its values are close to the head's
  (relative L1 over ``q``/``l``/``u``).  Value distance is the serve
  tier's observable proxy for warm-start distance: instances close in
  data converge in similar iteration counts, so buckets stay
  iteration-homogeneous and lockstep wastes less work on stragglers.
* **hold or dispatch** — :meth:`BatchController.dispatch_window` is
  work-conserving first: a head dispatches the moment a worker pops it
  unless holding has *measurably* paid for its pattern — riders were
  already collected at pop time (a burst is trickling in) or past holds
  gathered riders (:attr:`PatternStats.ewma_hold_riders`) — and an
  opened hold closes once the group recent holds reached is in and
  arrivals pause.  The queue reports every hold's outcome back through
  :meth:`BatchController.observe_hold`, so the window is one more
  learned series beside the cost model.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ..solver import QPProblem
from .metrics import ServeMetrics
from .queue import Hold, SolveRequest

__all__ = ["BatchController", "PatternStats", "POLICIES"]

POLICIES = ("adaptive", "greedy", "off")

# EWMA smoothing for every learned series: high enough to track a
# pattern's regime within a handful of passes, low enough not to
# thrash on one outlier.
DEFAULT_ALPHA = 0.35

# A hold may wait for riders that are not there yet only while past
# holds of the pattern gathered at least this many on (decayed)
# average: below one rider every other hold, the window costs the head
# more than the pass it buys.
MIN_HOLD_YIELD = 0.5

# Each exploration pass that re-confirms a solo verdict doubles the
# number of solo solves the verdict stands for before the next one, up
# to this many doublings: a pattern that keeps losing pays for ever
# rarer re-tests instead of one hard-cap pass per ``explore_interval``.
MAX_EXPLORE_BACKOFF = 6

# Once a hold has the group it expected, it closes after this fraction
# of its window passes without a new rider — long enough to see that a
# burst is still trickling in, short next to the timer it replaces.
HOLD_GRACE = 0.125


def _ewma(old: float | None, new: float, alpha: float) -> float:
    if old is None:
        return new
    return (1.0 - alpha) * old + alpha * new


@dataclass
class PatternStats:
    """Per-fingerprint cost model, updated online from served traffic.

    ``None`` means "never observed" — decisions fall back to
    optimistic exploration until the first real observation lands.
    """

    # "Seconds" below are whatever the caller prices work in; the
    # server feeds worker-thread CPU seconds, which stay comparable
    # between the solo and batched paths when handler threads contend
    # for the interpreter during a pass (wall time would charge the
    # pass for its own early responses being serialized concurrently).
    ewma_iterations: float | None = None  # mean lane iterations
    ewma_spread: float | None = None  # (max-min)/max lane iterations
    ewma_solo_seconds: float | None = None  # warm solo solve cost
    ewma_lane_seconds: float | None = None  # pass cost / lanes
    ewma_pass_seconds: float | None = None  # batched pass cost
    # Decayed first/second moments of (lanes, pass seconds) pairs, for
    # the affine pass-cost fit ``seconds ~= fixed + marginal * lanes``.
    # Per-lane averages (``ewma_lane_seconds``) conflate the two terms:
    # a fragmented 4-lane pass looks nearly as expensive per lane as a
    # solo solve even when the marginal lane is cheap, which would park
    # patterns solo on fragmentation noise.  The regression separates
    # them once pass sizes vary.
    m_lanes: float | None = None  # EWMA of lanes
    m_lanes_sq: float | None = None  # EWMA of lanes^2
    m_cross: float | None = None  # EWMA of lanes * seconds
    solo_solves: int = 0
    passes: int = 0
    lanes: int = 0
    # Exploration pressure: solo solves since the last batched pass.
    # A pattern parked at a solo cap stops producing passes, so its
    # cost model would never see fresher evidence without this.
    solo_since_pass: int = 0
    # Consecutive explorations (passes after a full solo interval) that
    # left the verdict at solo; backs the explore escape off.
    explore_losses: int = 0
    # The dispatch window's own series, one observation per hold the
    # queue opened for this pattern (see BatchController.observe_hold).
    ewma_hold_riders: float | None = None  # riders gathered during a hold
    ewma_hold_group: float | None = None  # batch size when a hold closed
    ewma_hold_seconds: float | None = None  # how long a hold stayed open
    holds: int = 0
    # Solo solves that priced a pattern whose history was all passes.
    solo_probes: int = 0

    @property
    def marginal_lane_seconds(self) -> float | None:
        """Slope of the affine pass-cost fit: cost of one *extra* lane.

        ``None`` until pass sizes have varied enough for the decayed
        regression to be well-conditioned (or when noise drives the
        slope non-positive); callers fall back to the per-lane average
        then.
        """
        if (
            self.m_lanes is None
            or self.m_lanes_sq is None
            or self.m_cross is None
            or self.ewma_pass_seconds is None
        ):
            return None
        var = self.m_lanes_sq - self.m_lanes * self.m_lanes
        if var <= 1e-6:
            return None
        slope = (
            self.m_cross - self.m_lanes * self.ewma_pass_seconds
        ) / var
        if slope <= 0.0:
            return None
        return slope

    @property
    def fixed_pass_seconds(self) -> float | None:
        """Intercept of the affine pass-cost fit (per-pass overhead:
        rebind, trace replay warm-up, harvest) — clamped at zero."""
        marginal = self.marginal_lane_seconds
        if marginal is None:
            return None
        return max(
            0.0, self.ewma_pass_seconds - marginal * self.m_lanes
        )

    def snapshot(self) -> dict:
        return {
            "ewma_iterations": self.ewma_iterations,
            "ewma_spread": self.ewma_spread,
            "ewma_solo_seconds": self.ewma_solo_seconds,
            "ewma_lane_seconds": self.ewma_lane_seconds,
            "ewma_pass_seconds": self.ewma_pass_seconds,
            "marginal_lane_seconds": self.marginal_lane_seconds,
            "fixed_pass_seconds": self.fixed_pass_seconds,
            "solo_solves": self.solo_solves,
            "passes": self.passes,
            "lanes": self.lanes,
            "solo_since_pass": self.solo_since_pass,
            "explore_losses": self.explore_losses,
            "holds": self.holds,
            "ewma_hold_riders": self.ewma_hold_riders,
            "ewma_hold_group": self.ewma_hold_group,
            "ewma_hold_seconds": self.ewma_hold_seconds,
            "solo_probes": self.solo_probes,
        }


def value_distance(head: QPProblem, candidate: QPProblem) -> float:
    """Relative L1 distance between two same-pattern instances.

    Sums the relative change of ``q``, ``l`` and ``u`` — the vectors
    parametric serve traffic actually moves.  Infinite bounds compare
    structurally: matching infinities contribute zero, a finite bound
    against an infinite one makes the instances maximally far apart
    (their active sets cannot be assumed close).
    """
    total = 0.0
    for a, b in ((head.q, candidate.q), (head.l, candidate.l), (head.u, candidate.u)):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        finite = np.isfinite(a) & np.isfinite(b)
        if not np.array_equal(np.isfinite(a), np.isfinite(b)):
            return math.inf
        diff = float(np.abs(a[finite] - b[finite]).sum())
        scale = 1.0 + float(np.abs(a[finite]).sum())
        total += diff / scale
    return total


class BatchController:
    """Per-pattern adaptive batching policy (see module docstring).

    Parameters
    ----------
    policy:
        ``"adaptive"`` (learned caps, bucketing, holds),
        ``"greedy"`` (coalesce up to the server's max batch — the
        pre-controller behaviour) or ``"off"`` (never coalesce).
        Mutable at runtime; the policy-comparison benchmark flips it
        between phases.
    latency_budget:
        How many solo-solve durations a batched pass is allowed to
        cost before the cap shrinks.  The learned cap is roughly
        ``(latency_budget * solo_seconds - fixed) / marginal`` — "batch
        no more lanes than the latency budget buys at the fitted
        pass-cost rate".  The budget bounds the *pass*, which is an
        upper bound on any lane's latency: each lane is answered when
        its own solve finishes, so the typical lane pays well under
        the budget.
    bucket_width:
        Maximum :func:`value_distance` between a batch head and a
        rider under the adaptive policy.
    explore_interval:
        Solo solves of a pattern tolerated without a single batched
        pass before the cap decision forces an exploration pass at
        the hard cap.  A pattern parked solo never produces the pass
        observations that could revise its verdict; this bounds how
        stale that verdict may grow.
    max_window:
        Absolute bound (seconds) on any hold :meth:`dispatch_window`
        opens; also the hold's length while the pattern's solo cost
        is still unobserved.
    """

    def __init__(
        self,
        *,
        policy: str = "adaptive",
        alpha: float = DEFAULT_ALPHA,
        latency_budget: float = 6.0,
        bucket_width: float = 0.35,
        min_explore_passes: int = 2,
        explore_interval: int = 16,
        max_window: float = 0.05,
        metrics: ServeMetrics | None = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.policy = policy
        self.alpha = alpha
        self.latency_budget = latency_budget
        self.bucket_width = bucket_width
        self.min_explore_passes = min_explore_passes
        self.explore_interval = explore_interval
        self.max_window = max_window
        self.metrics = metrics
        self._lock = threading.Lock()
        self._stats: dict[str, PatternStats] = {}

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def stats_for(self, fingerprint: str) -> PatternStats:
        with self._lock:
            return self._stats.setdefault(fingerprint, PatternStats())

    def observe_solo(
        self, fingerprint: str, *, seconds: float, iterations: int
    ) -> None:
        """Account one warm solo solve of this pattern."""
        with self._lock:
            s = self._stats.setdefault(fingerprint, PatternStats())
            if (
                s.ewma_solo_seconds is None
                and s.passes >= self.min_explore_passes
            ):
                s.solo_probes += 1  # the cap-1 probe of max_batch_for
            s.ewma_solo_seconds = _ewma(
                s.ewma_solo_seconds, float(seconds), self.alpha
            )
            s.ewma_iterations = _ewma(
                s.ewma_iterations, float(iterations), self.alpha
            )
            s.solo_solves += 1
            s.solo_since_pass += 1

    def observe_pass(
        self,
        fingerprint: str,
        *,
        lanes: int,
        seconds: float,
        lane_iterations: list[int],
    ) -> None:
        """Account one batched pass: timing and iteration spread."""
        if lanes < 1:
            return
        iters = [int(i) for i in lane_iterations]
        top = max(iters)
        spread = (top - min(iters)) / top if top else 0.0
        with self._lock:
            s = self._stats.setdefault(fingerprint, PatternStats())
            s.ewma_pass_seconds = _ewma(
                s.ewma_pass_seconds, float(seconds), self.alpha
            )
            s.ewma_lane_seconds = _ewma(
                s.ewma_lane_seconds, float(seconds) / lanes, self.alpha
            )
            s.ewma_iterations = _ewma(
                s.ewma_iterations, float(np.mean(iters)), self.alpha
            )
            s.ewma_spread = _ewma(s.ewma_spread, spread, self.alpha)
            s.m_lanes = _ewma(s.m_lanes, float(lanes), self.alpha)
            s.m_lanes_sq = _ewma(
                s.m_lanes_sq, float(lanes) ** 2, self.alpha
            )
            s.m_cross = _ewma(
                s.m_cross, float(lanes) * float(seconds), self.alpha
            )
            s.passes += 1
            s.lanes += lanes
            explored = s.solo_since_pass >= self._explore_after(s)
            s.solo_since_pass = 0
            if self._priced_cap(s, lanes) > 1:
                s.explore_losses = 0
            elif explored:
                s.explore_losses += 1

    def observe_hold(
        self, fingerprint: str, *, riders: int, lanes: int, seconds: float
    ) -> None:
        """Account one dispatch-window hold the queue opened: ``riders``
        joined while it was open, it closed with ``lanes`` in the
        batch after ``seconds``."""
        with self._lock:
            s = self._stats.setdefault(fingerprint, PatternStats())
            s.ewma_hold_riders = _ewma(
                s.ewma_hold_riders, float(riders), self.alpha
            )
            if riders or s.ewma_hold_group is None:
                # A hold nobody joined says holding did not pay (the
                # yield above), not that groups got smaller.
                s.ewma_hold_group = _ewma(
                    s.ewma_hold_group, float(lanes), self.alpha
                )
            s.ewma_hold_seconds = _ewma(
                s.ewma_hold_seconds, float(seconds), self.alpha
            )
            s.holds += 1
        if self.metrics is not None:
            self.metrics.inc("window_holds")
            self.metrics.inc("window_riders", int(riders))

    # ------------------------------------------------------------------
    # dispatch decisions
    # ------------------------------------------------------------------
    def max_batch_for(self, fingerprint: str, hard_cap: int) -> int:
        """The pattern's batch-size cap under the current policy.

        Adaptive reasoning, in decision order:

        1. no pass history yet → explore at the hard cap (the first
           pass is the only way to learn whether batching pays);
        2. pass history but no solo price (every request so far rode a
           batch) → solo: one solo dispatch prices the other arm, so
           step 4 compares two measurements instead of trusting the
           passes blindly;
        3. the pattern has gone ``explore_interval`` solo solves
           without a pass → explore again: a solo verdict must be
           re-earned, not held forever on stale evidence.  Every
           exploration that re-confirms the verdict doubles the
           interval (:data:`MAX_EXPLORE_BACKOFF`), so a pattern that
           keeps losing pays a vanishing share of its traffic for
           re-tests; the first pass that wins resets it;
        4. batched lanes not cheaper than solo solves → solo: batching
           loses throughput *and* latency.  "Lane cost" is the affine
           fit's *marginal* lane cost when available
           (:attr:`PatternStats.marginal_lane_seconds`), else the
           per-lane average — the average conflates the fixed per-pass
           cost with the marginal lane, so fragmented small passes
           would otherwise park a pattern solo on amortization noise;
        5. otherwise cap at what the latency budget buys — unless the
           whole pass at that cap, ``fixed + cap * marginal``, costs
           at least ``cap`` solo solves → solo: a cheap marginal lane
           does not pay when the fixed pass cost is never amortized
           within the cap (per-lane cost only falls with size, so a
           pass that loses at the cap loses at every smaller size).
           The budget
           reads as "the head may pay up to ``latency_budget`` times
           its solo latency for the pass": a pass of ``cap`` lanes
           costs ``fixed + cap * marginal`` seconds, so
           ``cap = (latency_budget * solo - fixed) / marginal`` (or
           ``latency_budget * solo / lane`` under the average-cost
           fallback).  Iteration spread deliberately does *not* shrink
           the cap: every lane is answered when its own solve
           finishes, so a fast lane in a heterogeneous pass never pays
           for a slower one behind it.
        """
        if hard_cap < 1:
            return 1
        if self.policy == "off":
            return 1
        if self.policy == "greedy":
            return hard_cap
        s = self.stats_for(fingerprint)
        with self._lock:
            if s.passes < self.min_explore_passes:
                return hard_cap
            if s.ewma_solo_seconds is None:
                return 1
            if s.solo_since_pass >= self._explore_after(s):
                return hard_cap
            return self._priced_cap(s, hard_cap)

    def _explore_after(self, s: PatternStats) -> int:
        """Solo solves a solo verdict stands for before step 3 re-tests
        it: ``explore_interval``, doubled per exploration lost."""
        return self.explore_interval << min(
            s.explore_losses, MAX_EXPLORE_BACKOFF
        )

    def _priced_cap(self, s: PatternStats, hard_cap: int) -> int:
        """Steps 4-5 of :meth:`max_batch_for`: the cap the cost model
        alone buys (1 = solo verdict).  Caller holds the lock."""
        solo = s.ewma_solo_seconds
        lane = s.ewma_lane_seconds
        if solo is None or lane is None or lane <= 0.0:
            return hard_cap
        marginal = s.marginal_lane_seconds
        if marginal is not None:
            if marginal >= solo:
                return 1
            fixed = s.fixed_pass_seconds or 0.0
            cap = (self.latency_budget * solo - fixed) / marginal
            cap = int(max(1, min(hard_cap, math.floor(cap))))
            if fixed + cap * marginal >= cap * solo:
                return 1
            return cap
        if lane >= solo:
            return 1
        cap = self.latency_budget * solo / lane
        return int(max(1, min(hard_cap, math.floor(cap))))

    def dispatch_window(self, head: SolveRequest, size: int) -> Hold | None:
        """Queue hook: hold ``head``'s batch open for same-pattern
        arrivals, or (``None``) dispatch it now?  ``size`` is the batch
        as popped: the head plus the riders already queued.

        Dispatch is work-conserving unless holding has measurably paid
        for this pattern:

        * past holds gathered riders (:data:`MIN_HOLD_YIELD`) → wait,
          at most the window, for the group those holds reached — also
          when the head popped alone.  A lone closed-loop client never
          produces that evidence, so it never waits; a pattern whose
          holds stop gathering loses it again within a few holds.  No
          hold when that group is already here.
        * no such evidence, but riders were already queued at pop → a
          burst may be trickling in (admission is its own bottleneck,
          and dispatching at once would fragment it into passes that
          each pay the fixed pass cost): hold only while it keeps
          coming, one grace period per arrival.  These holds are how
          the yield is first learned.

        The window is about one solo solve, capped absolutely and by a
        fraction of the head's remaining deadline.  Greedy/off
        policies and batches already at the pattern's cap never hold.
        """
        if self.policy != "adaptive":
            return None
        cap = self.max_batch_for(head.fingerprint, 1 << 30)
        if size >= cap:
            return None
        s = self.stats_for(head.fingerprint)
        with self._lock:
            solo = s.ewma_solo_seconds
            riders = s.ewma_hold_riders
            group = s.ewma_hold_group
        if riders is not None and riders >= MIN_HOLD_YIELD:
            lanes = min(cap, max(2, round(group)))
            if size >= lanes:
                return None
        elif size > 1:
            lanes = size
        else:
            return None
        window = self.max_window
        if solo is not None:
            window = min(window, 2.0 * solo)
        remaining = head.remaining()
        if remaining is not None:
            window = min(window, 0.25 * remaining)
        if window <= 0.0:
            return None
        return Hold(window, lanes, HOLD_GRACE * window)

    def rider(
        self, head: SolveRequest, candidate: SolveRequest, size: int
    ) -> bool:
        """Queue hook: may ``candidate`` join ``head``'s batch?

        Called by :meth:`~repro.serve.queue.RequestQueue.next_batch`
        for same-fingerprint candidates only; ``size`` is the batch
        size so far (head included).
        """
        if self.policy == "off":
            return False
        if self.policy == "greedy":
            return True
        cap = self.max_batch_for(head.fingerprint, hard_cap=1 << 30)
        if size >= cap:
            if self.metrics is not None:
                self.metrics.inc("rider_rejects_cap")
            return False
        if (
            value_distance(head.problems[0], candidate.problems[0])
            > self.bucket_width
        ):
            if self.metrics is not None:
                self.metrics.inc("rider_rejects_distance")
            return False
        return True

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready view of every pattern's learned model."""
        with self._lock:
            return {
                "policy": self.policy,
                "patterns": {
                    fp: s.snapshot() for fp, s in self._stats.items()
                },
            }
