"""Adaptive batching controller: cost-model units and differential
bitwise tests.

Two layers:

* **Cost model** — deterministic, no HTTP and no solver: EWMA updates,
  the affine pass-cost fit (fixed + marginal * lanes), cap decisions in
  their documented order (explore, marginal-vs-solo,
  latency budget, whole-pass-vs-solos), the solo-arm probe, the
  explore escape and its back-off, the evidence-gated dispatch window
  and its hold series, and bucketing distance.

* **Differential** — the controller's one hard contract: it only
  chooses *which* requests share a dispatch; every lane's result stays
  bit-identical to the solo solve at that point of the stream
  (``update_values`` + ``solve()`` on a twin with the same history).
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.backends.mib import MIBSolver
from repro.problems import lasso_problem, mpc_problem, portfolio_problem
from repro.serve import (
    BatchController,
    ServeClient,
    ServeServer,
    SolverPool,
    value_distance,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.queue import SolveRequest
from repro.solver import QPProblem, Settings

C = 8
SETTINGS = Settings(eps_abs=1e-3, eps_rel=1e-3, max_iter=2000, check_interval=5)


def perturbed(base: QPProblem, seed: int, scale: float = 0.05) -> QPProblem:
    rng = np.random.default_rng(seed)
    q = base.q * (1.0 + scale * rng.standard_normal(base.n))
    return QPProblem(
        p=base.p, q=q, a=base.a, l=base.l, u=base.u, name=base.name
    )


def _request(problem: QPProblem, fingerprint: str = "fp") -> SolveRequest:
    return SolveRequest(problems=[problem], fingerprint=fingerprint)


# ----------------------------------------------------------------------
# cost model: EWMA and the affine pass-cost fit
# ----------------------------------------------------------------------
class TestCostModel:
    def test_first_observation_seeds_the_ewma(self):
        ctrl = BatchController()
        ctrl.observe_solo("fp", seconds=0.02, iterations=40)
        s = ctrl.stats_for("fp")
        assert s.ewma_solo_seconds == pytest.approx(0.02)
        assert s.ewma_iterations == pytest.approx(40.0)
        assert s.solo_solves == 1

    def test_solo_ewma_follows_the_documented_recurrence(self):
        ctrl = BatchController(alpha=0.5)
        ctrl.observe_solo("fp", seconds=0.02, iterations=40)
        ctrl.observe_solo("fp", seconds=0.04, iterations=20)
        s = ctrl.stats_for("fp")
        assert s.ewma_solo_seconds == pytest.approx(0.5 * 0.02 + 0.5 * 0.04)
        assert s.ewma_iterations == pytest.approx(0.5 * 40 + 0.5 * 20)

    def test_affine_fit_recovers_fixed_and_marginal_exactly(self):
        """Exact affine observations => the decayed regression returns
        the generating coefficients, independent of the EWMA weights."""
        fixed, marginal = 0.050, 0.002
        ctrl = BatchController()
        for lanes in (4, 16, 8, 12):
            ctrl.observe_pass(
                "fp",
                lanes=lanes,
                seconds=fixed + marginal * lanes,
                lane_iterations=[30] * lanes,
            )
        s = ctrl.stats_for("fp")
        assert s.marginal_lane_seconds == pytest.approx(marginal)
        assert s.fixed_pass_seconds == pytest.approx(fixed)

    def test_affine_fit_degenerates_to_none_without_size_variance(self):
        ctrl = BatchController()
        for _ in range(3):
            ctrl.observe_pass(
                "fp",
                lanes=8,
                seconds=0.1,
                lane_iterations=[30] * 8,
            )
        s = ctrl.stats_for("fp")
        assert s.marginal_lane_seconds is None  # var(lanes) == 0
        assert s.ewma_lane_seconds == pytest.approx(0.1 / 8)

    def test_pass_resets_the_explore_pressure_counter(self):
        ctrl = BatchController()
        for _ in range(5):
            ctrl.observe_solo("fp", seconds=0.02, iterations=30)
        assert ctrl.stats_for("fp").solo_since_pass == 5
        ctrl.observe_pass(
            "fp", lanes=4, seconds=0.05, lane_iterations=[30] * 4,
        )
        assert ctrl.stats_for("fp").solo_since_pass == 0


def _learned(
    ctrl: BatchController,
    fp: str = "fp",
    *,
    solo: float = 0.020,
    fixed: float = 0.010,
    marginal: float = 0.002,
    iterations: int = 30,
) -> None:
    """Feed ``ctrl`` enough exact observations that the pattern's model
    is fully determined: solo cost, affine pass cost, iterations."""
    for _ in range(2):
        ctrl.observe_solo(fp, seconds=solo, iterations=iterations)
    for lanes in (4, 8, 16):
        ctrl.observe_pass(
            fp,
            lanes=lanes,
            seconds=fixed + marginal * lanes,
            lane_iterations=[iterations] * lanes,
        )


# ----------------------------------------------------------------------
# cap decisions
# ----------------------------------------------------------------------
class TestMaxBatchFor:
    def test_off_policy_never_batches(self):
        ctrl = BatchController(policy="off")
        _learned(ctrl)
        assert ctrl.max_batch_for("fp", 16) == 1

    def test_greedy_policy_always_takes_the_hard_cap(self):
        ctrl = BatchController(policy="greedy")
        assert ctrl.max_batch_for("anything", 16) == 16

    def test_unexplored_pattern_explores_at_the_hard_cap(self):
        ctrl = BatchController(min_explore_passes=2)
        assert ctrl.max_batch_for("fp", 16) == 16
        ctrl.observe_pass(
            "fp", lanes=4, seconds=1.0, lane_iterations=[30] * 4,
        )
        # One pass is still below min_explore_passes.
        assert ctrl.max_batch_for("fp", 16) == 16

    def test_latency_budget_caps_via_the_affine_fit(self):
        ctrl = BatchController(latency_budget=6.0)
        _learned(ctrl, solo=0.020, fixed=0.010, marginal=0.002)
        # cap = (budget * solo - fixed) / marginal = (0.12 - 0.01) / 0.002
        # = 55 lanes, give or take one ulp at the floor boundary.
        assert ctrl.max_batch_for("fp", 1 << 30) in (54, 55)
        assert ctrl.max_batch_for("fp", 16) == 16  # clamped to hard cap

    def test_marginal_lane_dearer_than_solo_parks_the_pattern(self):
        ctrl = BatchController()
        _learned(ctrl, solo=0.001, marginal=0.002)
        assert ctrl.max_batch_for("fp", 16) == 1

    def test_explore_escape_revises_a_stale_solo_verdict(self):
        """A parked pattern re-earns exploration after explore_interval
        solo solves: verdicts are re-tested, never held forever."""
        ctrl = BatchController(explore_interval=16)
        _learned(ctrl, solo=0.001, marginal=0.002)  # parked: solo cheaper
        assert ctrl.max_batch_for("fp", 16) == 1
        for _ in range(16):
            ctrl.observe_solo("fp", seconds=0.001, iterations=30)
        assert ctrl.max_batch_for("fp", 16) == 16

    def _always_coalesced(self, ctrl: BatchController) -> None:
        """A pattern whose every request rode a 2-lane pass (two
        clients in lock-step): 80 ms of CPU per pass, no solo price."""
        for _ in range(2):
            ctrl.observe_pass(
                "fp", lanes=2, seconds=0.080, lane_iterations=[30, 30],
            )

    def test_unpriced_solo_arm_is_probed_then_compared(self):
        ctrl = BatchController(min_explore_passes=2)
        self._always_coalesced(ctrl)
        # Passes on record, solo never measured: dispatch one head
        # alone instead of trusting the passes blindly.
        assert ctrl.max_batch_for("fp", 16) == 1
        assert ctrl.dispatch_window(_request(None), 2) is None
        ctrl.observe_solo("fp", seconds=0.025, iterations=30)
        stats = ctrl.stats_for("fp")
        assert stats.solo_probes == 1
        # 40 ms per batched lane against 25 ms solo: batching loses.
        assert ctrl.max_batch_for("fp", 16) == 1
        ctrl.observe_solo("fp", seconds=0.025, iterations=30)
        assert stats.solo_probes == 1  # priced once, not per solo

    def test_explore_escape_retests_a_probed_solo_verdict(self):
        ctrl = BatchController(min_explore_passes=2, explore_interval=16)
        self._always_coalesced(ctrl)
        for _ in range(15):
            ctrl.observe_solo("fp", seconds=0.025, iterations=30)
        assert ctrl.max_batch_for("fp", 16) == 1
        ctrl.observe_solo("fp", seconds=0.025, iterations=30)
        assert ctrl.max_batch_for("fp", 16) == 16

    def test_unamortized_fixed_cost_parks_the_pattern(self):
        """A cheap marginal lane is not enough: when the whole pass at
        the cap costs more than that many solo solves, batching loses
        throughput and latency both."""
        ctrl = BatchController(latency_budget=6.0)
        _learned(ctrl, solo=0.010, fixed=0.050, marginal=0.002)
        stats = ctrl.stats_for("fp")
        assert stats.marginal_lane_seconds < stats.ewma_solo_seconds
        # The budget buys (6 * 0.010 - 0.050) / 0.002 = 5 lanes, but a
        # 5-lane pass costs 0.060 s against 0.050 s for five solos.
        assert ctrl.max_batch_for("fp", 16) == 1
        # The same fixed cost amortized by a dearer solo arm pays:
        # 10 lanes at 0.070 s against 0.200 s.
        ctrl = BatchController(latency_budget=6.0)
        _learned(ctrl, solo=0.020, fixed=0.050, marginal=0.002)
        assert ctrl.max_batch_for("fp", 10) == 10

    def test_lost_explorations_back_the_escape_off(self):
        """Each re-test that confirms a solo verdict doubles how many
        solo solves it stands for; a pass that wins resets that."""
        ctrl = BatchController(explore_interval=16)
        _learned(ctrl, solo=0.001, marginal=0.002)  # parked

        def solos(count: int) -> None:
            for _ in range(count):
                ctrl.observe_solo("fp", seconds=0.001, iterations=30)

        def explore(seconds: float) -> None:
            ctrl.observe_pass(
                "fp", lanes=16, seconds=seconds, lane_iterations=[30] * 16,
            )

        stats = ctrl.stats_for("fp")
        solos(16)
        assert ctrl.max_batch_for("fp", 16) == 16
        explore(0.042)  # loses again
        assert stats.explore_losses == 1
        solos(16)
        assert ctrl.max_batch_for("fp", 16) == 1  # stands for 32 now
        solos(16)
        assert ctrl.max_batch_for("fp", 16) == 16
        explore(0.042)
        assert stats.explore_losses == 2
        # A fragment of the same exploration is not a second loss.
        explore(0.042)
        assert stats.explore_losses == 2
        solos(63)
        assert ctrl.max_batch_for("fp", 16) == 1
        solos(1)
        assert ctrl.max_batch_for("fp", 16) == 16
        # The regime changes: passes become cheap, the verdict flips
        # and the back-off is forgotten.
        for _ in range(12):
            explore(0.002)
        assert ctrl.max_batch_for("fp", 16) == 16
        assert stats.explore_losses == 0

    def test_average_cost_fallback_without_size_variance(self):
        ctrl = BatchController(latency_budget=6.0)
        for _ in range(2):
            ctrl.observe_solo("fp", seconds=0.020, iterations=30)
        for _ in range(3):  # constant size: no affine fit
            ctrl.observe_pass(
                "fp", lanes=8, seconds=0.040, lane_iterations=[30] * 8,
            )
        # cap = budget * solo / lane = 6 * 0.020 / 0.005
        assert ctrl.max_batch_for("fp", 1 << 30) == 24

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            BatchController(policy="clever")


# ----------------------------------------------------------------------
# dispatch window and rider bucketing
# ----------------------------------------------------------------------
def _held(ctrl, riders, lanes, fp="fp", seconds=0.02, times=1):
    for _ in range(times):
        ctrl.observe_hold(fp, riders=riders, lanes=lanes, seconds=seconds)


class TestDispatchWindow:
    """Work-conserving first: a hold needs evidence that holding pays."""

    BASE = lasso_problem(4, n_samples=8, seed=0)

    def test_non_adaptive_policies_never_hold(self):
        for policy in ("greedy", "off"):
            ctrl = BatchController(policy=policy)
            _held(ctrl, riders=7, lanes=8)
            assert ctrl.dispatch_window(_request(self.BASE), 1) is None
            assert ctrl.dispatch_window(_request(self.BASE), 3) is None

    def test_lone_head_dispatches_at_once_whatever_the_cap(self):
        """No hold outcome on record: the hard-cap exploration of an
        unbatched pattern and a learned cap above 1 both used to open
        the window; neither is evidence that riders will come."""
        ctrl = BatchController()
        assert ctrl.max_batch_for("fp", 16) == 16  # still exploring
        assert ctrl.dispatch_window(_request(self.BASE), 1) is None
        _learned(ctrl, solo=0.010)
        assert ctrl.max_batch_for("fp", 16) > 1
        assert ctrl.dispatch_window(_request(self.BASE), 1) is None

    def test_parked_pattern_dispatches_immediately(self):
        ctrl = BatchController()
        _learned(ctrl, solo=0.001, marginal=0.002)  # cap == 1
        _held(ctrl, riders=7, lanes=8)
        assert ctrl.dispatch_window(_request(self.BASE), 1) is None

    def test_riders_at_pop_hold_only_while_the_burst_trickles(self):
        """Unlearned yield, riders queued at pop: the expected group
        is what is already here, so only the grace period (a fraction
        of the window) keeps the batch open, one arrival at a time."""
        ctrl = BatchController(max_window=0.05)
        _learned(ctrl, solo=0.010)
        hold = ctrl.dispatch_window(_request(self.BASE), 3)
        assert hold.seconds == pytest.approx(0.020)  # 2 x solo
        assert hold.lanes == 3
        assert 0.0 < hold.grace < 0.25 * hold.seconds

    def test_productive_holds_license_waiting_for_the_learned_group(self):
        ctrl = BatchController()
        _learned(ctrl, solo=0.010)
        _held(ctrl, riders=5, lanes=6, times=3)
        hold = ctrl.dispatch_window(_request(self.BASE), 1)
        assert hold.lanes == 6  # closes early at the group holds reached
        assert hold.seconds == pytest.approx(0.020)
        # The group is already here: nothing to wait for.
        assert ctrl.dispatch_window(_request(self.BASE), 6) is None

    def test_unproductive_holds_stop_and_productive_ones_continue(self):
        ctrl = BatchController()
        _learned(ctrl, solo=0.010)
        _held(ctrl, riders=3, lanes=4, times=4)
        assert ctrl.dispatch_window(_request(self.BASE), 1) is not None
        opened = 0
        while ctrl.dispatch_window(_request(self.BASE), 1) is not None:
            _held(ctrl, riders=0, lanes=1)  # the lone client's outcome
            opened += 1
            assert opened < 10, "holds that gather nobody must stop"
        stats = ctrl.stats_for("fp")
        assert stats.ewma_hold_riders < 0.5
        # Empty holds say "do not wait", not "groups shrank".
        assert stats.ewma_hold_group == pytest.approx(4.0)
        # A burst that trickles in re-earns the licence.
        _held(ctrl, riders=3, lanes=4)
        assert ctrl.dispatch_window(_request(self.BASE), 1).lanes == 4

    def test_learned_group_is_clamped_to_the_cap(self):
        ctrl = BatchController(latency_budget=1.0)
        _learned(ctrl, solo=0.020, fixed=0.010, marginal=0.002)
        cap = ctrl.max_batch_for("fp", 1 << 30)
        assert 1 < cap < 12
        _held(ctrl, riders=11, lanes=12, times=3)
        assert ctrl.dispatch_window(_request(self.BASE), 1).lanes == cap
        assert ctrl.dispatch_window(_request(self.BASE), cap) is None

    def test_window_is_twice_solo_capped_by_max_window(self):
        ctrl = BatchController(max_window=0.05)
        _learned(ctrl, fp="fp2", solo=0.040)
        req = SolveRequest(problems=[self.BASE], fingerprint="fp2")
        assert ctrl.dispatch_window(req, 2).seconds == pytest.approx(0.05)
        # Solo cost never observed: the absolute bound applies.
        cold = SolveRequest(problems=[self.BASE], fingerprint="never-solved")
        assert ctrl.dispatch_window(cold, 2).seconds == pytest.approx(0.05)

    def test_deadline_tightens_the_window(self):
        import time

        ctrl = BatchController()
        _learned(ctrl, solo=0.020)
        req = SolveRequest(
            problems=[self.BASE],
            fingerprint="fp",
            deadline=time.monotonic() + 0.040,
        )
        # min(2 * solo, 0.25 * remaining) ~= 0.25 * 0.040
        assert ctrl.dispatch_window(req, 2).seconds <= 0.25 * 0.040 + 1e-6
        late = SolveRequest(
            problems=[self.BASE],
            fingerprint="fp",
            deadline=time.monotonic() - 1.0,
        )
        assert ctrl.dispatch_window(late, 2) is None

    def test_hold_outcomes_feed_stats_and_counters(self):
        metrics = ServeMetrics()
        ctrl = BatchController(alpha=0.5, metrics=metrics)
        ctrl.observe_hold("fp", riders=3, lanes=4, seconds=0.02)
        ctrl.observe_hold("fp", riders=1, lanes=2, seconds=0.04)
        s = ctrl.stats_for("fp")
        assert s.holds == 2
        assert s.ewma_hold_riders == pytest.approx(2.0)
        assert s.ewma_hold_group == pytest.approx(3.0)
        assert s.ewma_hold_seconds == pytest.approx(0.03)
        assert metrics.count("window_holds") == 2
        assert metrics.count("window_riders") == 4
        snap = ctrl.snapshot()["patterns"]["fp"]
        assert snap["holds"] == 2
        assert snap["ewma_hold_riders"] == pytest.approx(2.0)
        assert snap["ewma_hold_seconds"] == pytest.approx(0.03)
        assert snap["solo_probes"] == 0


class TestRider:
    def _pair(self, scale: float = 0.0):
        base = lasso_problem(4, n_samples=8, seed=0)
        head = _request(base)
        candidate = _request(
            perturbed(base, 7, scale=scale) if scale else base
        )
        return head, candidate

    def test_off_rejects_and_greedy_accepts_everything(self):
        head, candidate = self._pair()
        assert not BatchController(policy="off").rider(head, candidate, 1)
        assert BatchController(policy="greedy").rider(head, candidate, 1)

    def test_cap_reject_is_counted(self):
        metrics = ServeMetrics()
        ctrl = BatchController(metrics=metrics, latency_budget=6.0)
        _learned(ctrl, solo=0.020, fixed=0.010, marginal=0.002)
        cap = ctrl.max_batch_for("fp", 1 << 30)
        head, candidate = self._pair()
        assert ctrl.rider(head, candidate, cap - 1)
        assert not ctrl.rider(head, candidate, cap)
        assert metrics.count("rider_rejects_cap") == 1

    def test_distant_candidate_heads_its_own_batch(self):
        metrics = ServeMetrics()
        ctrl = BatchController(metrics=metrics, bucket_width=0.35)
        head, near = self._pair(scale=0.01)
        _, far = self._pair(scale=10.0)
        assert ctrl.rider(head, near, 1)
        assert not ctrl.rider(head, far, 1)
        assert metrics.count("rider_rejects_distance") == 1


class TestValueDistance:
    def test_identical_instances_are_at_distance_zero(self):
        base = lasso_problem(4, n_samples=8, seed=0)
        assert value_distance(base, base) == 0.0

    def test_distance_grows_with_perturbation_scale(self):
        base = lasso_problem(4, n_samples=8, seed=0)
        near = value_distance(base, perturbed(base, 3, scale=0.01))
        far = value_distance(base, perturbed(base, 3, scale=1.0))
        assert 0.0 < near < far

    def test_infinity_structure_mismatch_is_maximally_far(self):
        base = lasso_problem(4, n_samples=8, seed=0)
        other = QPProblem(
            p=base.p,
            q=base.q,
            a=base.a,
            l=np.where(np.isinf(base.l), -1e3, base.l),
            u=base.u,
            name=base.name,
        )
        if np.isinf(base.l).any():
            assert value_distance(base, other) == math.inf
        else:  # pattern has finite bounds: force a mismatch instead
            other = QPProblem(
                p=base.p,
                q=base.q,
                a=base.a,
                l=np.full_like(base.l, -np.inf),
                u=base.u,
                name=base.name,
            )
            assert value_distance(base, other) == math.inf


class TestSnapshot:
    def test_snapshot_is_json_ready(self):
        import json

        ctrl = BatchController()
        _learned(ctrl)
        doc = ctrl.snapshot()
        json.dumps(doc)  # must not raise
        assert doc["policy"] == "adaptive"
        stats = doc["patterns"]["fp"]
        assert stats["passes"] == 3
        assert stats["marginal_lane_seconds"] == pytest.approx(0.002)


# ----------------------------------------------------------------------
# thread-safety smoke: concurrent observers and deciders
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_concurrent_observation_and_decision(self):
        ctrl = BatchController()
        errors: list[Exception] = []

        def observer():
            try:
                for i in range(200):
                    ctrl.observe_solo("fp", seconds=0.01, iterations=30)
                    ctrl.observe_pass(
                        "fp",
                        lanes=4 + i % 8,
                        seconds=0.02,
                        lane_iterations=[30] * (4 + i % 8),
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def decider():
            try:
                for _ in range(200):
                    ctrl.max_batch_for("fp", 16)
                    ctrl.snapshot()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=f)
            for f in (observer, decider, observer, decider)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not errors
        assert 1 <= ctrl.max_batch_for("fp", 16) <= 16


# ----------------------------------------------------------------------
# differential: coalesced dispatch is bit-identical to solo solves
# ----------------------------------------------------------------------
class TestDifferentialBitwise:
    def test_randomized_mix_with_forced_bailouts_stays_bitwise(self):
        """A heterogeneous batch (the mix that used to force mid-pass
        bail-outs; there is no lockstep to bail out of now): every
        lane equals ``update_values`` + ``solve()`` on a twin solver
        with the same warm history, rho carried from lane to lane."""
        base = lasso_problem(6, n_samples=16, seed=0)
        pool = SolverPool(capacity=2, variant="direct", c=C, settings=SETTINGS)
        twin = MIBSolver(base, variant="direct", c=C, settings=SETTINGS)

        # Identical warm histories: cold solve + three warm solos, so
        # the adapted rho matches between pool entry and twin.
        pool.solve(base)
        twin.solve()
        for seed in range(3):
            p = perturbed(base, seed)
            pool.solve(p)
            twin.update_values(p)
            twin.solve()

        # Small scales stay near the previous instance; the huge ones
        # are semantically different instances that converge on a
        # different schedule and move rho for the lanes behind them.
        rng_scales = [0.01, 0.02, 50.0, 0.01, 200.0, 0.02, 100.0, 0.01]
        problems = [
            perturbed(base, 100 + i, scale=s)
            for i, s in enumerate(rng_scales)
        ]
        solves = pool.solve_batch(problems)

        assert len({s.report.result.iterations for s in solves}) > 1
        assert any(s.report.result.rho_updates for s in solves)
        for lane, problem in zip(solves, problems):
            twin.update_values(problem)
            report = twin.solve()
            lane_r = lane.report.result
            assert lane_r.iterations == report.result.iterations
            assert lane_r.rho_updates == report.result.rho_updates
            assert lane_r.x.tobytes() == report.result.x.tobytes()
            assert lane_r.y.tobytes() == report.result.y.tobytes()
            assert lane.report.cycles == report.cycles

    @pytest.mark.serve_e2e
    def test_adaptive_server_burst_is_bitwise_incl_bailouts(self):
        """Full stack: 8 concurrent requests with mixed warm-start
        distance, drained through the controller's rider/window/cap
        hooks under the adaptive policy, each answered bit-identically
        to the solo solve at its place in the dispatch order."""
        from tests.test_serve.test_batch_serve import (
            _post_concurrently,
            _wait_for_queue,
            assert_response_is,
        )

        burst = 8
        base = mpc_problem(2, horizon=3, seed=5)
        controller = BatchController(
            policy="adaptive",
            bucket_width=1e9,  # admit every rider
            metrics=ServeMetrics(),
        )
        with ServeServer(
            port=0,
            workers=0,
            queue_size=2 * burst,
            max_batch=burst,
            variant="direct",
            c=C,
            settings=SETTINGS,
            controller=controller,
        ) as server:
            server.pool.solve(base)
            client = ServeClient(port=server.port)
            scales = [0.01, 50.0, 0.01, 200.0, 0.02, 100.0, 0.01, 50.0]
            problems = [
                perturbed(base, 300 + i, scale=s)
                for i, s in enumerate(scales)
            ]
            responses, threads = _post_concurrently(
                client, problems, [30.0] * burst
            )
            _wait_for_queue(server, burst)
            batch = server.queue.next_batch(
                max_batch=server.max_batch,
                timeout=1.0,
                rider=controller.rider,
                window=controller.dispatch_window,
                cap=lambda head: controller.max_batch_for(
                    head.fingerprint, server.max_batch
                ),
            )
            assert len(batch) == burst
            server.engine._process_batch(batch)
            for t in threads:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads)

            for response in responses:
                assert response.ok and response.solved, response.raw
                assert response.raw["batched"] is True
            # Lanes finish in dispatch order; a twin with the pool
            # entry's history takes the instances in that order.
            order = sorted(
                range(burst), key=lambda i: responses[i].raw["solve_seconds"]
            )
            twin = MIBSolver(base, variant="direct", c=C, settings=SETTINGS)
            twin.solve()
            for i in order:
                twin.update_values(problems[i])
                assert_response_is(responses[i], twin.solve())

    @pytest.mark.serve_e2e
    def test_lone_client_never_waits_and_a_burst_is_still_bitwise(self):
        """Live adaptive server, default controller.  One closed-loop
        client over three resident patterns is dispatched the moment a
        worker pops it, from the first request on — no window opens on
        concurrency nobody has shown.  A 4-client same-pattern burst is
        then answered 200 whichever way the dispatcher splits it, each
        answer bit-equal to the solo solve of its instance."""
        from tests.test_serve.test_batch_serve import (
            _post_concurrently,
            assert_response_is,
        )

        # rho never adapts on this pattern, so a cold-iterate solve
        # does not depend on where in the stream it ran.
        base = mpc_problem(2, horizon=3, seed=5)
        patterns = [
            base,
            lasso_problem(6, n_samples=16, seed=0),
            portfolio_problem(8, seed=0),
        ]
        with ServeServer(
            port=0,
            workers=2,
            batch_policy="adaptive",
            variant="direct",
            c=C,
            settings=SETTINGS,
        ) as server:
            for problem in patterns:
                server.pool.solve(problem)  # resident before the clock
            client = ServeClient(port=server.port)
            for rotation in range(4):
                for problem in patterns:
                    response = client.solve(
                        perturbed(problem, rotation), timeout_s=30.0
                    )
                    assert response.ok and response.solved, response.raw
                    assert response.raw["window_seconds"] == 0.0
                    assert response.raw["queue_seconds"] < 5e-3
            assert server.metrics.count("window_holds") == 0

            problems = [perturbed(base, 400 + i) for i in range(4)]
            responses, threads = _post_concurrently(
                client, problems, [30.0] * 4
            )
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)

            solo = MIBSolver(base, variant="direct", c=C, settings=SETTINGS)
            for response, problem in zip(responses, problems):
                assert response.ok and response.solved, response.raw
                raw = response.raw
                assert 0.0 <= raw["window_seconds"] <= raw["queue_seconds"]
                solo.update_values(problem)
                report = solo.solve()
                assert report.result.rho_updates == 0
                assert_response_is(response, report)
