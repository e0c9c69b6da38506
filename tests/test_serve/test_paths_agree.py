"""One answer per request, whatever path dispatched it.

Every endpoint runs ``MIBSolver.solve()`` on the pattern's resident
solver, so an instance's answer depends on the stream of instances
that pattern saw before it (ρ carries) and on nothing the scheduler
decided.  Live servers, bitwise: the same script — a first touch that
adapts ρ, then four probes — sent

(i)   as consecutive ``/v1/solve`` requests,
(ii)  as one ``/v1/scenarios`` fan-out,
(iii) two probes at a time from two clients, under ``greedy`` and
      ``adaptive``, whether or not the queue coalesced a pair,
(iv)  through a 2-shard server,

gives the same per-instance answers; a values-only request body
answers bitwise as its JSON twin on every path; every anonymous path takes the
vectors-only delta bind when P and A did not move, and still answers
bitwise as a full ``update_values`` rebind, also after a session moved
the shared solver's matrices; and a guard that there is one serving
engine: with the network entry points patched to raise, every endpoint
and a coalesced burst still answer 200.

Compared per instance: status, iterations, ``rho_updates``, ``cycles``
and x / y / z.  ``kernel_invocations`` is not on the wire; the pool
level compares it (``test_batch_serve.assert_same_solve``).
"""

from __future__ import annotations

import itertools
import threading
from typing import NamedTuple

import numpy as np
import pytest

from repro.backends.mib import MIBSolver
from repro.linalg import CSCMatrix
from repro.problems import lasso_problem, mpc_problem, portfolio_problem
from repro.serve import ServeClient, ServeServer
from repro.solver import QPProblem, Settings, SolveResult
from tests.test_backends.test_solve_batch import perturbed_full
from tests.test_serve.test_controller import perturbed

pytestmark = pytest.mark.serve_e2e

C = 8
SETTINGS = Settings(eps_abs=1e-3, eps_rel=1e-3, max_iter=2000, check_interval=5)
TIMEOUT_S = 60.0
PATTERNS = {
    "portfolio": lambda: portfolio_problem(8, seed=0),
    "lasso": lambda: lasso_problem(6, n_samples=16, seed=0),
}
# Two rounds of two simultaneous probes (path iii), by script index.
ROUNDS = ((1, 2), (3, 4))


def script(pattern: str) -> list[QPProblem]:
    """The first touch, then four probes with every value family
    perturbed: some move ρ again, so the answers behind them depend on
    the order served."""
    base = PATTERNS[pattern]()
    return [base] + [perturbed_full(base, seed, 1.0) for seed in range(1, 5)]


class Answer(NamedTuple):
    status: object
    iterations: int
    rho_updates: int
    cycles: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    @classmethod
    def of(cls, result: SolveResult, block: dict) -> "Answer":
        return cls(
            result.status, result.iterations, result.rho_updates,
            block["cycles"], result.x, result.y, result.z,
        )

    @classmethod
    def of_report(cls, report) -> "Answer":
        return cls.of(report.result, {"cycles": report.cycles})

    def same(self, other: "Answer") -> bool:
        return self[:4] == other[:4] and all(
            np.array_equal(a, b) for a, b in zip(self[4:], other[4:])
        )


@pytest.fixture(scope="module")
def serve(tmp_path_factory):
    """Fresh servers that share one schedule cache directory, so the
    module compiles each pattern once."""
    cache_dir = tmp_path_factory.mktemp("schedules")

    def start(**kwargs) -> ServeServer:
        kwargs.setdefault("workers", 2)
        return ServeServer(
            port=0, c=C, settings=SETTINGS, cache_dir=cache_dir, **kwargs
        )

    return start


def solve_one(client: ServeClient, problem: QPProblem, **kwargs) -> Answer:
    response = client.solve(problem, timeout_s=TIMEOUT_S, **kwargs)
    assert response.ok, response.raw
    return Answer.of(response.result, response.raw)


def consecutive(serve, problems: list[QPProblem], **kwargs) -> list[Answer]:
    """Path (i): one ``/v1/solve`` after the other on a fresh server."""
    with serve(**kwargs) as server:
        client = ServeClient(port=server.port)
        return [solve_one(client, problem) for problem in problems]


@pytest.fixture(scope="module")
def reference(serve) -> dict[str, list[Answer]]:
    answers = {name: consecutive(serve, script(name)) for name in PATTERNS}
    for name, got in answers.items():
        assert got[0].rho_updates >= 1, f"{name}: the first touch must adapt ρ"
        assert any(a.rho_updates for a in got[1:]), name
    return answers


@pytest.mark.parametrize("pattern", PATTERNS)
class TestPathsAgree:
    def test_scenario_fanout_equals_consecutive_solves(
        self, serve, reference, pattern
    ):
        problems = script(pattern)
        with serve() as server:
            client = ServeClient(port=server.port)
            reply = client.scenarios(
                problems[0], problems, timeout_s=TIMEOUT_S
            )
            assert reply.ok and reply.raw["lanes"] == len(problems), reply.raw
            counters = client.metrics()["counters"]
        assert counters["batched_solves"] == 1
        assert counters["batched_lanes"] == len(problems)
        for result, block, want in zip(
            reply.results, reply.steps, reference[pattern]
        ):
            assert Answer.of(result, block).same(want)

    @pytest.mark.parametrize("policy", ["greedy", "adaptive"])
    def test_simultaneous_arrivals_equal_one_of_the_two_orders(
        self, serve, reference, pattern, policy
    ):
        """Each round's two answers are those of its two instances as
        consecutive ``/v1/solve`` requests in one of the two orders."""
        problems = script(pattern)
        expected = []
        for flips in itertools.product((False, True), repeat=len(ROUNDS)):
            order = [0]
            for pair, flip in zip(ROUNDS, flips):
                order.extend(reversed(pair) if flip else pair)
            if order == sorted(order):
                got = reference[pattern]
            else:
                got = consecutive(serve, [problems[i] for i in order])
            expected.append(dict(zip(order, got)))
        assert not all(
            exp[i].same(expected[0][i]) for exp in expected for i in exp
        ), "the script must make the served order observable"

        observed: dict[int, Answer] = {}
        with serve(batch_policy=policy) as server:
            client = ServeClient(port=server.port)
            observed[0] = solve_one(client, problems[0])
            for pair in ROUNDS:
                barrier = threading.Barrier(len(pair))

                def arrive(index: int) -> None:
                    barrier.wait(timeout=TIMEOUT_S)
                    observed[index] = solve_one(client, problems[index])

                threads = [
                    threading.Thread(target=arrive, args=(i,)) for i in pair
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=TIMEOUT_S)
                assert not any(t.is_alive() for t in threads)
                assert set(pair) <= set(observed)
            coalesced = server.metrics.count("coalesced_requests")
        assert any(
            all(observed[i].same(exp[i]) for i in exp) for exp in expected
        ), f"no serial order explains the answers ({coalesced} coalesced)"

    def test_two_shard_server_equals_in_process(
        self, serve, reference, pattern
    ):
        got = consecutive(serve, script(pattern), shards=2, workers=1)
        for answer, want in zip(got, reference[pattern]):
            assert answer.same(want)


def test_sequence_and_session_start_from_the_configured_rho(serve):
    """``/v1/sequence`` step 0 and a session-keyed ``/v1/solve`` start
    from ``settings.rho``, as the anonymous path does on a pattern whose
    resident ρ never moved: on a resident ρ-stable pattern all three
    answers are bitwise equal, and so they are as a pattern's *first
    touch* — the anonymous first touch solves the instance the solver
    was constructed from without rebinding it, and construction scales
    an instance the way every rebind does."""
    base = mpc_problem(2, horizon=3, seed=5)
    probe = perturbed(base, 1)

    def three_ways(first_touch: bool) -> list[Answer]:
        answers = []
        for way in ("anonymous", "sequence", "session"):
            with serve() as server:
                client = ServeClient(port=server.port)
                if not first_touch:
                    assert solve_one(client, base).rho_updates == 0
                target = base if first_touch else probe
                if way == "sequence":
                    reply = client.sequence(
                        target, [target], timeout_s=TIMEOUT_S
                    )
                    assert reply.ok, reply.raw
                    answers.append(Answer.of(reply.results[0], reply.steps[0]))
                else:
                    session = "stream-1" if way == "session" else None
                    answers.append(solve_one(client, target, session=session))
        return answers

    for first_touch in (False, True):
        anonymous, sequence, session = three_ways(first_touch)
        assert sequence.same(anonymous) and session.same(anonymous)


@pytest.mark.parametrize("way", ["solve", "scenarios", "shards"])
def test_anonymous_paths_ride_the_delta_bind(serve, way):
    """After the first touch, a q-only stream takes the delta bind on
    every anonymous path — consecutive ``/v1/solve``, one
    ``/v1/scenarios`` fan-out, a 2-shard server — the first rebind
    after construction included.  Each reply says which
    bind it took, ``delta_binds`` counts them, and every answer is
    bitwise ``update_values`` + ``solve()`` on a twin built from the
    first touch."""
    base = PATTERNS["portfolio"]()
    stream = [base] + [perturbed(base, seed, 1.0) for seed in range(1, 6)]
    twin = MIBSolver(base, variant="direct", c=C, settings=SETTINGS)
    want = []
    for i, problem in enumerate(stream):
        if i:
            twin.update_values(problem)
        want.append(Answer.of_report(twin.solve()))

    kwargs = {"shards": 2, "workers": 1} if way == "shards" else {}
    with serve(**kwargs) as server:
        client = ServeClient(port=server.port)
        if way == "scenarios":
            reply = client.scenarios(stream[0], stream, timeout_s=TIMEOUT_S)
            assert reply.ok, reply.raw
            got = list(zip(reply.results, reply.steps))
        else:
            replies = [client.solve(p, timeout_s=TIMEOUT_S) for p in stream]
            assert all(r.ok for r in replies)
            got = [(r.result, r.raw) for r in replies]
        counters = client.metrics()["counters"]
    # The first touch binds nothing.
    delta = [False] + [True] * (len(stream) - 1)
    assert [block["delta_bind"] for _, block in got] == delta
    assert counters["delta_binds"] == sum(delta)
    for (result, block), expected in zip(got, want):
        assert Answer.of(result, block).same(expected)


def test_anonymous_after_a_session_regime_change_takes_the_full_bind(serve):
    """A session step with new matrix values rebinds the shared solver,
    so the next anonymous request — base's matrices again — is a full
    bind, and equals the twin given the same history (the session step
    is ``update_values`` + ``bind_rho(settings.rho)`` + ``solve()``)."""
    base = PATTERNS["portfolio"]()
    regime = perturbed_full(base, 3, 1.0)
    probes = [perturbed(base, seed, 1.0) for seed in (1, 2, 4, 5)]
    twin = MIBSolver(base, variant="direct", c=C, settings=SETTINGS)
    with serve() as server:
        client = ServeClient(port=server.port)
        assert solve_one(client, base).same(Answer.of_report(twin.solve()))
        for i, problem in enumerate(probes):
            if i == 2:
                twin.update_values(regime)
                twin.bind_rho(SETTINGS.rho)
                assert solve_one(client, regime, session="s").same(
                    Answer.of_report(twin.solve())
                )
            response = client.solve(problem, timeout_s=TIMEOUT_S)
            assert response.ok, response.raw
            assert response.raw["delta_bind"] is (i in (0, 1, 3))
            twin.update_values(problem)
            assert Answer.of(response.result, response.raw).same(
                Answer.of_report(twin.solve())
            )


def test_no_endpoint_enters_a_network_engine(serve, monkeypatch):
    """One serving engine: the network entry points may raise and every
    endpoint, and a coalesced burst of 16, still answers 200."""

    def forbidden(self, *args, **kwargs):
        raise AssertionError("a serving path entered a network engine")

    monkeypatch.setattr(MIBSolver, "solve_batch", forbidden)
    monkeypatch.setattr(MIBSolver, "solve_on_network", forbidden)
    problems = script("portfolio")
    burst = [perturbed(problems[0], 100 + i) for i in range(16)]
    with serve(batch_policy="greedy", queue_size=64) as server:
        client = ServeClient(port=server.port)
        assert client.solve(problems[0], timeout_s=TIMEOUT_S).http_status == 200
        for reply in (
            client.sequence(problems[0], problems[1:3], timeout_s=TIMEOUT_S),
            client.scenarios(problems[0], problems, timeout_s=TIMEOUT_S),
        ):
            assert reply.http_status == 200 and reply.ok, reply.raw
            assert all(block["solved"] for block in reply.steps)
        responses: list = [None] * len(burst)

        def issue(i: int) -> None:
            responses[i] = client.solve(burst[i], timeout_s=TIMEOUT_S)

        threads = [
            threading.Thread(target=issue, args=(i,)) for i in range(len(burst))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=TIMEOUT_S)
        assert not any(t.is_alive() for t in threads)
        for response in responses:
            assert response.http_status == 200 and response.solved, response.raw
        assert any(r.raw["batched"] for r in responses), (
            "16 simultaneous arrivals on 2 workers never coalesced"
        )


def shuffled(problem: QPProblem) -> QPProblem:
    """``problem`` with two row entries of one ``A`` column stored out
    of order: the same instance in a non-canonical CSC."""
    a = problem.a
    order = np.arange(a.nnz)
    lo = a.indptr[int(np.argmax(np.diff(a.indptr) > 1))]
    order[[lo, lo + 1]] = order[[lo + 1, lo]]
    return QPProblem(
        p=problem.p, q=problem.q,
        a=CSCMatrix(
            a.shape, a.indptr, a.indices[order], a.data[order], check=False
        ),
        l=problem.l, u=problem.u,
    )


def drive(serve, way: str, *, json_only: bool):
    """One path's script on a fresh server: every call from a fresh
    client (so every body is JSON) or from one client (so a pattern's
    later bodies are values).  Returns (result, block) per instance and
    the server's counters."""
    base = PATTERNS["portfolio"]()
    q_only = [base] + [perturbed(base, seed, 1.0) for seed in range(1, 6)]
    probes = script("portfolio")
    kwargs = {"shards": 2, "workers": 1} if way == "shards" else {}
    got = []
    with serve(**kwargs) as server:
        shared = ServeClient(port=server.port)

        def client() -> ServeClient:
            return ServeClient(port=server.port) if json_only else shared

        def solves(problems, **kw) -> None:
            for problem in problems:
                reply = client().solve(problem, timeout_s=TIMEOUT_S, **kw)
                assert reply.ok, reply.raw
                got.append((reply.result, reply.raw))

        def streams(call, chunks, **kw) -> None:
            for chunk in chunks:
                reply = call(client())(base, chunk, timeout_s=TIMEOUT_S, **kw)
                assert reply.ok, reply.raw
                got.extend(zip(reply.results, reply.steps))

        if way in ("anonymous", "shards"):
            solves(probes + [shuffled(probes[3]), shuffled(probes[4])])
        elif way == "session":
            solves(q_only, session="values-vs-json")
        elif way == "scenarios":
            streams(lambda c: c.scenarios, (probes[:3], probes[2:]))
        else:
            streams(
                lambda c: c.sequence, (q_only[:3], q_only[3:]),
                session="values-vs-json",
            )
        counters = shared.metrics()["counters"]
    return got, counters


@pytest.mark.parametrize(
    "way, values_bodies",
    [("anonymous", 4), ("session", 5), ("scenarios", 1), ("sequence", 1),
     ("shards", 4)],
)
def test_values_body_answers_as_its_json_twin(serve, way, values_bodies):
    """A values-only body and its JSON twin give bitwise the same x /
    y / z, iterations, ρ updates, cycles and bind.  The two
    non-canonical CSC instances at the end of the anonymous scripts
    ride JSON, the second one too (4 of the script's 6 repeats ride
    values)."""
    want, json_counters = drive(serve, way, json_only=True)
    got, counters = drive(serve, way, json_only=False)
    assert json_counters["values_requests"] == 0
    assert counters["values_requests"] == values_bodies
    assert counters["unknown_pattern"] == 0
    assert len(got) == len(want)
    for (result, block), (twin, twin_block) in zip(got, want):
        assert Answer.of(result, block)[:4] == Answer.of(twin, twin_block)[:4]
        for name in ("x", "y", "z"):
            mine, theirs = getattr(result, name), getattr(twin, name)
            assert mine.tobytes() == theirs.tobytes()
        assert block["delta_bind"] == twin_block["delta_bind"]
    if way in ("session", "sequence"):
        assert all(block["delta_bind"] for _, block in got[1:])
