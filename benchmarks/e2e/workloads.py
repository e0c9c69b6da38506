"""The five serve workloads: fixed patterns, seeded values, fixed counts.

A workload is a *plan*: the requests each closed-loop client issues, in
order, generated entirely before the clock starts.  ``--seed`` drives
value perturbations only — the sparsity patterns, the request counts
and therefore the compiled programs repeat exactly from run to run.

Request counts are stated at the design size (the numbers in
README.md), at which the five workloads measure 25 s on average on the
2-core reference box, and are scaled by one recorded factor,
``seconds / 25``: the driver's ``--seconds`` sizes every workload by the
same rule, never one workload alone.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.io import problem_with_values
from repro.problems import (
    benchmark_suite,
    huber_problem,
    lasso_problem,
    mpc_problem,
    portfolio_problem,
    svm_problem,
)
from repro.solver import QPProblem

DESIGN_SECONDS = 25.0

# Why each was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = (
    "solo_mixed",
    "stream_session",
    "scenario_fanout",
    "cold_ladder",
    "pair_coalesce",
)

SCENARIO_LANES = 16
MPC_NX = 6

# The five bench_serve patterns plus two that leave the n <= 120 regime.
RESIDENT_PATTERNS = {
    "lasso": lambda: lasso_problem(16, n_samples=64, seed=0),
    "mpc": lambda: mpc_problem(MPC_NX, seed=0),
    "portfolio": lambda: portfolio_problem(48, seed=0),
    "svm": lambda: svm_problem(10, n_samples=40, seed=0),
    "huber": lambda: huber_problem(10, n_samples=30, seed=0),
    "portfolio160": lambda: portfolio_problem(160, seed=0),
    "lasso32": lambda: lasso_problem(32, n_samples=128, seed=0),
}
BATCH_PATTERNS = ("mpc", "lasso", "portfolio")
LADDER_SCALE_INDICES = (0, 2, 4, 6, 8)


@dataclass(frozen=True)
class Request:
    """One HTTP exchange of a plan.

    ``kind`` is ``"solve"`` (``POST /v1/solve`` of ``problem``) or
    ``"scenarios"`` (``POST /v1/scenarios`` of ``variants`` against the
    base ``problem``).
    """

    kind: str
    pattern: str
    problem: QPProblem
    variants: tuple[QPProblem, ...] = ()
    session: str | None = None

    @property
    def instances(self) -> tuple[QPProblem, ...]:
        """The QP instances this exchange solves, in payload order."""
        return self.variants if self.kind == "scenarios" else (self.problem,)


@dataclass
class Plan:
    """Everything one run of a workload sends.

    ``phases`` maps a phase name to one request list per client; the
    clients of a phase advance in lock-step (a barrier per request
    index), which with a single client is a plain closed loop.

    The main phase is a whole number of *blocks* of ``block_rounds``
    consecutive rounds each, every block the same patterns in the same
    order with fresh values — the unit the timing metrics are taken
    over (see ``metrics.py``).  ``block_rounds == 0``: one block.
    """

    name: str
    scale: float
    patterns: dict[str, QPProblem]
    warmup: list[Request]
    phases: dict[str, list[list[Request]]] = field(default_factory=dict)
    block_rounds: int = 0

    @property
    def clients(self) -> int:
        return max(len(lists) for lists in self.phases.values())

    def counts(self) -> dict:
        """Request and instance counts per phase (for the stamp)."""
        out = {}
        for phase, lists in self.phases.items():
            requests = [r for lst in lists for r in lst]
            out[phase] = {
                "requests": len(requests),
                "instances": sum(len(r.instances) for r in requests),
            }
        return out


def scaled(count: int, scale: float) -> int:
    """A design-size count under the run's one scale factor."""
    return max(1, round(count * scale))


def perturbed(base: QPProblem, rng: np.random.Generator, scale: float = 0.05):
    """A fresh numeric instance of ``base``'s pattern (MPC-style):
    multiplicative noise on the linear term, feasibility untouched."""
    q = base.q * (1.0 + scale * rng.standard_normal(base.n))
    return QPProblem(p=base.p, q=q, a=base.a, l=base.l, u=base.u, name=base.name)


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _solo_mixed(seed: int, scale: float) -> Plan:
    rng = _rng(seed, "solo_mixed")
    bases = {name: gen() for name, gen in RESIDENT_PATTERNS.items()}
    per_pattern = scaled(30, scale)
    requests = [
        Request("solve", name, perturbed(base, rng))
        for _ in range(per_pattern)
        for name, base in bases.items()
    ]
    warmup = [Request("solve", n, b) for n, b in bases.items()]
    return Plan(
        "solo_mixed", scale, bases, warmup, {"main": [requests]},
        block_rounds=len(bases),
    )


def _mpc_stream(base: QPProblem, steps: int, rng) -> list[QPProblem]:
    """Initial-state rows of ``l``/``u`` follow a mean-reverting walk."""
    state = -base.l[:MPC_NX].copy()
    out = []
    for _ in range(steps):
        state = 0.98 * state + 0.02 * rng.standard_normal(MPC_NX)
        l, u = base.l.copy(), base.u.copy()
        l[:MPC_NX] = u[:MPC_NX] = -state
        out.append(problem_with_values(base, l=l, u=u))
    return out


def _portfolio_stream(base: QPProblem, steps: int, rng) -> list[QPProblem]:
    """Expected returns drift multiplicatively; only ``q`` moves."""
    q = base.q
    out = []
    for _ in range(steps):
        q = q * (1.0 + 0.02 * rng.standard_normal(base.n))
        out.append(problem_with_values(base, q=q))
    return out


# Three MPC steps to five portfolio steps.  Deliberately unequal: with
# two equal streams of different step cost the median would sit on the
# gap between them and jump from run to run; 3:5 puts p50 inside the
# portfolio stream and p90 inside the MPC stream.
STREAM_CYCLE = ("mpc", "portfolio", "portfolio") * 2 + ("mpc", "portfolio")
STREAM_BLOCK_CYCLES = 5


def _stream_session(seed: int, scale: float) -> Plan:
    rng = _rng(seed, "stream_session")
    blocks = scaled(50, scale)
    cycles = blocks * STREAM_BLOCK_CYCLES
    bases = {
        "mpc": RESIDENT_PATTERNS["mpc"](),
        "portfolio": RESIDENT_PATTERNS["portfolio"](),
    }
    streams = {
        "mpc": iter(
            _mpc_stream(bases["mpc"], cycles * STREAM_CYCLE.count("mpc"), rng)
        ),
        "portfolio": iter(
            _portfolio_stream(
                bases["portfolio"],
                cycles * STREAM_CYCLE.count("portfolio"),
                rng,
            )
        ),
    }
    # The warm-up request is step 0 of each session, so every measured
    # step is a vectors-only continuation of its predecessor.
    warmup = [
        Request("solve", name, base, session=f"e2e-{name}")
        for name, base in bases.items()
    ]
    # One client serves both controllers, interleaved; each keeps its
    # own session, so the streams do not disturb one another.
    requests = [
        Request("solve", name, next(streams[name]), session=f"e2e-{name}")
        for _ in range(cycles)
        for name in STREAM_CYCLE
    ]
    return Plan(
        "stream_session", scale, bases, warmup, {"main": [requests]},
        block_rounds=STREAM_BLOCK_CYCLES * len(STREAM_CYCLE),
    )


def _scenario_request(name: str, base: QPProblem, rng) -> Request:
    variants = tuple(perturbed(base, rng) for _ in range(SCENARIO_LANES))
    return Request("scenarios", name, base, variants=variants)


def _scenario_fanout(seed: int, scale: float) -> Plan:
    rng = _rng(seed, "scenario_fanout")
    bases = {name: RESIDENT_PATTERNS[name]() for name in BATCH_PATTERNS}
    per_pattern = scaled(50, scale)
    requests = [
        _scenario_request(name, base, rng)
        for _ in range(per_pattern)
        for name, base in bases.items()
    ]
    warmup = [_scenario_request(n, b, rng) for n, b in bases.items()]
    return Plan(
        "scenario_fanout", scale, bases, warmup, {"main": [requests]},
        block_rounds=len(bases),
    )


def ladder_specs(scale: float):
    """The cold ladder's patterns: an evenly spaced ``scale`` share of
    the 25-pattern design ladder, smallest scale first."""
    specs = [
        s
        for s in benchmark_suite(n_scales=20)
        if s.scale_index in LADDER_SCALE_INDICES
    ]
    specs.sort(key=lambda s: (s.scale_index, s.domain))
    keep = scaled(len(specs), scale)
    return [specs[i * len(specs) // keep] for i in range(keep)]


def _cold_ladder(seed: int, scale: float) -> Plan:
    rng = _rng(seed, "cold_ladder")
    bases = {s.label: s.generate() for s in ladder_specs(scale)}
    first = [Request("solve", n, perturbed(b, rng)) for n, b in bases.items()]
    again = [Request("solve", n, perturbed(b, rng)) for n, b in bases.items()]
    # No warm-up: the first touch of every pattern *is* the measurement.
    return Plan(
        "cold_ladder", scale, bases, [], {"main": [first], "readmit": [again]}
    )


def _pair_coalesce(seed: int, scale: float) -> Plan:
    rng = _rng(seed, "pair_coalesce")
    bases = {name: RESIDENT_PATTERNS[name]() for name in BATCH_PATTERNS}
    clients: list[list[Request]] = [[], []]
    # The pattern rotates every round; both clients always send the
    # same pattern at the same moment, with different values.
    for _ in range(scaled(80, scale)):
        for name, base in bases.items():
            for requests in clients:
                requests.append(Request("solve", name, perturbed(base, rng)))
    warmup = [Request("solve", n, b) for n, b in bases.items()]
    return Plan(
        "pair_coalesce", scale, bases, warmup, {"main": clients},
        block_rounds=len(bases),
    )


_BUILDERS = {
    "solo_mixed": _solo_mixed,
    "stream_session": _stream_session,
    "scenario_fanout": _scenario_fanout,
    "cold_ladder": _cold_ladder,
    "pair_coalesce": _pair_coalesce,
}


def build_plan(name: str, seed: int, seconds: float) -> Plan:
    """Generate workload ``name``'s inputs for ``seed`` at the size
    ``seconds`` selects (``seconds / 25`` of the design counts)."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
    return _BUILDERS[name](seed, seconds / DESIGN_SECONDS)
