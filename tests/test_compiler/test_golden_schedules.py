"""The committed schedule digest, and the request-count guard.

``golden_schedules.json`` pins every kernel schedule of the seven
resident serving patterns at C = 8: ``cycles``, ``n_ops``,
``n_prefetch`` and a SHA-256 over the ordered op tuples
(:func:`tests.scheduler_oracle.schedule_signature`).  Five of them are
pinned again under the configurations the default kernels leave
uncovered: ``lower_method="row"`` (the row-based forward solve in
``kkt_solve``) and ``variant="indirect"`` (``apply_s`` / ``cg_vector``),
keyed ``<pattern>/row`` and ``<pattern>/indirect``.  A change that
moves a schedule — on purpose or not — must regenerate the file in the
same commit:

    PYTHONPATH=src:. python tests/test_compiler/test_golden_schedules.py

The count guard replaces a stopwatch: the scheduler derives an
instruction's bin-packing request once per placement and once more per
prefetch rewrite, so ``request_builds`` is a function of the schedule.
A change that goes back to deriving it per probe fails here without a
wall-clock gate.  The same holds for the prefetch search: the scheduler
counts the slots it visits looking for a copy slot
(``prefetch_visits``), and mpc's count is pinned, so a search that scans
slots where no copy can land shows up as a larger count.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.backends.mib import MIBSolver
from repro.compiler import scheduler as scheduler_module
from repro.problems import (
    huber_problem,
    lasso_problem,
    mpc_problem,
    portfolio_problem,
    svm_problem,
)
from tests.scheduler_oracle import schedule_digest

GOLDEN = Path(__file__).with_name("golden_schedules.json")
C = 8

# The e2e benchmark's resident patterns, rebuilt from repro.problems.
PATTERNS = {
    "lasso": lambda: lasso_problem(16, n_samples=64, seed=0),
    "mpc": lambda: mpc_problem(6, seed=0),
    "portfolio": lambda: portfolio_problem(48, seed=0),
    "svm": lambda: svm_problem(10, n_samples=40, seed=0),
    "huber": lambda: huber_problem(10, n_samples=30, seed=0),
    "portfolio160": lambda: portfolio_problem(160, seed=0),
    "lasso32": lambda: lasso_problem(32, n_samples=128, seed=0),
}


# ``MIBSolver(p, c=C).iteration_crossings()`` and ``(check=True)`` per
# pattern.  The e2e benchmark compares ``arch.host_crossings_per_iter``
# as an exact count, so a change to the replay dispatch must move these
# on purpose.  Critical-path order moved them (mpc 605 -> 668 without a
# check): its ``kkt_solve`` is 80 slots shorter but lowers to 202
# replay phases where program order's lowered to 190.
CROSSINGS = {
    "lasso": (392, 518),
    "mpc": (668, 936),
    "portfolio": (216, 304),
    "svm": (325, 404),
    "huber": (296, 387),
    "portfolio160": (836, 1277),
    "lasso32": (830, 1179),
}


# Golden key -> (pattern, MIBSolver keyword arguments).
CONFIGS = {"row": {"lower_method": "row"}, "indirect": {"variant": "indirect"}}
GOLDEN_KEYS = {p: (p, {}) for p in PATTERNS} | {
    f"{p}/{config}": (p, kwargs)
    for config, kwargs in CONFIGS.items()
    for p in ("lasso", "mpc", "portfolio", "svm", "huber")
}


def digests(key: str) -> dict[str, dict]:
    pattern, kwargs = GOLDEN_KEYS[key]
    solver = MIBSolver(PATTERNS[pattern](), c=C, **kwargs)
    return {
        name: schedule_digest(sched)
        for name, sched in sorted(solver.kernels.schedules.items())
    }


@pytest.mark.parametrize("key", GOLDEN_KEYS)
def test_schedules_match_committed_digest(key):
    golden = json.loads(GOLDEN.read_text())
    assert digests(key) == golden[key]


@pytest.mark.parametrize("pattern", PATTERNS)
def test_iteration_crossings_pinned(pattern):
    solver = MIBSolver(PATTERNS[pattern](), c=C)
    assert (
        solver.iteration_crossings(),
        solver.iteration_crossings(check=True),
    ) == CROSSINGS[pattern]


@pytest.mark.parametrize("pattern", ["lasso", "mpc"])
def test_request_built_once_per_placement(pattern, monkeypatch):
    finished = []

    class Counting(scheduler_module._FirstFitScheduler):
        def _finish(self):
            schedule = super()._finish()
            finished.append((self.request_builds, schedule))
            return schedule

    monkeypatch.setattr(scheduler_module, "_FirstFitScheduler", Counting)
    MIBSolver(PATTERNS[pattern](), c=C)
    assert len(finished) == 6
    assert sum(s.n_prefetch for _, s in finished) > 0
    for builds, schedule in finished:
        assert builds == schedule.n_ops + schedule.n_prefetch, schedule.name


# Slots the prefetch search visits compiling mpc's six kernels at C = 8.
# Scanning on when the blocked slot's reads and the op's own banks
# leave no destination bank visits many more (for mpc's residuals).
PREFETCH_VISITS = {"kkt_solve": 373, "residuals": 23543, "factor": 1131}


def test_prefetch_search_visits_pinned(monkeypatch):
    visits = {}

    class Counting(scheduler_module._FirstFitScheduler):
        def _finish(self):
            schedule = super()._finish()
            if self.prefetch_visits:
                visits[schedule.name] = self.prefetch_visits
            return schedule

    monkeypatch.setattr(scheduler_module, "_FirstFitScheduler", Counting)
    MIBSolver(PATTERNS["mpc"](), c=C)
    assert visits == PREFETCH_VISITS


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({k: digests(k) for k in GOLDEN_KEYS}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
