"""Segment-sorted reduce plans: ordered accumulation without add.at.

``np.add.at(state, idx, vals)`` applies duplicate-index contributions
one at a time in stream order — a left fold per target.  That ordering
is what keeps trace replay bit-identical to the sequential
interpreter, and it is exactly what accelerator scatter-adds (torch
``index_put_(accumulate=True)``, cupy ``scatter_add``) do *not*
guarantee: they reduce duplicates in whatever order the hardware
atomics land.

A :class:`ReducePlan` recovers the exact left fold with only
unique-index scatters.  Compiled once per commit run (the duplicate
structure is a property of the trace, not the data):

1. stable-sort the commit stream by target index, so each target's
   contributions appear contiguously *in stream order*;
2. rank every contribution within its target segment (its occurrence
   number r);
3. emit one *round* per rank: round r holds the r-th contribution of
   every target that has one.  Within a round all target indices are
   unique, so ``state[idx_r] += vals[src_r]`` is an ordinary
   deterministic scatter on every backend.

Executing the rounds in rank order applies each target's
contributions strictly in stream order, one addition at a time —
``((s + v0) + v1) + ...`` — which is the ``np.add.at`` left fold,
bit-for-bit, including the IEEE-754 corner cases (±inf producing NaN,
signed-zero results, NaN propagation) where floating-point addition
is not associative.  The one exception is which *payload* survives a
NaN+NaN addition — unspecified by IEEE-754 and genuinely different
between numpy's ufunc-at and fancy-index-add code paths.  The
property test in ``tests/test_arch/test_xp_backends.py`` pins this
equivalence under random duplicate streams and adversarial float64
values (comparing bytes modulo NaN payload).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReducePlan", "compile_reduce_plan"]


class ReducePlan:
    """Round-decomposed scatter-add schedule for one commit run.

    ``rounds`` is a list of ``(targets, sources)`` host index pairs:
    round r scatters ``vals[sources]`` into ``state[targets]`` where
    ``targets`` are unique.  ``n`` is the commit-stream length and
    ``max_dup`` the deepest duplicate chain (== ``len(rounds)``).
    Backend-converted rounds are memoized per backend name so device
    replay never re-uploads the plan.
    """

    __slots__ = ("rounds", "n", "_backend_rounds")

    def __init__(self, rounds: list[tuple[np.ndarray, np.ndarray]], n: int):
        self.rounds = rounds
        self.n = n
        self._backend_rounds: dict[str, list] = {}

    @property
    def max_dup(self) -> int:
        return len(self.rounds)

    def rounds_for(self, xp) -> list:
        """The rounds with index arrays converted for ``xp``."""
        conv = self._backend_rounds.get(xp.name)
        if conv is None:
            conv = [
                (xp.index(tgt), xp.index(src)) for tgt, src in self.rounds
            ]
            self._backend_rounds[xp.name] = conv
        return conv

    def apply(self, target, vals, xp=None) -> None:
        """``target[idx] += vals`` with exact left-fold ordering.

        With ``xp`` the scatter runs through backend index arrays on
        backend buffers; without, plain numpy (the equivalence oracle
        used by the property tests).
        """
        rounds = self.rounds if xp is None else self.rounds_for(xp)
        for tgt, src in rounds:
            target[tgt] += vals[src]


def compile_reduce_plan(idx: np.ndarray) -> ReducePlan:
    """Compile the round decomposition of one duplicate-index stream."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("reduce plan needs a 1-D index stream")
    n = idx.size
    if n == 0:
        return ReducePlan([], 0)
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_idx[1:] != sorted_idx[:-1]
    pos = np.arange(n, dtype=np.int64)
    group_start = np.maximum.accumulate(np.where(new_group, pos, 0))
    rank = pos - group_start
    rounds: list[tuple[np.ndarray, np.ndarray]] = []
    for r in range(int(rank.max()) + 1):
        src = order[rank == r]
        rounds.append((idx[src], src))
    return ReducePlan(rounds, n)
