"""A simulated device backend for CPU-only test coverage.

``MockDeviceBackend`` stores everything in numpy but presents itself
as a *device* backend (``is_host = False``): conversions copy (so a
"device" buffer is never the same object as its host source — the
scratch-isolation tests rely on that), duplicate-index commits run
through the precompiled :class:`~repro.xp.plans.ReducePlan` fallback
instead of ``np.add.at``, and crossing accounting follows the
device-transfer model.

Because the reduce plan reproduces the ``np.add.at`` left fold
exactly, every solve through this backend must stay bit-identical to
the numpy path — which is precisely what makes it useful: the device
code path of the replay stack (prepared phases, plan scatters,
backend-keyed scratch, transfer crossings) is exercised with bitwise
assertions intact, with no device to run on.
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend
from .plans import ReducePlan, compile_reduce_plan

__all__ = ["MockDeviceBackend"]


class MockDeviceBackend(ArrayBackend):
    name = "mock"
    is_host = False

    def from_host(self, a):
        return np.array(a, dtype=np.float64)  # simulate the upload copy

    def to_host(self, a, copy: bool = False):
        return a.copy() if copy else a

    def copy_values(self, a):
        return np.array(a, dtype=np.float64)

    def _index_convert(self, a):
        return np.array(a, dtype=np.int64)

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.float64)

    def empty(self, shape):
        return np.empty(shape, dtype=np.float64)

    def bincount(self, seg, weights, minlength: int):
        return np.bincount(seg, weights=weights, minlength=minlength)

    def prepare_add_at_index(self, sids):
        return self._plan_memo.get(sids, compile_reduce_plan)

    def _plan_of(self, idx) -> ReducePlan:
        if isinstance(idx, ReducePlan):
            return idx
        return self._plan_memo.get(idx, compile_reduce_plan)

    def add_at(self, target, idx, vals) -> None:
        self._plan_of(idx).apply(target, vals, self)

    def minimum(self, a, b):
        return np.minimum(a, b)

    def maximum(self, a, b):
        return np.maximum(a, b)
