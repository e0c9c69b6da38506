"""The numpy reference backend: the bit-exactness oracle.

Every operation is the literal numpy call the replay stack used before
the backend abstraction existed — ``np.bincount`` left-fold segment
sums, unbuffered ``np.add.at`` commits, identity conversions — so
replaying through this backend is byte-for-byte the historical
execution.  All other backends are measured against it.
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    name = "numpy"
    is_host = True

    # Conversions are identities: host arrays *are* backend arrays.
    def from_host(self, a):
        return a

    def to_host(self, a, copy: bool = False):
        return a.copy() if copy else a

    def copy_values(self, a):
        return np.array(a, dtype=np.float64)

    def index(self, a):
        return a

    def constant(self, a):
        return a

    def _index_convert(self, a):  # pragma: no cover - index() shortcuts
        return a

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.float64)

    def empty(self, shape):
        return np.empty(shape, dtype=np.float64)

    def bincount(self, seg, weights, minlength: int):
        return np.bincount(seg, weights=weights, minlength=minlength)

    def add_at(self, target, idx, vals) -> None:
        np.add.at(target, idx, vals)

    def minimum(self, a, b):
        return np.minimum(a, b)

    def maximum(self, a, b):
        return np.maximum(a, b)
