"""array-api-strict test backend: catches numpy-isms in CI.

``StrictBackend`` runs the replay phase programs with every
*arithmetic* operation routed through the ``array_api_strict``
namespace — the portable subset of array semantics — so accidental
numpy-isms (silent dtype promotion, value-based casting, operator
behaviours outside the standard) fail loudly in the CI strict job
instead of surfacing as device-backend drift later.

Indexing is deliberately *not* routed through the strict namespace:
fancy-index gathers/scatters, ``bincount`` segment sums and ordered
``add_at`` commits are the executor-op set every backend implements
natively (the array API does not standardize them), so this backend
bridges them through numpy and documents them as such.  Arithmetic —
the part the standard does cover — runs on genuine strict arrays.

Arrays are :class:`_StrictArray` wrappers around a numpy mirror; each
arithmetic operator lifts its operands into ``array_api_strict``,
applies the standard operator there (dtype rules and all), and lowers
the result back.  Test-only: the per-op lift/lower round-trip is far
too slow for serving, which is why the policy layer never selects
``strict`` implicitly.
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend, BackendUnavailable
from .plans import ReducePlan, compile_reduce_plan

__all__ = ["StrictBackend"]


def _make_array_class(xps):
    """Build the wrapper class bound to one strict namespace."""

    def to_np(x):
        """Lower a strict array to numpy, tolerating API drift."""
        try:
            return np.asarray(x)
        except Exception:
            pass
        try:
            return np.from_dlpack(x)
        except Exception:
            return np.asarray(x._array)  # last resort: internal mirror

    class _StrictArray:
        """numpy-backed array whose arithmetic runs in array-api-strict."""

        __slots__ = ("np",)

        def __init__(self, arr):
            self.np = np.asarray(arr, dtype=np.float64)

        # -- shape protocol -------------------------------------------
        @property
        def shape(self):
            return self.np.shape

        @property
        def ndim(self):
            return self.np.ndim

        def ravel(self):
            return _StrictArray(self.np.ravel())

        def reshape(self, *shape):
            return _StrictArray(self.np.reshape(*shape))

        def copy(self):
            return _StrictArray(self.np.copy())

        def __float__(self):
            return float(self.np)

        # -- bridged executor indexing --------------------------------
        def __getitem__(self, idx):
            out = self.np[idx]
            return _StrictArray(out) if isinstance(out, np.ndarray) else out

        def __setitem__(self, idx, value):
            self.np[idx] = value.np if isinstance(value, _StrictArray) else value

        # -- strict-namespace arithmetic ------------------------------
        @staticmethod
        def _lift(other):
            if isinstance(other, _StrictArray):
                return xps.asarray(other.np)
            if isinstance(other, np.ndarray):
                return xps.asarray(other)
            return other  # python scalar: standard operator promotion

        def _binop(self, other, op, reflected=False):
            a = xps.asarray(self.np)
            b = self._lift(other)
            return _StrictArray(to_np(op(b, a) if reflected else op(a, b)))

        def __add__(self, o):
            return self._binop(o, lambda a, b: a + b)

        def __radd__(self, o):
            return self._binop(o, lambda a, b: a + b, reflected=True)

        def __sub__(self, o):
            return self._binop(o, lambda a, b: a - b)

        def __rsub__(self, o):
            return self._binop(o, lambda a, b: a - b, reflected=True)

        def __mul__(self, o):
            return self._binop(o, lambda a, b: a * b)

        def __rmul__(self, o):
            return self._binop(o, lambda a, b: a * b, reflected=True)

        def __truediv__(self, o):
            return self._binop(o, lambda a, b: a / b)

        def __rtruediv__(self, o):
            return self._binop(o, lambda a, b: a / b, reflected=True)

        def __neg__(self):
            return _StrictArray(to_np(-xps.asarray(self.np)))

        def __iadd__(self, o):
            return self.__add__(o)

        def __repr__(self):  # pragma: no cover - debugging aid
            return f"_StrictArray({self.np!r})"

    return _StrictArray


class StrictBackend(ArrayBackend):
    name = "strict"
    is_host = False  # wrappers are not plain ndarrays: keep them distinct

    def __init__(self) -> None:
        super().__init__()
        try:
            import array_api_strict as xps
        except ImportError as exc:  # pragma: no cover - env dependent
            raise BackendUnavailable(
                "array backend 'strict' requires array-api-strict "
                "(CI-only: pip install array-api-strict)"
            ) from exc
        self.xps = xps
        self.Array = _make_array_class(xps)

    # -- conversion ----------------------------------------------------
    def from_host(self, a):
        return self.Array(np.array(a, dtype=np.float64))

    def to_host(self, a, copy: bool = False):
        arr = a.np if isinstance(a, self.Array) else np.asarray(a)
        return arr.copy() if copy else arr

    def copy_values(self, a):
        return self.from_host(a.np if isinstance(a, self.Array) else a)

    def _index_convert(self, a):
        return a  # indexing bridges through numpy (see module docstring)

    def zeros(self, shape):
        return self.Array(np.zeros(shape, dtype=np.float64))

    def empty(self, shape):
        return self.Array(np.empty(shape, dtype=np.float64))

    # -- executor ops (numpy-bridged; see module docstring) ------------
    def bincount(self, seg, weights, minlength: int):
        w = weights.np if isinstance(weights, self.Array) else weights
        return self.Array(np.bincount(seg, weights=w, minlength=minlength))

    def prepare_add_at_index(self, sids):
        return self._plan_memo.get(sids, compile_reduce_plan)

    def _plan_of(self, idx) -> ReducePlan:
        if isinstance(idx, ReducePlan):
            return idx
        return self._plan_memo.get(idx, compile_reduce_plan)

    def add_at(self, target, idx, vals) -> None:
        # Plan rounds scatter through the wrapper, so the per-round
        # addition itself still runs in the strict namespace.
        self._plan_of(idx).apply(target, vals, self)

    def minimum(self, a, b):
        return self._min_max(a, b, "minimum", np.minimum)

    def maximum(self, a, b):
        return self._min_max(a, b, "maximum", np.maximum)

    def _min_max(self, a, b, name: str, np_fn):
        fn = getattr(self.xps, name, None)
        an = a.np if isinstance(a, self.Array) else a
        bn = b.np if isinstance(b, self.Array) else b
        if fn is None:  # pre-2023.12 strict namespace
            return self.Array(np_fn(an, bn))
        out = fn(self.xps.asarray(an), self.xps.asarray(bn))
        return self.from_host(self.to_host_strict(out))

    def to_host_strict(self, x):
        try:
            return np.asarray(x)
        except Exception:
            pass
        try:
            return np.from_dlpack(x)
        except Exception:
            return np.asarray(x._array)
