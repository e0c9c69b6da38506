"""The executor-op contract every array backend implements.

The replay stack (:mod:`repro.arch.trace`) is a pure dense-array
program: gathers, element-wise arithmetic, segmented left-fold sums
and ordered scatter-adds over flat ``float64`` buffers.
:class:`ArrayBackend` names exactly the operations that program needs
beyond standard array-API arithmetic/indexing, so the same phase
programs execute against numpy, a simulated device, or the
array-api-strict test namespace by injecting a different backend
object — never by editing the programs.

Two operations carry ordering semantics the array API does not
standardize, and are therefore explicit executor ops:

* :meth:`ArrayBackend.bincount` — the MAC segmented sum.  The numpy
  reference adds weights in input order (a left fold per segment),
  which is what makes replay bit-identical to the sequential
  interpreter.  Device backends map it to their native segment sum;
  on GPUs that is typically atomic-based and carries no ordering
  guarantee (see DESIGN.md §5.7 for the determinism contract).
* :meth:`ArrayBackend.add_at` — the ordered duplicate-index commit
  accumulation.  The numpy reference is ``np.add.at`` (unbuffered,
  stream order).  Backends
  without an unbuffered scatter execute a precompiled
  :class:`~repro.xp.plans.ReducePlan` instead, which reproduces the
  sequential left fold exactly — round by round — on any backend
  whose unique-index scatter is deterministic.

Index arrays and float constants produced at trace-compile time live
on the host; :meth:`index` and :meth:`constant` convert (and, on
device backends, memoize) them so steady-state replay never re-uploads
a plan.  ``is_host`` distinguishes the crossing-accounting model: a
host backend charges one host→backend crossing per call dispatch, a
device backend charges only genuine host→device transfers (stream
binds, gathers, scatters) because on-device kernel launches are
asynchronous.
"""

from __future__ import annotations

import weakref

__all__ = ["ArrayBackend", "BackendUnavailable"]


class BackendUnavailable(RuntimeError):
    """The requested backend's runtime is not importable."""


class _IdMemo:
    """Identity-keyed conversion cache with weakref lifetime.

    Compiled traces hold their index/constant arrays for their whole
    life; converting them per replay would dominate device dispatch.
    Keying by ``id`` with a weakref guard gives O(1) steady-state
    lookups without pinning evicted traces' arrays in device memory.
    """

    __slots__ = ("_map",)

    def __init__(self) -> None:
        self._map: dict[int, tuple] = {}

    def get(self, host_arr, convert):
        key = id(host_arr)
        hit = self._map.get(key)
        if hit is not None:
            ref, converted = hit
            if ref() is host_arr:
                return converted
        converted = convert(host_arr)
        try:
            ref = weakref.ref(host_arr)
        except TypeError:  # non-weakrefable constants (plan objects)
            ref = lambda _obj=host_arr: _obj  # noqa: E731
        self._map[key] = (ref, converted)
        if len(self._map) > 4096:
            self._map = {
                k: v for k, v in self._map.items() if v[0]() is not None
            }
        return converted


class ArrayBackend:
    """Abstract executor backend (see module docstring).

    Subclasses set ``name`` (the :func:`~repro.xp.get_backend` key) and
    ``is_host`` and implement the conversion + executor ops.  All
    float buffers are float64; all index buffers are int64.
    """

    name = "abstract"
    is_host = False

    def __init__(self) -> None:
        self._index_memo = _IdMemo()
        self._const_memo = _IdMemo()
        self._plan_memo = _IdMemo()

    # -- conversion / movement -----------------------------------------
    def from_host(self, a):
        """Host float64 array -> backend array (no copy when host)."""
        raise NotImplementedError

    def to_host(self, a, copy: bool = False):
        """Backend array -> host numpy array (``copy`` forces one)."""
        raise NotImplementedError

    def copy_values(self, a):
        """A backend-resident copy of ``a`` (host or backend input)."""
        raise NotImplementedError

    def index(self, a):
        """Host int64 index array -> backend index array (memoized)."""
        return self._index_memo.get(a, self._index_convert)

    def constant(self, a):
        """Host float64 constant array -> backend array (memoized)."""
        return self._const_memo.get(a, self.from_host)

    def _index_convert(self, a):
        raise NotImplementedError

    # -- buffer constructors -------------------------------------------
    def zeros(self, shape):
        raise NotImplementedError

    def empty(self, shape):
        raise NotImplementedError

    # -- executor ops ---------------------------------------------------
    def bincount(self, seg, weights, minlength: int):
        """Segmented sum ``out[j] = Σ weights[seg == j]``.

        The numpy reference folds left in input order; device backends
        use their native (possibly unordered) segment sum.
        """
        raise NotImplementedError

    def prepare_add_at_index(self, sids):
        """The object :meth:`add_at` scatters through for a
        duplicate-target commit run: the host index array itself on a
        host backend, a precompiled :class:`~repro.xp.plans.ReducePlan`
        elsewhere."""
        return sids

    def add_at(self, target, idx, vals) -> None:
        """Ordered duplicate-index accumulate: ``np.add.at`` left-fold
        semantics.  ``idx`` is what :meth:`prepare_add_at_index`
        returned (index array or plan)."""
        raise NotImplementedError

    def minimum(self, a, b):
        raise NotImplementedError

    def maximum(self, a, b):
        raise NotImplementedError

    # -- crossing accounting -------------------------------------------
    def phase_crossings(self, phases) -> int:
        """Host→backend crossings of one pass over a phase list.

        Host backends charge one crossing per call dispatch (the
        historical numpy accounting); device backends charge zero —
        phase execution is resident, only binds/gathers/scatters move
        data across the PCIe boundary (counted by the replay entry
        points, not here).
        """
        if self.is_host:
            from ..arch.trace import phase_crossings

            return phase_crossings(phases)
        return 0

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArrayBackend {self.name}>"
