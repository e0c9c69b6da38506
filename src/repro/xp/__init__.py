"""repro.xp — pluggable array backends for the replay executor.

The replay stack executes compiled phase programs against an injected
:class:`~repro.xp.base.ArrayBackend` instead of module-level numpy:

* :data:`NUMPY` — the reference backend, bit-identical to the
  historical numpy execution (the default everywhere);
* ``mock`` — a numpy-backed simulated device used by the test suite
  to exercise the device code path (prepared phases, reduce-plan
  commits, transfer-crossing accounting) on CPU-only boxes;
* ``strict`` — an array-api-strict wrapper used by CI to catch
  numpy-isms in the phase arithmetic.

See DESIGN.md §5.7 for the backend matrix and the determinism
contract.
"""

from .base import ArrayBackend, BackendUnavailable
from .numpy_backend import NumpyBackend
from .plans import ReducePlan, compile_reduce_plan
from .policy import get_backend

__all__ = [
    "ArrayBackend",
    "BackendUnavailable",
    "NumpyBackend",
    "NUMPY",
    "ReducePlan",
    "compile_reduce_plan",
    "get_backend",
]

#: Process-wide numpy reference backend (the default executor).
NUMPY = get_backend("numpy")
