"""Backend registry.

``get_backend(name)`` returns the process-wide singleton for one of
the three array backends, constructing it lazily: ``numpy`` (the
reference), ``mock`` (device semantics on numpy storage) or
``strict`` (the array-api-strict shim, which raises
:class:`~repro.xp.base.BackendUnavailable` when that package is not
importable).  There is no automatic selection: an array backend is
named or is numpy.
"""

from __future__ import annotations

from .base import ArrayBackend
from .numpy_backend import NumpyBackend

__all__ = ["get_backend"]

_instances: dict[str, ArrayBackend] = {}


def _construct(name: str) -> ArrayBackend:
    if name == "numpy":
        return NumpyBackend()
    if name == "strict":
        from .strict_backend import StrictBackend

        return StrictBackend()
    if name == "mock":
        from .mock_backend import MockDeviceBackend

        return MockDeviceBackend()
    raise ValueError(
        f"unknown array backend {name!r} (expected one of numpy, mock, strict)"
    )


def get_backend(name: str) -> ArrayBackend:
    """The singleton backend instance for ``name`` (lazy, memoized).

    Raises :class:`ValueError` for a name that is not a backend and
    :class:`BackendUnavailable` when ``strict``'s runtime is missing.
    """
    backend = _instances.get(name)
    if backend is None:
        backend = _construct(name)
        _instances[name] = backend
    return backend
