"""Serialization of scheduled network programs.

The paper's system compiles a sparsity pattern into "executable files"
that are shipped to the prototype over PCIe and reused for every
numeric instance.  This module provides that artifact: a JSON-based
container for a :class:`~repro.compiler.scheduler.Schedule` that can be
written to disk, shipped, reloaded, and executed on the simulator —
without re-running the compiler.

The format stores, per issue slot, the full network-instruction
description (kind, locations, stream references by name/indices, lanes,
scalars).  Stream *values* are intentionally not stored: they bind at
run time, which is exactly what makes the artifact instance-agnostic.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..arch.isa import EwiseFn, Location, NetOp, OpKind, StreamRef
from ..arch.trace import check_schedule
from .scheduler import Schedule

__all__ = [
    "FORMAT_VERSION",
    "SerializationError",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
]

FORMAT_VERSION = 1


class SerializationError(ValueError):
    """A schedule container is malformed or from an unknown format
    version.  Subclasses :class:`ValueError` for compatibility; the
    compilation cache catches it to trigger load-or-recompile."""


def _loc_to_list(loc: Location) -> list:
    return [loc.space, int(loc.bank), int(loc.addr)]


def _loc_from_list(raw: list) -> Location:
    return Location(str(raw[0]), int(raw[1]), int(raw[2]))


def _op_to_dict(op: NetOp) -> dict:
    out: dict = {
        "kind": op.kind.value,
        "reads": [_loc_to_list(l) for l in op.reads],
        "writes": [[_loc_to_list(l), bool(acc)] for l, acc in op.writes],
        "src_lanes": list(op.src_lanes),
        "dst_lanes": list(op.dst_lanes),
        "tag": op.tag,
    }
    if op.coeffs is not None:
        if isinstance(op.coeffs, StreamRef):
            out["stream"] = [op.coeffs.name, op.coeffs.indices.tolist()]
        else:
            out["immediates"] = np.asarray(op.coeffs).tolist()
    if op.coeff_reads:
        out["coeff_reads"] = [_loc_to_list(l) for l in op.coeff_reads]
    if op.ewise_fn is not None:
        out["ewise_fn"] = op.ewise_fn.value
    if op.scalars:
        out["scalars"] = list(op.scalars)
    if op.coeff_scale != 1.0:
        out["coeff_scale"] = op.coeff_scale
    seq = getattr(op, "_seq", None)
    if seq is not None:
        out["seq"] = int(seq)
    return out


def _op_from_dict(raw: dict) -> NetOp:
    coeffs = None
    if "stream" in raw:
        name, indices = raw["stream"]
        coeffs = StreamRef(name, np.asarray(indices, dtype=np.int64))
    elif "immediates" in raw:
        coeffs = np.asarray(raw["immediates"], dtype=np.float64)
    op = NetOp(
        kind=OpKind(raw["kind"]),
        reads=[_loc_from_list(l) for l in raw["reads"]],
        writes=[(_loc_from_list(l), bool(acc)) for l, acc in raw["writes"]],
        coeffs=coeffs,
        coeff_reads=[_loc_from_list(l) for l in raw.get("coeff_reads", [])],
        src_lanes=[int(x) for x in raw["src_lanes"]],
        dst_lanes=[int(x) for x in raw["dst_lanes"]],
        ewise_fn=EwiseFn(raw["ewise_fn"]) if "ewise_fn" in raw else None,
        scalars=tuple(raw.get("scalars", ())),
        coeff_scale=float(raw.get("coeff_scale", 1.0)),
        tag=raw.get("tag", ""),
    )
    if "seq" in raw:
        op._seq = int(raw["seq"])
    return op


def schedule_to_dict(schedule: Schedule) -> dict:
    """Portable dictionary form of a schedule."""
    return {
        "format_version": FORMAT_VERSION,
        "name": schedule.name,
        "c": schedule.c,
        "n_ops": schedule.n_ops,
        "n_prefetch": schedule.n_prefetch,
        "extra_latency": schedule.extra_latency,
        "slots": [[_op_to_dict(op) for op in bundle] for bundle in schedule.slots],
    }


def schedule_from_dict(raw: dict) -> Schedule:
    """Reconstruct a schedule saved by :func:`schedule_to_dict`."""
    version = raw.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported schedule format version {version!r}"
        )
    return Schedule(
        name=raw["name"],
        c=int(raw["c"]),
        slots=[[_op_from_dict(op) for op in bundle] for bundle in raw["slots"]],
        n_ops=int(raw["n_ops"]),
        n_prefetch=int(raw.get("n_prefetch", 0)),
        extra_latency=int(raw.get("extra_latency", 0)),
    )


def save_schedule(schedule: Schedule, path: str | Path) -> Path:
    """Write a schedule to a JSON executable file."""
    path = Path(path)
    path.write_text(json.dumps(schedule_to_dict(schedule)))
    return path


def load_schedule(path: str | Path) -> Schedule:
    """Load a schedule from a JSON executable file.

    Every load passes :func:`~repro.arch.trace.check_schedule` (the
    interpreter's hazard walk: structural and data hazards), so a
    corrupted or tampered executable raises
    :class:`~repro.arch.simulator.HazardViolation` here rather than
    mid-solve.
    """
    schedule = schedule_from_dict(json.loads(Path(path).read_text()))
    check_schedule(
        schedule.slots, c=schedule.c, extra_latency=schedule.extra_latency
    )
    return schedule
