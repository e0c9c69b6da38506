"""In-memory span recorder for the traced layer walk.

Spans are recorded only from ``benchmarks/e2e``: around direct calls
(:meth:`Tracer.span`) or through instance-level wrappers placed on
public methods of objects the benchmark itself constructed
(:meth:`Tracer.wrap`).  No module global and no private name of the
product is patched.  Everything stays in memory until the walk is over.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        tracer.spans[self.index][3] = time.perf_counter()
        tracer._stack.pop()

    def set(self, **attrs) -> None:
        """Attach attributes (iteration counts, bind kind, ...)."""
        self.tracer.spans[self.index][5].update(attrs)


class Tracer:
    """Records ``[name, request, start, end, parent, attrs]`` rows.

    ``request`` is whatever the caller last set: every span recorded
    until it changes belongs to that request.  Single-threaded by
    design (the walk is).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: str | None = None

    def span(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self._stack.append(index)
        self.spans.append(
            [name, self.request, time.perf_counter(), None, parent, {}]
        )
        return _Span(self, index)

    def wrap(self, obj, method: str, name: str, attrs=None) -> None:
        """Span every call of the public ``obj.method`` from now on.

        ``attrs``, when given, maps the call's return value to a dict
        of span attributes.
        """
        if method.startswith("_"):
            raise ValueError("only public methods may be wrapped")
        inner = getattr(obj, method)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = inner(*args, **kwargs)
                if attrs is not None:
                    span.set(**attrs(out))
                return out

        setattr(obj, method, traced)

    # ------------------------------------------------------------------
    def rows(self) -> list[dict]:
        """The finished spans with self time: a span's duration minus
        the part of it its direct children cover.  A span whose callee
        could not be wrapped carries the child time the callee itself
        reported as ``reported_child_ms``; that is subtracted too."""
        child_ms: dict[int, float] = defaultdict(float)
        for index, (name, request, start, end, parent, attrs) in enumerate(
            self.spans
        ):
            child_ms[index] += attrs.get("reported_child_ms", 0.0)
            if parent is not None:
                child_ms[parent] += (end - start) * 1e3
        t0 = self.spans[0][2] if self.spans else 0.0
        return [
            {
                "id": index,
                "name": name,
                "request": request,
                "start_ms": (start - t0) * 1e3,
                "end_ms": (end - t0) * 1e3,
                "self_ms": (end - start) * 1e3 - child_ms[index],
                "parent": parent,
                **({"attrs": attrs} if attrs else {}),
            }
            for index, (name, request, start, end, parent, attrs) in enumerate(
                self.spans
            )
        ]


def summarize(rows: list[dict]) -> dict[str, dict]:
    """Per span name: call count, p50 duration, p50 self time, total."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    for row in rows:
        by_name[row["name"]].append(row)
    out = {}
    for name, group in sorted(by_name.items()):
        durations = [r["end_ms"] - r["start_ms"] for r in group]
        out[name] = {
            "n": len(group),
            "p50_ms": float(np.percentile(durations, 50)),
            "self_p50_ms": float(np.percentile([r["self_ms"] for r in group], 50)),
            "total_ms": float(np.sum(durations)),
        }
    return out
