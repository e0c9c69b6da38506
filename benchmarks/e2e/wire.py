"""The JSON documents a request and its reply travel as.

``ServeClient`` and the HTTP handler build these inside private
methods, out of reach of a span, so the layer walk and the byte counts
rebuild them here from the same public pieces (``problem_to_dict``,
``encode_bounds``, ``SolveResult.to_dict``).  ``test_e2e_smoke.py``
checks the request bodies byte for byte against what ``ServeClient``
really sends, so this mirror cannot drift unnoticed.
"""

from __future__ import annotations

import json

import numpy as np

from repro.io import encode_bounds, problem_to_dict
from repro.solver import QPProblem

from benchmarks.e2e.workloads import Request


def override(base: QPProblem, variant: QPProblem) -> dict:
    """The wire override turning ``base`` into ``variant``: vectors
    always, matrix values only when they differ."""
    doc: dict = {
        "q": variant.q.tolist(),
        "l": encode_bounds(variant.l),
        "u": encode_bounds(variant.u),
    }
    if not np.array_equal(variant.a.data, base.a.data):
        doc["a_data"] = variant.a.data.tolist()
    if not np.array_equal(variant.p_upper.data, base.p_upper.data):
        doc["p_data"] = variant.p_upper.data.tolist()
    return doc


def request_body(request: Request, problem_doc: dict | None = None) -> dict:
    """The body ``ServeClient`` posts for ``request``."""
    body: dict = {
        "problem": problem_doc
        if problem_doc is not None
        else problem_to_dict(request.problem)
    }
    if request.kind == "scenarios":
        body["scenarios"] = [
            override(request.problem, v) for v in request.variants
        ]
    elif request.session is not None:
        body["session"] = request.session
    return body


def encode(doc: dict) -> bytes:
    return json.dumps(doc).encode()
