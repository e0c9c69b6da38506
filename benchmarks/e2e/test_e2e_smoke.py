"""Smoke test of the whole-request benchmark (run explicitly; tier-1
``testpaths`` stays ``tests``):

    PYTHONPATH=src:. python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from repro.serve import ServeClient
from repro.solver import Settings, solve

from benchmarks.e2e import checks, run, wire
from benchmarks.e2e.loadgen import Sample
from benchmarks.e2e.serve_child import SETTINGS
from benchmarks.e2e.workloads import (
    DESIGN_SECONDS,
    RESIDENT_PATTERNS,
    WORKLOADS,
    Request,
    build_plan,
)

SMOKE_SECONDS = DESIGN_SECONDS / 10  # one tenth of the design counts


def _child_pids() -> set[int]:
    me = str(os.getpid())
    pids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            pids.add(int(stat.parent.name))
    return pids


def _shm() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_and_leaves_nothing_behind(workload):
    spec = run.contract()
    shm_before = _shm()
    doc = run.run_workload(workload, seed=0, seconds=SMOKE_SECONDS, traced=True)
    assert doc["verdict"]["failed"] == 0, doc["verdict"]["reasons"]
    assert doc["per_layer"]["failed_share"]["value"] == 0
    for group in ("end_to_end", "per_layer"):
        assert list(doc[group]) == [m["name"] for m in spec[group]]
        for name, entry in doc[group].items():
            assert isinstance(entry["value"], float), name
            assert entry["n"] >= 0, name
    for name, entry in doc["end_to_end"].items():
        assert entry["value"] > 0 and entry["n"] > 0, name
    assert _child_pids() == set()
    assert threading.enumerate() == [threading.main_thread()]
    assert _shm() == shm_before


def test_last_line_is_the_driver_contract(capsys):
    spec = run.contract()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    code = run.main(
        ["--workload", "pair_coalesce", "--seconds", str(SMOKE_SECONDS),
         "--label", "smoke"]
    )
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert _child_pids() == set()


def _served_sample() -> Sample:
    problem = RESIDENT_PATTERNS["portfolio"]()
    result = solve(problem, settings=Settings(**SETTINGS))
    raw = {"status": "ok", "solved": True, "result": result.to_dict()}
    return Sample(
        Request("solve", "portfolio", problem), 0.0, 0.01,
        http_status=200, raw=raw, results=[result],
    )


def test_a_wrong_oracle_answer_is_counted_as_failed():
    sample = _served_sample()
    assert checks.check_samples([sample])["failed"] == 0
    truth = checks.ColdOracle()
    wrong = checks.check_samples(
        [sample], oracle=lambda pattern, problem: 2 * truth(pattern, problem) + 10
    )
    assert wrong["failed"] == 1 and wrong["oracle_checked"] == 1
    assert "oracle" in wrong["reasons"][0]


def test_an_answer_off_the_termination_test_is_counted_as_failed():
    sample = _served_sample()
    sample.results[0].x = sample.results[0].x + 0.1
    verdict = checks.check_samples([sample])
    assert verdict["failed"] == 1 and "residual" in verdict["reasons"][0]


def test_wire_mirror_matches_what_the_client_sends():
    """``wire.request_body`` must equal ``ServeClient``'s real bodies,
    byte for byte, or the walk and the byte counts measure a fiction."""
    received = []

    class Recorder(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_POST(self):
            received.append(
                self.rfile.read(int(self.headers["Content-Length"]))
            )
            body = json.dumps({"status": "error", "detail": "recorder"}).encode()
            self.send_response(400)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    plans = [build_plan(name, 0, SMOKE_SECONDS) for name in
             ("solo_mixed", "stream_session", "scenario_fanout")]
    requests = [plan.phases["main"][0][0] for plan in plans]
    server = HTTPServer(("127.0.0.1", 0), Recorder)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        client = ServeClient(port=server.server_address[1])
        for request in requests:
            if request.kind == "scenarios":
                client.scenarios(request.problem, list(request.variants))
            else:
                client.solve(request.problem, session=request.session)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert received == [wire.encode(wire.request_body(r)) for r in requests]
