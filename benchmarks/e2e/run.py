"""The whole-request benchmark's one command.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace 0|1] [--label TAG]

(equivalently ``PYTHONPATH=src:. python -m benchmarks.e2e.run``; the
script form finds ``src/`` and the repository root by itself.)

For each selected workload it spawns a fresh server child, drives it
over real HTTP, checks every answer, prints every metric by name with
its unit, writes a stamped result document under
``benchmarks/e2e/results/`` and ends with one JSON line on stdout:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
(or ``--traced``) adds the in-process layer walk after the untraced
measurement and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
RESULTS = HERE / "results"

if __package__ in (None, ""):
    # Script form: make ``repro`` and ``benchmarks.e2e`` importable.
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

SETUP_REPEATS = 3


def contract() -> dict:
    """The root ``BENCHMARK.json``: metric names, units and bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), *args],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_stamp(seed: int, seconds: float) -> dict:
    import numpy

    from benchmarks.e2e.serve_child import SERVE_CONFIG

    model = None
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    dirty = _git("status", "--porcelain", "--", "src")
    labels = []
    if dirty:
        labels.append("dirty_src")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git("rev-parse", "HEAD"),
        "seed": seed,
        "seconds": seconds,
        "serve_child": SERVE_CONFIG,
        "labels": labels,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One workload, measured: live run, checks and (traced) the walk."""
    from benchmarks.e2e import checks, loadgen, metrics
    from benchmarks.e2e.workloads import build_plan

    plan = build_plan(name, seed, seconds)
    # Set-up is timed several times and the median reported; the last
    # child spawned is the one measured.  A traced run reports no
    # set-up time, so it sets up once.
    repeats = 1 if traced else SETUP_REPEATS
    setup_seconds = []
    retired = []
    try:
        for i in range(repeats):
            child, elapsed = loadgen.setup(plan)
            setup_seconds.append(elapsed)
            if i < repeats - 1:
                # Its clean shutdown idles in a poll for half a second;
                # it is waited for at the end, not here.
                child.terminate()
                retired.append(child)
        with child:
            before = child.client.metrics()
            phases = {
                phase: loadgen.run_phase(child.port, lists)
                for phase, lists in plan.phases.items()
            }
            after = child.client.metrics()
            rss_mb = child.rss_hwm_mb()
            null_rtt = loadgen.null_rtt_ms(child.client)
    finally:
        for spare in retired:
            spare.stop()
    samples = [s for group, _ in phases.values() for s in group]
    verdict = checks.check_samples(samples)
    per_block = metrics.block_values(phases, plan.block_rounds * plan.clients)
    doc = {
        "scale": plan.scale,
        "clients": plan.clients,
        "counts": plan.counts(),
        "patterns": {
            pattern: {"n": problem.n, "m": problem.m, "nnz": problem.nnz}
            for pattern, problem in plan.patterns.items()
        },
        "measured_wall_s": {phase: wall for phase, (_, wall) in phases.items()},
        "verdict": verdict,
        "blocks": {"rounds_per_block": plan.block_rounds, **per_block},
        "end_to_end": metrics.end_to_end(phases, per_block, setup_seconds, rss_mb),
        "per_layer": metrics.live_layers(phases, before, after, null_rtt, verdict),
        "labels": (
            ["clients_over_nproc"]
            if plan.clients > (os.cpu_count() or 1)
            else []
        ),
    }
    if traced:
        doc["per_layer"].update(_traced(plan, seed, phases, null_rtt))
    # BENCHMARK.json order; a metric it names and nobody computed is an
    # error here, not a hole in the output.
    spec = contract()
    doc["end_to_end"] = {
        m["name"]: doc["end_to_end"][m["name"]] for m in spec["end_to_end"]
    }
    doc["per_layer"] = {
        m["name"]: doc["per_layer"][m["name"]]
        for m in spec["per_layer"]
        if traced or m["name"] in doc["per_layer"]
    }
    return doc


def _traced(plan, seed: int, phases, null_rtt) -> dict:
    """Run the layer walk, write its spans, return its layer metrics."""
    import numpy as np

    from benchmarks.e2e import metrics, spans, walk

    walked = walk.run_walk(plan, seed)
    # How much of each walked request's live latency the walk explains:
    # its request spans, plus the queue wait the server reported for it
    # and a null round trip, over the client-side wall of the same
    # request in the live run.
    rtt = float(np.percentile(null_rtt, 50))
    explained = []
    for request_id, walk_ms in walked.request_ms.items():
        phase, index = request_id.split(":")
        round_ = phases[phase][0][
            int(index) * plan.clients : (int(index) + 1) * plan.clients
        ]
        if not all(s.blocks for s in round_):
            continue
        queue_ms = max(s.raw["queue_seconds"] for s in round_) * 1e3
        latency_ms = max(s.latency_s for s in round_) * 1e3
        explained.append((walk_ms + queue_ms + rtt) / latency_ms)
    layers = dict(walked.layers)
    layers["trace.explained_share"] = metrics.p(explained, 50)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{plan.name}-seed{seed}.spans.json").write_text(
        json.dumps(
            {
                "workload": plan.name,
                "seed": seed,
                "summary": spans.summarize(walked.rows),
                "spans": walked.rows,
            }
        )
    )
    return layers


def print_table(name: str, doc: dict, spec: dict) -> None:
    units = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    verdict = doc["verdict"]
    print(
        f"\n== {name}: {verdict['attempted']} requests "
        f"({verdict['instances']} instances, {verdict['oracle_checked']} "
        f"against the cold oracle), {verdict['failed']} failed, "
        f"clients={doc['clients']}, scale={doc['scale']:.3f}"
    )
    for reason in verdict["reasons"]:
        print(f"   FAILED {reason}")
    for group in ("end_to_end", "per_layer"):
        print(f"-- {group}")
        for metric, entry in doc[group].items():
            print(
                f"{metric:<44} {entry['value']:>14.4f} {units[metric]:<8}"
                f" n={entry['n']}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--label", default=None, help="result file suffix")
    args = parser.parse_args(argv)
    traced = bool(args.trace or args.traced)

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(
            f"error: {REPO_ROOT / 'src' / 'repro'} not found — the benchmark "
            "measures the repository it sits in and cannot run without it",
            file=sys.stderr,
        )
        return 2
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from benchmarks.e2e.workloads import WORKLOADS

    spec = contract()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.workload and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {WORKLOADS}")

    stamp = machine_stamp(args.seed, seconds)
    stamp["traced"] = traced
    document = {"stamp": stamp, "workloads": {}}
    for name in names:
        document["workloads"][name] = doc = run_workload(
            name, args.seed, seconds, traced
        )
        print_table(name, doc, spec)

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload or 'all'}-seed{args.seed}-trace{int(traced)}"
    if args.label:
        tag += f"-{args.label}"
    out = RESULTS / f"{tag}.json"
    out.write_text(json.dumps(document, indent=1))
    print(f"\n[result document: {out.relative_to(REPO_ROOT)}]")

    # The last line: the driver's contract.  One workload reports its
    # metrics under their own names; several are prefixed by workload.
    group = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    docs = document["workloads"]
    print(
        json.dumps(
            {
                "correct": all(d["verdict"]["failed"] == 0 for d in docs.values()),
                "attempted": sum(d["verdict"]["attempted"] for d in docs.values()),
                "failed": sum(d["verdict"]["failed"] for d in docs.values()),
                "metrics": {
                    (metric if len(docs) == 1 else f"{name}.{metric}"): {
                        "value": d[group][metric]["value"],
                        "unit": unit,
                    }
                    for name, d in docs.items()
                    for metric, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
