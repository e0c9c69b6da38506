"""Compare two result documents of the whole-request benchmark.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py 'results/*-base.json' 'results/*-cand.json'

``A`` is the base, ``B`` the candidate; each is a result document, a
directory of them, or a quoted glob.  Several documents on a side are
reduced to the median of every metric — on a shared box one run can sit
entirely inside a slow minute, and a set of runs is what a bound is
about.  Prints one row per (workload, metric) present in both, with
both values and the ratio ``B/A`` (base ``A``), and exits non-zero when

* an end-to-end metric of ``B`` is worse than ``A``'s by more than its
  bound in ``BENCHMARK.json``,
* ``failed_share`` rose at all, or
* a count that must repeat exactly differs — checked on single-client
  workloads when both sides were run with the same seeds and size; with
  two clients the controller's batching depends on arrival timing.

Per-layer timings are printed for reading and never fail a comparison:
they have no bound.
"""

from __future__ import annotations

import glob
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

# Counts the program fixes, not the clock: equal inputs give equal values.
EXACT = (
    "sim_cycles_per_solve",
    "solver.admm.iters_per_solve",
    "arch.host_crossings_per_iter",
    "serve.client.request_bytes",
)
# Every reply carries three wall-clock floats whose printed length
# varies by a few characters, so reply sizes repeat only nearly.
NEAR_EXACT = {"serve.server.response_bytes": 0.01}


def load(arg: str) -> dict:
    """One side of the comparison: the document(s) ``arg`` names, with
    every metric reduced to its median across them."""
    path = Path(arg)
    if path.is_dir():
        paths = sorted(path.glob("*.json"))
    else:
        paths = [Path(p) for p in sorted(glob.glob(arg))] or [path]
    docs = [
        json.loads(p.read_text())
        for p in paths
        if not p.name.endswith(".spans.json")
    ]
    if not docs:
        raise SystemExit(f"no result documents at {arg!r}")
    merged = {
        "stamp": {
            **docs[0]["stamp"],
            "seed": sorted({d["stamp"]["seed"] for d in docs}),
            "runs": len(docs),
        },
        "workloads": {},
    }
    for doc in docs:
        for workload, w_doc in doc["workloads"].items():
            into = merged["workloads"].setdefault(
                workload,
                {"clients": w_doc["clients"], "end_to_end": {}, "per_layer": {}},
            )
            for group in ("end_to_end", "per_layer"):
                for name, entry in w_doc[group].items():
                    into[group].setdefault(name, []).append(entry["value"])
    for w_doc in merged["workloads"].values():
        for group in ("end_to_end", "per_layer"):
            w_doc[group] = {
                name: {"value": statistics.median(values), "n": len(values)}
                for name, values in w_doc[group].items()
            }
    return merged


def compare(base: dict, cand: dict, spec: dict) -> tuple[list[str], list[str]]:
    """Rows to print and the failures among them."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    same_inputs = all(
        base["stamp"][key] == cand["stamp"][key] for key in ("seed", "seconds")
    )
    rows, failures = [], []
    for workload, a_doc in base["workloads"].items():
        b_doc = cand["workloads"].get(workload)
        if b_doc is None:
            continue
        repeatable = same_inputs and a_doc["clients"] == 1
        for group in ("end_to_end", "per_layer"):
            for name, a in a_doc[group].items():
                if name not in b_doc[group]:
                    continue
                av, bv = a["value"], b_doc[group][name]["value"]
                ratio = f"{bv / av:8.4f}" if av else "     n/a"
                verdict = ""
                if name in EXACT and repeatable:
                    verdict = "exact" if av == bv else "FAIL (must be equal)"
                elif name in NEAR_EXACT and repeatable:
                    off = abs(bv - av) / av if av else abs(bv)
                    verdict = (
                        "near-exact"
                        if off <= NEAR_EXACT[name]
                        else f"FAIL (off by {off:.2%})"
                    )
                elif name == "failed_share":
                    verdict = "ok" if bv <= av else "FAIL (failures rose)"
                elif name in bounds:
                    m = bounds[name]
                    worse = (bv - av) / av if m["better"] == "lower" else (av - bv) / av
                    verdict = (
                        f"ok ({worse:+.1%} of {m['bound']:.0%})"
                        if worse <= m["bound"]
                        else f"FAIL (worse by {worse:.1%} > {m['bound']:.0%})"
                    )
                row = (
                    f"{workload:<16} {name:<44} {av:>14.4f} {bv:>14.4f} "
                    f"{ratio} {verdict}"
                )
                rows.append(row)
                if verdict.startswith("FAIL"):
                    failures.append(row)
    return rows, failures


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, cand = (load(arg) for arg in argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    for side, doc in (("A", base), ("B", cand)):
        stamp = doc["stamp"]
        print(
            f"{side}: {stamp['runs']} run(s), commit {stamp['git_commit']}, "
            f"seeds {stamp['seed']}, seconds {stamp['seconds']}, "
            f"labels {stamp['labels']}"
        )
    print(
        f"{'workload':<16} {'metric':<44} {'A':>14} {'B':>14} "
        f"{'B/A':>8} verdict (ratio base: A)"
    )
    rows, failures = compare(base, cand, spec)
    print("\n".join(rows))
    if failures:
        print(f"\n{len(failures)} metric(s) outside their bound:", file=sys.stderr)
        print("\n".join(failures), file=sys.stderr)
        return 1
    print("\nevery end-to-end metric within its bound; exact counts equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
