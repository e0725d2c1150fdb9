"""Run every workload under several seeds and record the baseline.

    python3 perfbench/baseline.py [--runs 10]

Each run is a separate ``run.py`` process with the ``run_seconds`` of
BENCHMARK.json, one at a time, seeds 1..runs.  For every end-to-end
metric the medians and quartiles across runs are printed with the spread
(distance between the quartiles as a share of the median), and written to
``perfbench/baseline.json`` together with the workloads'
reasons for inclusion, the metric units and bounds, and which end-to-end
metric each layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# layer -> the end-to-end metrics its per-layer metrics should move
LAYER_MAP = {
    "arith": "job_s on expand-large",
    "series": "job_s and peak_rss_mb on expand-large; no change on census-deep",
    "numfields": "job_s on expand-large",
    "localfactors": "req_p50_s on session-mix",
    "catalog": "job_s on expand-large; req_p50_s on session-mix",
    "schemes": "req_p50_s on session-mix",
    "orders": "req_p50_s on session-mix",
    "census": "job_s on census-deep; req_p90_s and req_p50_s on session-mix; "
              "no change on expand-large",
    "cli": "job_s on expand-large; req_p50_s on session-mix",
    "trace": "none: traced job_s over untraced job_s, minus 1",
}


def spread(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    med = statistics.median(values)
    return {"median": med, "quartiles": [q[0], q[2]], "spread": (q[2] - q[0]) / med,
            "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not doc["correct"]:
                print(proc.stderr, file=sys.stderr)
                print(f"{name} seed {seed}: run failed", file=sys.stderr)
                return 1
            for metric, v in doc["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: "
                  + ", ".join(f"{m} {v['value']:.4g}" for m, v in doc["metrics"].items()),
                  flush=True)
        results[name] = {m: spread(v) for m, v in values.items()}
        for m, s in results[name].items():
            flag = "" if m == "setup_s" or s["spread"] <= bounds[m] / 3 else "  ABOVE bound/3"
            print(f"  {name:<13} {m:<12} median {s['median']:.5g}  quartiles "
                  f"{s['quartiles'][0]:.5g} / {s['quartiles'][1]:.5g}  spread "
                  f"{s['spread']:.3f} (bound {bounds[m]}){flag}", flush=True)
    doc = {
        "seconds": seconds,
        "workloads": {w["name"]: w["why"] for w in bench["workloads"]},
        "end_to_end": {m["name"]: {"unit": m["unit"], "bound": m["bound"]}
                       for m in bench["end_to_end"]},
        "per_layer_units": {m["name"]: m["unit"] for m in bench["per_layer"]},
        "layer_moves": LAYER_MAP,
        "results": results,
    }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
