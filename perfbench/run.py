"""End-to-end benchmark of the orderzeta command line, with a traced per-layer run.

    python3 perfbench/run.py --workload expand-large|census-deep|session-mix|all
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``.  One client sends the seeded request list of a workload through
``orderzeta.cli.main`` in a closed loop, in a fresh interpreter
(`worker.py`), and repeats it while time remains.  Every output is checked
against ``reference.json``.  With ``--trace 0`` the end-to-end metrics are
reported, with ``--trace 1`` the per-layer metrics of a traced run.  Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record of a run, machine notes included, is written to
``.perfbench/results/``.  Exit code 0 when every output is correct, 1 when
one is not, 2 when the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 21
WORKER_TIMEOUT_S = 160
READY = "import orderzeta.cli, sys; sys.stdout.write('r'); sys.stdout.flush()"

END_TO_END = (  # name, unit
    ("job_s", "s"),
    ("req_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# per-layer metric -> (unit, better)
_CALLS = ("count", "lower")
_SELF = ("s", "lower")
PER_LAYER = {
    "arith.is_prime.calls": _CALLS,
    "arith.is_prime.self_s": _SELF,
    "arith.multiplicative_order.calls": _CALLS,
    "arith.sieve.self_s": _SELF,
    "series.poly_gcd.calls": _CALLS,
    "series.poly_gcd.self_s": _SELF,
    "series.localfactor.calls": _CALLS,
    "series.localfactor.self_s": _SELF,
    "series.localfactor_expand.self_s": _SELF,
    "series.euler_expand.self_s": _SELF,
    "numfields.splitting.calls": _CALLS,
    "numfields.dedekind_local_factor.calls": _CALLS,
    "numfields.dedekind_local_factor.self_s": _SELF,
    "localfactors.closed_form.calls": _CALLS,
    "localfactors.closed_form.self_s": _SELF,
    "catalog.local_factor.calls": _CALLS,
    "catalog.local_factor.self_s": _SELF,
    "catalog.build.self_s": _SELF,
    "catalog.expand_global.total_s": _SELF,
    "schemes.validate.calls": _CALLS,
    "schemes.validate.self_s": _SELF,
    "schemes.direct_product.self_s": _SELF,
    "orders.order_init.self_s": _SELF,
    "orders.bad_primes.self_s": _SELF,
    "census.count_left_ideals.calls": _CALLS,
    "census.count_left_ideals.self_s": _SELF,
    "census.cache_hits": ("count", "higher"),
    "census.cache_hit_ratio": ("ratio", "higher"),
    "census.sublattices_visited": _CALLS,
    "census.ideals_found": ("count", "higher"),
    "census.ideal_yield": ("ratio", "higher"),
    "census.sublattices_per_s": ("1/s", "higher"),
    "census.ideal_series.total_s": _SELF,
    "cli.main.self_s": _SELF,
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead": ("ratio", "lower"),
}
# counts that must repeat exactly between traced passes and traced runs
EXACT = tuple(n for n in PER_LAYER if n.endswith(".calls")) + (
    "census.sublattices_visited", "census.ideals_found", "census.cache_hits",
    "cli.output_bytes")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_notes() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
    }


def loadavg() -> list[float]:
    try:
        with open("/proc/loadavg", "r", encoding="utf-8") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return []


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until orderzeta.cli is
    imported, once untimed (it may compile bytecode) and SETUP_SAMPLES times,
    with a speed probe before each start."""
    samples, probes = [], []
    for i in range(SETUP_SAMPLES + 1):
        probes.append(calibrate.probe())
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", READY], stdout=subprocess.PIPE,
                                env=env, cwd=ROOT)
        try:
            ready = proc.stdout.read(1)
            t1 = time.perf_counter()
        finally:
            proc.stdout.close()
            proc.wait()
        if ready != b"r" or proc.returncode != 0:
            raise RuntimeError("a fresh interpreter could not import orderzeta.cli")
        if i:
            samples.append(t1 - t0)
    return samples, probes


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def layer_metrics(rec: dict) -> dict:
    layers, census = rec["layers"], rec["census"]
    out = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if base in layers:
            out[name] = layers[base][field]
    census_calls = layers["census.count_left_ideals"]["calls"]
    census_self = layers["census.count_left_ideals"]["self_s"]
    out.update({
        "census.cache_hits": census["hits"],
        "census.cache_hit_ratio": census["hits"] / census_calls if census_calls else 0.0,
        "census.sublattices_visited": census["visited"],
        "census.ideals_found": census["found"],
        "census.ideal_yield": census["found"] / census["visited"] if census["visited"] else 0.0,
        "census.sublattices_per_s": census["visited"] / census_self if census["visited"] else 0.0,
        "cli.output_bytes": rec["output_bytes"],
    })
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, ref: dict,
                 keep_outputs: bool = False) -> dict:
    """Run one workload and return its full record (see `report`)."""
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    workdir = os.path.join(STATE, f"run-{os.getpid()}-{name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = child_env()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "why": workloads.WHY[name], "machine": machine_notes(),
              "loadavg_start": loadavg(), "client": "1 client, closed loop"}
    try:
        requests = workloads.build(name, seed, workdir)
        record["requests_per_pass"] = len(requests)
        if not trace:
            record["setup_samples_s"], record["setup_probe_s"] = measure_setup(env)
        spec_path = os.path.join(workdir, "spec.json")
        span_file = os.path.join(STATE, f"spans-{name}.bin") if trace else None
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"requests": requests, "outdir": workdir, "seconds": seconds,
                       "trace": trace, "span_file": span_file}, fh)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                       env=env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
        with open(os.path.join(workdir, "result.json"), "r", encoding="utf-8") as fh:
            result = json.load(fh)
        failures = []
        for p, rec in enumerate(result["passes"]):
            for i, req in enumerate(requests):
                out_path = os.path.join(workdir, f"p{p}-r{i}.out")
                why = verify.check_request(req, rec["codes"][i], rec["stdout"][i],
                                           out_path, ref)
                if why:
                    failures.append({"pass": p, "request": i, "argv": req["argv"],
                                     "reason": why})
        record["passes"] = [{k: v for k, v in rec.items() if k != "stdout"}
                            for rec in result["passes"]]
        record["peak_rss_kb"] = result["peak_rss_kb"]
        record["probe_s"] = result["probe_s"]
        record["failures"] = failures
        record["outputs"] = workdir if keep_outputs else None
    finally:
        if not keep_outputs:
            shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_end"] = loadavg()
    summarize(record)
    path = os.path.join(STATE, "results", f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def summarize(record: dict) -> None:
    """Fill in `metrics` (what the JSON line reports) and `notes`."""
    passes = record["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = len(passes) * record["requests_per_pass"]
    failed = len(record["failures"])
    walls = [p["wall_s"] for p in plain]
    lat = [x for p in plain for x in p["latency_s"]]
    notes = {
        "passes": f"{len(plain)} untraced, {len(traced)} traced, "
                  f"{record['requests_per_pass']} requests each",
        "job_wall_s": f"median of {len(walls)} passes, quartiles "
                      + " / ".join(f"{q:.4g}" for q in quartiles(walls)),
        "req_p50_wall_s": f"median of {len(lat)} request latencies",
        "error_rate": f"{failed} of {attempted} requests failed",
    }
    summary = {
        "job_wall_s": statistics.median(walls),
        "req_p50_wall_s": statistics.median(lat),
        "error_rate": failed / attempted,
    }
    if len(lat) >= 100:
        summary["req_p90_wall_s"] = percentile(lat, 0.9)
        notes["req_p90_wall_s"] = f"90th percentile of {len(lat)} request latencies"
    if not record["trace"]:
        setup = record["setup_samples_s"]
        summary["setup_wall_s"] = statistics.median(setup)
        notes["setup_wall_s"] = f"median of {len(setup)} fresh interpreters"
        probes = record["probe_s"]
        run_f = calibrate.factor(probes)
        setup_f = calibrate.factor(record["setup_probe_s"])
        cal_walls = [p["wall_s"] * calibrate.local_factor(probes, p["pass_probes"], run_f)
                     for p in plain]
        cal_lat = [x * calibrate.local_factor(probes, span, run_f)
                   for p in plain for x, span in zip(p["latency_s"], p["probe_spans"])]
        notes["job_s"] = (f"reference seconds, each pass scaled by the speed probes taken "
                          f"during it ({len(probes)} probes, run factor {run_f:.4f})")
        notes["req_p50_s"] = ("reference seconds, each request scaled by the probes taken "
                              f"during it, or by the run factor when fewer than "
                              f"{calibrate.MIN_PROBES}")
        notes["setup_s"] = f"reference seconds: wall x {setup_f:.4f}"
        notes["peak_rss_mb"] = "peak resident set (VmHWM) of the run's interpreter"
        metrics = {
            "job_s": statistics.median(cal_walls),
            "req_p50_s": statistics.median(cal_lat),
            "peak_rss_mb": record["peak_rss_kb"] / 1024,
            "setup_s": summary["setup_wall_s"] * setup_f,
        }
        if len(cal_lat) >= 100:
            summary["req_p90_s"] = percentile(cal_lat, 0.9)
            notes["req_p90_s"] = f"90th percentile of {len(cal_lat)} calibrated latencies"
    else:
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {
            n: (per_pass[0][n] if n in EXACT else statistics.median(m[n] for m in per_pass))
            for n in PER_LAYER if n != "trace.overhead"
        }
        metrics["trace.overhead"] = (statistics.median(p["wall_s"] for p in traced)
                                     / summary["job_wall_s"] - 1)
        record["exact_counts_repeat"] = all(
            m[n] == per_pass[0][n] for m in per_pass for n in EXACT)
        # the self times of all spans add up to the time spent inside cli.main
        record["self_time_share"] = [
            sum(v["self_s"] for v in p["layers"].values()) / p["wall_s"] for p in traced]
        record["cache_hits_agree"] = all(p["census"]["hits"] == p["cache_hits"] for p in traced)
        notes["layers"] = (f"times are medians of {len(traced)} traced passes; "
                           "census.sublattices_visited is computed in closed form, "
                           "not counted")
    loads = record["loadavg_start"][:1] + record["loadavg_end"][:1]
    record["load_exceeded_nproc"] = any(x > record["machine"]["nproc"] for x in loads)
    record["summary"] = summary
    record["metrics"] = metrics
    record["notes"] = notes
    record["correct"] = (failed == 0 and record.get("exact_counts_repeat", True)
                         and record.get("cache_hits_agree", True))
    record["attempted"] = attempted
    record["failed"] = failed


def units() -> dict:
    out = dict(END_TO_END)
    out.update({n: u for n, (u, _b) in PER_LAYER.items()})
    out.update({"req_p90_s": "s", "error_rate": "ratio", "job_wall_s": "s",
                "req_p50_wall_s": "s", "req_p90_wall_s": "s", "setup_wall_s": "s"})
    return out


def report(record: dict) -> None:
    unit = units()
    m = record["machine"]
    print(f"== {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
          f"{record['why']}")
    print(f"   {record['client']}; {record['notes']['passes']}")
    shown = dict(record["summary"])
    shown.update(record["metrics"])
    for name, value in shown.items():
        note = record["notes"].get(name, "")
        print(f"   {name:<40} {value:>16.6g} {unit[name]:<6} {note}")
    if record["trace"]:
        print(f"   {'(note)':<40} {record['notes']['layers']}")
    print(f"   machine: python {m['python']}, nproc {m['nproc']}, cpu {m['cpu']}; "
          f"loadavg {record['loadavg_start']} -> {record['loadavg_end']}"
          + ("  LOAD EXCEEDED NPROC" if record["load_exceeded_nproc"] else ""))
    for f in record["failures"][:10]:
        print(f"   FAILED pass {f['pass']} request {f['request']} {' '.join(f['argv'])}: "
              f"{f['reason']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orderzeta", "cli.py")):
        print(f"no orderzeta source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        ref = verify.load_reference()
    except (OSError, ValueError) as exc:
        print(f"cannot read the reference outputs: {exc}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace), ref)
        except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
            print(f"{name}: run failed: {exc}", file=sys.stderr)
            return 1
        report(rec)
        records.append(rec)
    unit = units()
    if len(records) == 1:
        metrics = {n: {"value": v, "unit": unit[n]} for n, v in records[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{n}": {"value": v, "unit": unit[n]}
                   for r in records for n, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
