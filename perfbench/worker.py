"""One benchmark run's client: a single closed loop in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC holds the request list, the seconds to measure, whether to trace,
and the directory for outputs.  The worker sends the whole request list
through ``orderzeta.cli.main`` (one pass), each request only after the
previous one returned, and repeats passes while the next one is expected
to finish within the seconds given.  Every pass starts with a cold census
cache.  Without tracing, a SpeedProbe samples the machine's speed all
along and the time its samples take is left out of every timing.  With
tracing, untraced and traced passes alternate so that the tracing
overhead is measured under the same conditions.  Results go to
``result.json`` in the output directory; outputs are judged by the
parent process, so checking adds nothing to this interpreter's memory.
"""

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

from calibrate import SpeedProbe
from orderzeta import census, cli
from tracer import Tracer

COUNT_LEFT_IDEALS = census.count_left_ideals  # the lru_cache object itself


def run_pass(requests, outdir: str, pass_no: int, tracer, speed: SpeedProbe):
    COUNT_LEFT_IDEALS.cache_clear()
    info = COUNT_LEFT_IDEALS.cache_info()
    if info.hits or info.currsize:
        raise RuntimeError(f"census cache not cold at the start of a pass: {info}")
    if tracer:
        tracer.reset_totals()
        tracer.install()
    latency, codes, stdouts = [], [], []
    output_bytes = 0
    probe_spans = []  # [first, end) indices of the speed probes taken during each request
    start, probed, first_probe = perf_counter(), speed.spent, len(speed.times)
    try:
        for i, req in enumerate(requests):
            out_path = os.path.join(outdir, f"p{pass_no}-r{i}.out")
            argv = [out_path if a == "{out}" else a for a in req["argv"]]
            if tracer:
                tracer.request_id = pass_no * 10_000 + i
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0, p0, n0 = perf_counter(), speed.spent, len(speed.times)
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a traceback is a failed request, not a dead run
                    code = f"uncaught {type(exc).__name__}: {exc}"
                t1, p1, n1 = perf_counter(), speed.spent, len(speed.times)
            latency.append(t1 - t0 - (p1 - p0))
            probe_spans.append([n0, n1])
            codes.append(code)
            stdouts.append(out.getvalue())
            output_bytes += len(out.getvalue().encode())
            if "{out}" in req["argv"] and os.path.exists(out_path):
                output_bytes += os.path.getsize(out_path)
        wall = perf_counter() - start - (speed.spent - probed)
        pass_probes = [first_probe, len(speed.times)]
    finally:
        if tracer:
            tracer.uninstall()
    record = {
        "traced": bool(tracer),
        "wall_s": wall,
        "latency_s": latency,
        "codes": codes,
        "stdout": stdouts,
        "output_bytes": output_bytes,
        "cache_hits": COUNT_LEFT_IDEALS.cache_info().hits,
        "probe_spans": probe_spans,
        "pass_probes": pass_probes,
    }
    if tracer:
        record["layers"] = tracer.totals()
        record["census"] = dict(tracer.census)
    return record


def peak_rss_kb() -> int:
    """High-water resident set of this process image, in KiB.

    Read from /proc where possible: on Linux ru_maxrss keeps, across exec,
    the peak of the process that forked this one, so it would report the
    benchmark driver's memory whenever that is larger.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    requests, outdir, seconds = spec["requests"], spec["outdir"], spec["seconds"]
    tracer = Tracer() if spec["trace"] else None
    speed = SpeedProbe()
    if not tracer:
        speed.start()
    passes = []
    last_wall = {}
    start = perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        rec = run_pass(requests, outdir, len(passes), tracer if traced else None, speed)
        passes.append(rec)
        last_wall[traced] = rec["wall_s"]
        if tracer and len(passes) < 2:
            continue
        next_traced = bool(tracer) and len(passes) % 2 == 1
        expected = last_wall.get(next_traced, rec["wall_s"])
        if perf_counter() - start + expected > seconds:
            break
    speed.stop()
    peak_kb = peak_rss_kb()
    if tracer and spec.get("span_file"):
        tracer.write(spec["span_file"])
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "peak_rss_kb": peak_kb, "probe_s": speed.times}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
