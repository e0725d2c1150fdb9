"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that request lists are a pure
function of the seed, that the closed-form sublattice counts match the
program's enumeration, that a perturbed output is caught, that exact
counts repeat across traced runs, that traced self times add up to the
traced job time, and that BENCHMARK.json lists the metrics run.py
reports.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run  # puts perfbench/ on sys.path and knows where src/ is
import verify
import workloads

sys.path.insert(0, run.SRC)
from orderzeta import enumerate_sublattices  # noqa: E402

FAILED = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILED.append(name)


def requests_of(workload: str, seed: int):
    with tempfile.TemporaryDirectory() as tmp:
        reqs = workloads.build(workload, seed, tmp)
        files = {name: open(os.path.join(tmp, name), encoding="utf-8").read()
                 for name in sorted(os.listdir(tmp))}
        text = json.dumps(reqs).replace(tmp, "<dir>")
    return text, files


def test_seeds():
    for w in workloads.WORKLOADS:
        a, b, c = requests_of(w, 7), requests_of(w, 7), requests_of(w, 8)
        check(f"{w}: same seed, same requests and files", a == b)
        check(f"{w}: another seed, other requests", a != c)
    text, _ = requests_of("session-mix", 3)
    check("session-mix sends at least 100 requests", len(json.loads(text)) >= 100)


def test_sublattice_counts():
    for rank in range(1, 5):
        for n in range(1, 17):
            want = sum(1 for _ in enumerate_sublattices(rank, n))
            if verify.sublattice_count(rank, n) != want:
                check(f"sublattice count rank {rank} index {n}", False,
                      f"{verify.sublattice_count(rank, n)} vs enumerated {want}")
                return
    check("sublattice counts match enumeration, ranks 1-4, indices 1-16", True)
    for rank, n, want in ((6, 8, 97_155), (6, 9, 99_463), (5, 25, 508_431)):
        got = verify.sublattice_count(rank, n)
        check(f"sublattice count rank {rank} index {n} is {want}", got == want, str(got))


def _perturb_series(path: str, fmt: str, n: int) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "csv":
        lines = text.splitlines()
        cols = lines[n].split(",")
        cols[1] = str(int(cols[1]) + 1)
        lines[n] = ",".join(cols)
        text = "\n".join(lines) + "\n"
    else:
        doc = json.loads(text)
        rows = doc["coefficients"] if "coefficients" in doc else doc["rows"]
        rows[n - 1][1] += 1
        text = json.dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def test_perturbation(ref: dict):
    rec = run.run_workload("session-mix", 5, 1, False, ref, keep_outputs=True)
    workdir = rec["outputs"]
    try:
        check("session-mix outputs match the reference", rec["correct"],
              json.dumps(rec["failures"][:3]))
        requests = workloads.build("session-mix", 5, workdir)
        seen = set()
        for i, req in enumerate(requests):
            chk = req["check"]
            key = (chk["kind"], chk.get("format"), chk.get("command"))
            if chk["kind"] != "series" or key in seen:
                continue
            spot = {int(n) for n in ref["series"][chk["label"]]["spot"]}
            hidden = [m for m in range(1, chk["N"] + 1) if m not in spot]
            if not hidden:
                continue
            seen.add(key)
            path = os.path.join(workdir, f"p0-r{i}.out")
            # one perturbation at a spot value, one that only the digest sees
            for n in (2, hidden[-1]):
                with open(path, "r", encoding="utf-8") as fh:
                    original = fh.read()
                _perturb_series(path, chk["format"], n)
                why = verify.check_request(req, 0, "", path, ref)
                check(f"perturbed a_{n} in {chk['command']} {chk['format']} output is caught",
                      why is not None)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
        check("all four series output kinds were perturbed", len(seen) == 4, str(seen))
        req = next(r for r in requests if r["check"]["kind"] == "validate")
        lines = verify.validate_text(req["check"]["relations"]).splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("  s") and "*s" in line)
        lhs, rhs = lines[i].split(" = ")
        coeff, rest = rhs.split("*", 1)
        lines[i] = f"{lhs} = {int(coeff) + 1}*{rest}"
        text = "\n".join(lines) + "\n"
        check("perturbed validate report is caught",
              verify.check_request(req, 0, text, "", ref) is not None)
    finally:
        run.shutil.rmtree(workdir, ignore_errors=True)


def test_traced_runs(ref: dict):
    a = run.run_workload("session-mix", 11, 1, True, ref)
    b = run.run_workload("session-mix", 11, 1, True, ref)
    check("traced runs are correct", a["correct"] and b["correct"])
    differ = [n for n in run.EXACT if a["metrics"][n] != b["metrics"][n]]
    check("exact counts repeat across traced runs with the same seed", not differ,
          ", ".join(differ))
    check("census cache hits: tracer count equals cache_info", a["cache_hits_agree"])
    for rec in (a, b):
        overhead = rec["metrics"]["trace.overhead"]
        tol = max(overhead, 0.01)
        shares = rec["self_time_share"]
        check(f"self times add up to traced job time within {tol:.3f}",
              all(1 - tol <= s <= 1 + 1e-9 for s in shares), str(shares))


def test_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    check("BENCHMARK.json end_to_end matches run.py", sorted(e2e) == sorted(run.END_TO_END))
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    check("BENCHMARK.json per_layer matches run.py", layers == run.PER_LAYER)
    check("BENCHMARK.json workloads match", [w["name"] for w in bench["workloads"]]
          == list(workloads.WORKLOADS))


def main() -> int:
    ref = verify.load_reference()
    test_seeds()
    test_sublattice_counts()
    test_benchmark_json()
    test_perturbation(ref)
    test_traced_runs(ref)
    print(f"{len(FAILED)} failed" if FAILED else "all self-tests passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
