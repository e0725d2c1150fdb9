"""Generate ``reference.json``: the expected answer of every request any seed
can produce, each checked once by a second path.

    PYTHONPATH=src python3 perfbench/make_reference.py

Series are stored as digests of a_1..a_N at every N a workload may ask
for, plus spot values.  Before they are written, every series is checked
against the brute-force census at prime-power indices with at most about
10^5 sublattices, and against a sympy series expansion of every
exceptional local factor; every Hey expansion is checked against sympy
applied to Hey's product formula.  sympy is needed only here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time

import sympy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import orderzeta  # noqa: E402
from orderzeta import (  # noqa: E402
    cli,
    complete_graph_catalog,
    complete_graph_scheme,
    count_left_ideals,
    cyclic_prime_catalog,
    cyclotomic,
    global_zeta,
    order_from_scheme,
    rank2_over_field,
    ring_of_integers_order,
    tensor_global_zeta,
    tensor_order,
)

import verify  # noqa: E402
import workloads  # noqa: E402

CENSUS_INDEX_LIMIT = 110_000   # sublattices at one index
CENSUS_BUDGET = 250_000        # sublattices per construction
SPOT_COMPOSITES = (30, 210, 720, 2310, 5040, 30030, 55440, 83160)
U = sympy.symbols("u")


def construction(label: str):
    """(GlobalZeta, IntegralOrder) of a CLI construction, from the public API."""
    name, *params = label.split()
    if name == "zc6":
        name, params = "cp-x-kn", ["3", "2"]
    if name == "rank2-over":
        n, field = int(params[0]), cyclotomic(int(params[1][len("cyclo"):]))
        order = tensor_order(ring_of_integers_order(field),
                             order_from_scheme(complete_graph_scheme(n)))
        return rank2_over_field(n, field), order
    ints = [int(x) for x in params]
    if name in ("cp", "kn"):
        entry = (cyclic_prime_catalog if name == "cp" else complete_graph_catalog)(ints[0])
        return global_zeta(entry), entry.order
    first = cyclic_prime_catalog if name == "cp-x-kn" else complete_graph_catalog
    a, b = first(ints[0]), complete_graph_catalog(ints[1])
    return tensor_global_zeta(a, b), tensor_order(a.order, b.order)


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def expand(label: str, n: int, tmp: str) -> list[int]:
    path = os.path.join(tmp, "expand.csv")
    code, _ = run_cli(["expand", *label.split(), "--N", str(n), "--out", path])
    if code != 0:
        raise SystemExit(f"expand {label} --N {n} exited {code}")
    with open(path, "r", encoding="utf-8") as fh:
        return verify.columns(fh.read(), "csv", "expand")[1]


def prime_powers(limit: int) -> list[int]:
    """Prime powers q <= limit, ascending."""
    out = []
    for p in sympy.primerange(2, limit + 1):
        q = int(p)
        while q <= limit:
            out.append(q)
            q *= p
    return sorted(out)


def census_check(label: str, order, values) -> list[int]:
    """Indices q at which count_left_ideals(order, q) was compared to a_q."""
    checked, spent = [], 0
    for q in prime_powers(len(values)):
        cost = verify.sublattice_count(order.rank, q)
        if cost > CENSUS_INDEX_LIMIT:
            continue
        if spent + cost > CENSUS_BUDGET:
            break
        spent += cost
        got = count_left_ideals(order, q)
        if got != values[q - 1]:
            raise SystemExit(f"{label}: census gives {got} ideals of index {q}, "
                             f"the formula {values[q - 1]}")
        checked.append(q)
    return checked


def sympy_coefficients(expr, terms: int) -> list[int]:
    s = sympy.series(expr, U, 0, terms + 1).removeO()
    return [int(s.coeff(U, k)) for k in range(terms + 1)]


def sympy_check(label: str, zeta, values) -> list[int]:
    """Indices p^k at which a sympy expansion of the exceptional factor at p
    was compared to a_{p^k}."""
    checked = []
    for p, factor in sorted(zeta.exceptional.items()):
        top = 0
        while p ** (top + 1) <= len(values):
            top += 1
        num = sum(c * U**i for i, c in enumerate(factor.num.coeffs))
        den = sum(c * U**i for i, c in enumerate(factor.den.coeffs))
        coeffs = sympy_coefficients(num / den, top)
        for k in range(top + 1):
            if coeffs[k] != values[p**k - 1]:
                raise SystemExit(f"{label}: sympy gives {coeffs[k]} at {p}^{k}, "
                                 f"the program {values[p**k - 1]}")
            checked.append(p**k)
    return checked


def hey_sympy(params) -> list[int]:
    r, m, k, p, _e, f = params
    q = p**f
    expr = sympy.Integer(1)
    for j in range(k):
        expr /= 1 - q ** (j * m) * U ** (f * r * m)
    return sympy_coefficients(expr, workloads.HEY_TERMS)


def main() -> int:
    started = time.perf_counter()
    series, crosscheck = {}, {"census": {}, "sympy": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for label, ns in sorted(workloads.series_requests().items()):
            n_max = max(ns)
            values = expand(label, n_max, tmp)
            zeta, order = construction(label)
            by_census = census_check(label, order, values)
            by_sympy = sympy_check(label, zeta, values)
            spot = set(range(1, min(12, n_max) + 1)) | {n_max} | set(by_census) | set(by_sympy)
            spot |= {m for m in SPOT_COMPOSITES if m <= n_max}
            series[label] = {
                "digests": {str(n): verify.digest(values[:n]) for n in sorted(ns)},
                "spot": {str(n): values[n - 1] for n in sorted(spot)},
            }
            crosscheck["census"][label] = by_census
            crosscheck["sympy"][label] = by_sympy
            print(f"{label:<24} N={n_max:<7} census at {len(by_census)} prime powers, "
                  f"sympy at {len(by_sympy)}", file=sys.stderr)
    hey = {}
    for params in workloads.HEY_POOL:
        code, out = run_cli(["hey", *map(str, params), "--terms", str(workloads.HEY_TERMS)])
        values = json.loads(out.splitlines()[1].split(": ", 1)[1])
        if code != 0 or values != hey_sympy(params):
            raise SystemExit(f"hey {params}: program and sympy disagree")
        hey[workloads.hey_key(params)] = {"digest": verify.digest(values)}
    doc = {
        "program_version": orderzeta.__version__,
        "note": "generated by perfbench/make_reference.py; every series was checked "
                "against the census at the indices in crosscheck.census and against "
                "sympy expansions of its exceptional local factors at the indices in "
                "crosscheck.sympy; every hey entry against sympy on Hey's formula",
        "series": series,
        "hey": hey,
        "crosscheck": crosscheck,
    }
    with open(verify.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {verify.REFERENCE_PATH} in {time.perf_counter() - started:.1f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
