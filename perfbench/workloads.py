"""Seeded request lists for the three benchmark workloads.

A request is a dict with the CLI argv (``{out}`` stands for the output
file the client substitutes), the expected exit code, and a ``check``
telling `verify` how to judge the output.  Every parameter is drawn from
a finite pool so that `make_reference.py` can store an expected answer for
each request any seed can produce.  Draws are stratified so that the total
work of a request list hardly depends on the seed: seeds change which
inputs are sent, not how much there is to compute.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("expand-large", "census-deep", "session-mix")

WHY = {
    "expand-large": "formula side at N = 10^5, where local-factor construction dominates; "
    "the census does no work",
    "census-deep": "compare --prime-powers-only to deep prime-power indices; the census "
    "takes over 99% of the time and N is tiny",
    "session-mix": "over 100 short requests of every command, refusals included: fixed "
    "per-request costs, the census cache, schemes and orders",
}

LARGE_N = 100_000
LARGE_RATIONAL = ("kn 6", "kn 10", "kn 14", "kn 15")
LARGE_CYCLO = ("rank2-over 4 cyclo5", "rank2-over 6 cyclo5", "rank2-over 9 cyclo5",
               "rank2-over 10 cyclo5")

# zc6 and cp-x-kn 3 2 build the same rank-6 order, so the census does the
# same work for either.  Deepest indices: 16 (200,787 sublattices of Z^5),
# 9 (99,463 of Z^6), 243 (99,463 of Z^3).
ZC6_ALIASES = ("zc6", "cp-x-kn 3 2")
DEEP = ((("cp 5",), 16), (ZC6_ALIASES, 9), (("cp 3",), 243))

# session-mix expand slots.  The members of a family share their Wedderburn
# components, which fix the cost of an expansion, and N comes from a narrow
# range: seeds change the constructions, not the work.
SESSION_EXPAND_FAMILIES = (
    ("cp 3",),
    ("cp 5",),
    ("kn 3", "kn 4", "kn 5", "kn 6", "kn 8", "kn 9", "kn 10", "kn 12"),
    ("km-x-kn 2 3", "km-x-kn 3 4", "km-x-kn 4 9", "km-x-kn 3 8",
     "km-x-kn 2 5", "km-x-kn 2 9", "km-x-kn 5 6", "km-x-kn 4 5"),
    ("zc6", "cp-x-kn 3 2", "cp-x-kn 3 4", "cp-x-kn 3 5", "cp-x-kn 3 8"),
    ("cp-x-kn 5 2", "cp-x-kn 5 3", "cp-x-kn 5 4", "cp-x-kn 5 6"),
    ("cp-x-kn 7 2", "cp-x-kn 7 3", "cp-x-kn 7 4", "cp-x-kn 7 5"),
    ("rank2-over 2 cyclo3", "rank2-over 3 cyclo3", "rank2-over 4 cyclo3", "rank2-over 6 cyclo3"),
    ("rank2-over 2 cyclo5", "rank2-over 3 cyclo5", "rank2-over 5 cyclo5", "rank2-over 6 cyclo5"),
    ("rank2-over 2 cyclo7", "rank2-over 3 cyclo7", "rank2-over 4 cyclo7", "rank2-over 6 cyclo7"),
)
SESSION_EXPAND_STRATA = tuple(range(c - c // 10, c + 1, c // 50) for c in (500, 1000, 1500, 2000))

# direct-mode compares: each family is asked four times, always once at its
# largest N, so the census work is fixed and the other three requests meet
# the census cache in a seeded order
SESSION_COMPARE_FAMILIES = (
    (("kn 6",), range(10, 31)),
    (("cp 3",), range(6, 17)),
    (("cp 5",), range(2, 7)),
    (("km-x-kn 2 3",), range(3, 9)),
    (ZC6_ALIASES, range(2, 5)),
    (("rank2-over 4 cyclo3",), range(3, 9)),
)

HEY_TERMS = 12
HEY_POOL = [
    (r, m, k, p, e, f)
    for r in (1, 2, 3) for m in (1, 2, 3) for k in (1, 2, 3)
    for p in (2, 3, 5) for e in (1, 2) for f in (1, 2)
]

NON_PRIMES = (4, 6, 8, 9, 10, 12, 15, 21)
NOT_COPRIME = ((2, 4), (6, 9), (2, 6), (3, 9), (4, 10))


def hey_key(params) -> str:
    return " ".join(str(x) for x in params)


# --- scheme files, built here and not by the program under test ------------

def complete_relations(n: int):
    return [[[int(i == j) for j in range(n)] for i in range(n)],
            [[int(i != j) for j in range(n)] for i in range(n)]]


def cyclic_relations(n: int):
    return [[[int((x + s) % n == y) for y in range(n)] for x in range(n)] for s in range(n)]


def kron_relations(a, b):
    return [
        [[x * y for x in ra for y in rb] for ra in ma for rb in mb]
        for ma in a for mb in b
    ]


def _small_scheme(rng: random.Random):
    if rng.random() < 0.5:
        return complete_relations(rng.randint(2, 4))
    return cyclic_relations(rng.randint(2, 3))


def _validate_scheme(rng: random.Random, kind: str):
    # products stay at rank 6 on <= 9 points, so validation cost hardly
    # depends on the seed
    if kind == "complete":
        rel = complete_relations(rng.randint(6, 8))
    elif kind == "cyclic":
        rel = cyclic_relations(rng.randint(5, 6))
    else:
        rel = kron_relations(complete_relations(rng.randint(2, 3)), cyclic_relations(3))
    rest = rel[1:]
    rng.shuffle(rest)  # identity first, the others in a seeded order
    return [rel[0]] + rest


MALFORMED = (
    '{"size": 3, "relations": [[[1, 0, 0], [0, 1',      # truncated JSON
    '{"size": 2, "matrices": [[[1, 0], [0, 1]]]}',        # no relations field
    '{"size": 2, "relations": [[[1, 0], [0, 1]], [[0, 1, 1]]]}',  # not square
)
# overlapping relations: fails scheme condition 2, exit 1
INVALID = '{"size": 2, "relations": [[[1, 0], [0, 1]], [[1, 1], [1, 1]]]}'


# --- request lists ----------------------------------------------------------

def _series(command: str, label: str, n: int, fmt: str, extra=()):
    return {
        "argv": [command, *label.split(), "--N", str(n), *extra,
                 "--format", fmt, "--out", "{out}"],
        "code": 0,
        "check": {"kind": "series", "command": command, "label": label, "N": n,
                  "format": fmt},
    }


def _formats(rng: random.Random, count: int, json_count: int):
    fmts = ["json"] * json_count + ["csv"] * (count - json_count)
    rng.shuffle(fmts)
    return fmts


def _expand_large(rng: random.Random, workdir: str):
    # json only for zc6, the slowest request: its extra output cost then
    # never decides the median latency
    reqs = [_series("expand", "zc6", LARGE_N, "json"),
            _series("expand", rng.choice(LARGE_RATIONAL), LARGE_N, "csv"),
            _series("expand", rng.choice(LARGE_CYCLO), LARGE_N, "csv")]
    rng.shuffle(reqs)
    return reqs


def _census_deep(rng: random.Random, workdir: str):
    picks = [(rng.choice(labels), n) for labels, n in DEEP]
    rng.shuffle(picks)
    fmts = _formats(rng, len(picks), 1)
    return [
        _series("compare", label, n, fmt, ("--prime-powers-only",))
        for (label, n), fmt in zip(picks, fmts)
    ]


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _scheme_file(workdir: str, name: str, relations) -> str:
    doc = {"size": len(relations[0]), "relations": relations}
    return _write(workdir, name, json.dumps(doc))


def _session_mix(rng: random.Random, workdir: str):
    reqs = []
    slots = [(fam, stratum) for fam in SESSION_EXPAND_FAMILIES
             for stratum in SESSION_EXPAND_STRATA]
    fmts = _formats(rng, len(slots), len(slots) // 2)
    for (fam, stratum), fmt in zip(slots, fmts):
        reqs.append(_series("expand", rng.choice(fam), rng.choice(stratum), fmt))

    compares = [(fam, n) for fam, (_labels, ns) in enumerate(SESSION_COMPARE_FAMILIES)
                for n in (ns[-1], *rng.choices(ns[:-1], k=3))]
    fmts = _formats(rng, len(compares), len(compares) // 2)
    family = {}  # id of a compare request -> its family
    for (fam, n), fmt in zip(compares, fmts):
        req = _series("compare", rng.choice(SESSION_COMPARE_FAMILIES[fam][0]), n, fmt)
        family[id(req)] = fam
        reqs.append(req)

    for params in rng.sample(HEY_POOL, 24):
        reqs.append({
            "argv": ["hey", *map(str, params), "--terms", str(HEY_TERMS)],
            "code": 0,
            "check": {"kind": "hey", "key": hey_key(params)},
        })

    for i, kind in enumerate(["complete", "cyclic", "product"] * 4):
        rel = _validate_scheme(rng, kind)
        path = _scheme_file(workdir, f"valid{i}.json", rel)
        reqs.append({"argv": ["validate", path], "code": 0,
                     "check": {"kind": "validate", "relations": rel}})

    for i in range(8):
        a, b = _small_scheme(rng), _small_scheme(rng)
        pa = _scheme_file(workdir, f"prod{i}a.json", a)
        pb = _scheme_file(workdir, f"prod{i}b.json", b)
        reqs.append({"argv": ["product", pa, pb, "--out", "{out}"], "code": 0,
                     "check": {"kind": "product", "a": a, "b": b}})

    refusals = []
    for c in rng.sample(NON_PRIMES, 3):
        refusals.append(["expand", "cp", str(c), "--N", "20"])
    for m, n in rng.sample(NOT_COPRIME, 2):
        refusals.append(["compare", "km-x-kn", str(m), str(n), "--N", "6"])
    for i, text in enumerate(MALFORMED):
        refusals.append(["validate", _write(workdir, f"malformed{i}.json", text)])
    for argv in refusals:
        reqs.append({"argv": argv, "code": 2, "check": {"kind": "refusal"}})
    reqs.append({"argv": ["validate", _write(workdir, "invalid.json", INVALID)],
                 "code": 1, "check": {"kind": "refusal"}})
    rng.shuffle(reqs)
    # the largest compare of a family goes first, so each family misses the
    # census cache once and hits it three times, whatever the order
    for fam in range(len(SESSION_COMPARE_FAMILIES)):
        slots = [i for i, r in enumerate(reqs) if family.get(id(r)) == fam]
        top = max(slots, key=lambda i: reqs[i]["check"]["N"])
        reqs[slots[0]], reqs[top] = reqs[top], reqs[slots[0]]
    return reqs


_BUILDERS = {
    "expand-large": _expand_large,
    "census-deep": _census_deep,
    "session-mix": _session_mix,
}


def build(workload: str, seed: int, workdir: str):
    """Request list of one run; scheme files are written into `workdir`."""
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, workdir)


def series_requests():
    """Every (label, N) that any seed can ask for, as {label: set of N}."""
    out: dict[str, set[int]] = {}

    def add(label, ns):
        out.setdefault(label, set()).update(ns)

    for label in ("zc6", *LARGE_RATIONAL, *LARGE_CYCLO):
        add(label, [LARGE_N])
    for labels, n in DEEP:
        for label in labels:
            add(label, [n])
    for fam in SESSION_EXPAND_FAMILIES:
        for label in fam:
            for stratum in SESSION_EXPAND_STRATA:
                add(label, stratum)
    for labels, ns in SESSION_COMPARE_FAMILIES:
        for label in labels:
            add(label, ns)
    return out
