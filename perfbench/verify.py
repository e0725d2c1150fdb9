"""Output checks and exact counts that do not go through the program.

`check_request` judges one request of one pass from its exit code and
output against the stored reference (`reference.json`) or, for scheme
commands, against structure computed here from the generated matrices.
`sublattice_count` gives the number of index-n sublattices of Z^r in
closed form; it is what `census.sublattices_visited` is computed from.
"""

from __future__ import annotations

import hashlib
import json
import os

from workloads import kron_relations

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:32]


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- closed-form sublattice counts -----------------------------------------

def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def sublattice_count(rank: int, n: int) -> int:
    """Index-n sublattices of Z^rank: [k + rank - 1 choose rank - 1]_p at
    n = p^k, multiplicative in n."""
    out = 1
    for p, k in _factorize(n).items():
        out *= gaussian_binomial(k + rank - 1, rank - 1, p)
    return out


# --- parsing ----------------------------------------------------------------

class CheckFailed(Exception):
    pass


def columns(text: str, fmt: str, command: str):
    """(n list, formula column, oracle column or None) of an expand/compare output."""
    if fmt == "json":
        doc = json.loads(text)
        if command == "expand":
            rows = doc["coefficients"]
            return [r[0] for r in rows], [r[1] for r in rows], None
        rows = doc["rows"]
        if not doc["all_match"] or not all(r[3] is True for r in rows):
            raise CheckFailed("compare reports a mismatch")
        return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]
    lines = text.splitlines()
    want = "n,a_n" if command == "expand" else "n,a_n,oracle_a_n,match"
    if not lines or lines[0] != want:
        raise CheckFailed(f"bad csv header {lines[:1]!r}")
    rows = [line.split(",") for line in lines[1:]]
    ns = [int(r[0]) for r in rows]
    if command == "expand":
        return ns, [int(r[1]) for r in rows], None
    if not all(r[3] == "true" for r in rows):
        raise CheckFailed("compare reports a mismatch")
    return ns, [int(r[1]) for r in rows], [int(r[2]) for r in rows]


def _check_values(values, ref_entry: dict, n_max: int) -> None:
    want = ref_entry["digests"].get(str(n_max))
    if want is None:
        raise CheckFailed(f"no reference digest at N = {n_max}")
    for n, a in ref_entry["spot"].items():
        n = int(n)
        if n <= n_max and values[n - 1] != a:
            raise CheckFailed(f"a_{n} = {values[n - 1]}, reference {a}")
    if digest(values) != want:
        raise CheckFailed(f"coefficient digest differs from the reference at N = {n_max}")


def _check_series(check: dict, text: str, ref: dict) -> None:
    ns, formula, oracle = columns(text, check["format"], check["command"])
    n_max = check["N"]
    if ns != list(range(1, n_max + 1)):
        raise CheckFailed("row indices are not 1..N")
    entry = ref["series"].get(check["label"])
    if entry is None:
        raise CheckFailed(f"no reference for {check['label']!r}")
    _check_values(formula, entry, n_max)
    if oracle is not None:
        _check_values(oracle, entry, n_max)


def _check_hey(check: dict, stdout: str, ref: dict) -> None:
    lines = stdout.splitlines()
    if len(lines) != 2 or not lines[1].startswith("coefficients (u^0.."):
        raise CheckFailed("unexpected hey output")
    values = json.loads(lines[1].split(": ", 1)[1])
    entry = ref["hey"].get(check["key"])
    if entry is None:
        raise CheckFailed(f"no reference for hey {check['key']}")
    if digest(values) != entry["digest"]:
        raise CheckFailed("hey coefficients differ from the reference")


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def validate_text(relations) -> str:
    """The validate report of a scheme whose identity relation comes first."""
    r = len(relations)
    support = []
    for m in relations:
        support.append(next((x, y) for x, row in enumerate(m) for y, v in enumerate(row) if v))
    lines = [
        f"valid association scheme: rank {r} on {len(relations[0])} points",
        f"valencies: {[sum(m[0]) for m in relations]}",
        "structure constants (nonidentity products):",
    ]
    for s in range(1, r):
        for t in range(1, r):
            prod = _mat_mul(relations[s], relations[t])
            terms = [f"{prod[x][y]}*s{u}" for u, (x, y) in enumerate(support) if prod[x][y]]
            lines.append(f"  s{s}*s{t} = {' + '.join(terms) if terms else '0'}")
    return "\n".join(lines) + "\n"


def _check_product(check: dict, stdout: str, text: str, out_path: str) -> None:
    rel = kron_relations(check["a"], check["b"])
    want_doc = {"size": len(rel[0]), "relations": rel}
    if json.loads(text) != want_doc:
        raise CheckFailed("product scheme differs from the Kronecker products")
    want = f"wrote {out_path}: rank {len(rel)} scheme on {len(rel[0])} points\n"
    if stdout != want:
        raise CheckFailed("unexpected product report")


def check_request(request: dict, code, stdout: str, out_path: str, ref: dict) -> str | None:
    """None when the request is answered correctly, else the reason it failed."""
    if code != request["code"]:
        return f"exit code {code}, expected {request['code']}"
    check = request["check"]
    kind = check["kind"]
    try:
        if kind == "refusal":
            return None
        if kind == "hey":
            _check_hey(check, stdout, ref)
        elif kind == "validate":
            if stdout != validate_text(check["relations"]):
                raise CheckFailed("validate report differs")
        else:
            with open(out_path, "r", encoding="utf-8") as fh:
                text = fh.read()
            if kind == "series":
                _check_series(check, text, ref)
            else:
                _check_product(check, stdout, text, out_path)
    except CheckFailed as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None
