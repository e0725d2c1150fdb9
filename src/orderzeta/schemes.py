"""Association schemes in adjacency-matrix form.

A scheme is a partition of X x X into 0/1 relation matrices containing
the identity, closed under transpose, whose pairwise products are
constant on every relation.  Matrices are stored dense as tuples of
tuples; SCHEME_BUDGET bounds the work on them.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from operator import add

Matrix = tuple[tuple[int, ...], ...]

# most steps one `validate` may take (n^3 for n points) and most matrix
# entries one `direct_product` may build; a larger request, well formed
# but too big, is refused with OverflowError
SCHEME_BUDGET = 10**7


class SchemeError(ValueError):
    """A matrix family that fails one of the four scheme conditions.

    `condition` is the number of the violated condition: 1 identity
    present, 2 partition of X x X, 3 transpose closure, 4 products are
    nonnegative-integer combinations.
    """

    def __init__(self, condition: int, message: str):
        super().__init__(f"condition {condition}: {message}")
        self.condition = condition


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def _kron(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x * y for x in ra for y in rb) for ra in a for rb in b
    )


@dataclass(frozen=True, slots=True)
class AssociationScheme:
    """A validated scheme: relations (identity first) and the structure
    constants c[s][t][u] of sigma_s sigma_t."""

    size: int
    relations: tuple[Matrix, ...]
    structure_constants: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.relations)

    @property
    def valencies(self) -> tuple[int, ...]:
        """Row sum of each relation (constant across rows for a valid scheme)."""
        return tuple(sum(m[0]) for m in self.relations)

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "relations": [[list(row) for row in m] for m in self.relations],
        }


def validate(matrices) -> AssociationScheme:
    """Check the four scheme conditions and assemble the derived structure.

    Relations are reordered so the identity comes first; everything else
    keeps its input order.  Condition 4 and the structure constants come
    from one count over the n^3 point triples (x, z, y), not from matrix
    products.  Raises SchemeError with the number of the first violated
    condition; ValueError for malformed input, anything but a list of
    lists of lists of integers; OverflowError when the n^3 steps exceed
    SCHEME_BUDGET.
    """
    if not isinstance(matrices, (list, tuple)):
        raise ValueError("relations must be a list of matrices")
    for s, m in enumerate(matrices):
        if not isinstance(m, (list, tuple)) or not all(
            isinstance(row, (list, tuple))
            and all(isinstance(x, int) and not isinstance(x, bool) for x in row)
            for row in m
        ):
            raise ValueError(f"relation {s} is not a list of rows of integers")
    mats = [tuple(tuple(int(x) for x in row) for row in m) for m in matrices]
    if not mats:
        raise ValueError("no relation matrices given")
    n = len(mats[0])
    if n == 0:
        raise ValueError("relation matrices are 0x0")
    for s, m in enumerate(mats):
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError(f"relation {s} is not a {n}x{n} matrix")
        if any(x not in (0, 1) for row in m for x in row):
            raise ValueError(f"relation {s} has entries outside {{0, 1}}")
    if n**3 > SCHEME_BUDGET:
        raise OverflowError(
            f"a scheme on {n} points takes {n**3:,} steps to validate, "
            f"more than {SCHEME_BUDGET:,}"
        )

    ident = _identity(n)
    try:
        id_idx = mats.index(ident)
    except ValueError:
        raise SchemeError(1, "no relation is the identity matrix") from None

    # condition 2: the supports partition X x X
    owner = [[-1] * n for _ in range(n)]
    for s, m in enumerate(mats):
        if not any(x for row in m for x in row):
            raise SchemeError(2, f"relation {s} is empty")
        for x in range(n):
            for y in range(n):
                if m[x][y]:
                    if owner[x][y] >= 0:
                        raise SchemeError(
                            2, f"relations {owner[x][y]} and {s} overlap at {(x, y)}"
                        )
                    owner[x][y] = s
    for x in range(n):
        for y in range(n):
            if owner[x][y] < 0:
                raise SchemeError(2, f"no relation covers the pair {(x, y)}")

    # condition 3: closed under transpose
    relation_set = set(mats)
    for s, m in enumerate(mats):
        if _transpose(m) not in relation_set:
            raise SchemeError(3, f"transpose of relation {s} is not a relation")

    # canonical order: identity first, then input order
    perm = [id_idx] + [s for s in range(len(mats)) if s != id_idx]
    new_index = {old: new for new, old in enumerate(perm)}
    relations = tuple(mats[old] for old in perm)
    for x in range(n):
        for y in range(n):
            owner[x][y] = new_index[owner[x][y]]

    # condition 4: (sigma_s sigma_t)(x, y) counts the points z with
    # colour(x, z) = s and colour(z, y) = t, coded s * r + t; the sorted
    # codes at every pair must equal those at the first pair of its colour
    r = len(relations)
    coded = [[r * c for c in row] for row in owner]
    columns = list(zip(*owner))
    first = {}
    failure = None
    for x in range(n):
        for y in range(n):
            u = owner[x][y]
            seen = sorted(map(add, coded[x], columns[y]))
            ref = first.setdefault(u, seen)
            if seen != ref:
                # below the first difference the counts agree, so the
                # smallest code whose count differs is the smaller one there
                key = next(min(a, b) for a, b in zip(seen, ref) if a != b)
                if failure is None or key < failure[0]:
                    failure = (key, u, seen.count(key), ref.count(key))
    if failure is not None:
        key, u, here, there = failure
        raise SchemeError(
            4,
            f"sigma_{key // r} * sigma_{key % r} is not constant on relation "
            f"{u} (seen {here} and {there})",
        )
    counts = [Counter(first[u]) for u in range(r)]
    constants = tuple(
        tuple(tuple(c.get(s * r + t, 0) for c in counts) for t in range(r))
        for s in range(r)
    )

    return AssociationScheme(
        size=n,
        relations=relations,
        structure_constants=constants,
    )


def complete_graph_table(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Structure constants of the complete graph scheme on n points, known
    without its n x n matrices: sigma_1^2 = (n-1) sigma_0 + (n-2) sigma_1."""
    if n < 2:
        raise ValueError("complete graph scheme needs n >= 2")
    return (
        ((1, 0), (0, 1)),
        ((0, 1), (n - 1, n - 2)),
    )


def complete_graph_scheme(n: int) -> AssociationScheme:
    """Rank-2 scheme of the complete graph on n >= 2 points: {I, J - I}."""
    constants = complete_graph_table(n)
    ident = _identity(n)
    other = tuple(tuple(1 - x for x in row) for row in ident)
    return AssociationScheme(
        size=n,
        relations=(ident, other),
        structure_constants=constants,
    )


def cyclic_group_scheme(n: int) -> AssociationScheme:
    """Thin scheme of the cyclic group of order n: the powers of the n-cycle.

    Relation s pairs x with x + s mod n; the adjacency algebra is the
    group ring of C_n.  n = 1 gives the trivial rank-1 scheme.
    """
    if n < 1:
        raise ValueError("group order must be positive")
    relations = tuple(
        tuple(tuple(1 if (x + s) % n == y else 0 for y in range(n)) for x in range(n))
        for s in range(n)
    )
    constants = tuple(
        tuple(
            tuple(1 if (s + t) % n == u else 0 for u in range(n))
            for t in range(n)
        )
        for s in range(n)
    )
    return AssociationScheme(
        size=n,
        relations=relations,
        structure_constants=constants,
    )


def tensor_table(a, b) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Kronecker product of two multiplication tables c[i][j][k].

    Basis pairs (i, j) are flattened to i * rank(b) + j, so this is both
    the structure constants of a direct product scheme and the table of
    a tensor product of orders.
    """
    ra, rb = len(a), len(b)
    return tuple(
        tuple(
            tuple(
                a[i1][i2][k1] * b[j1][j2][k2]
                for k1 in range(ra)
                for k2 in range(rb)
            )
            for i2 in range(ra)
            for j2 in range(rb)
        )
        for i1 in range(ra)
        for j1 in range(rb)
    )


def direct_product(a: AssociationScheme, b: AssociationScheme) -> AssociationScheme:
    """Scheme on |X| * |Y| points whose relations are the pairwise tensor
    products; structure constants multiply componentwise.  Refuses, with
    OverflowError, a product of more than SCHEME_BUDGET matrix entries."""
    entries = a.rank * b.rank * (a.size * b.size) ** 2
    if entries > SCHEME_BUDGET:
        raise OverflowError(
            f"a direct product of {entries:,} matrix entries is more than "
            f"{SCHEME_BUDGET:,}"
        )
    relations = tuple(
        _kron(ma, mb) for ma in a.relations for mb in b.relations
    )
    return AssociationScheme(
        size=a.size * b.size,
        relations=relations,
        structure_constants=tensor_table(a.structure_constants, b.structure_constants),
    )


def scheme_from_dict(data: dict) -> AssociationScheme:
    """Build and validate a scheme from {"size": n, "relations": [...]};
    the size is optional and, when given, must be an integer equal to
    the matrix size."""
    if not isinstance(data, dict) or "relations" not in data:
        raise ValueError("scheme document needs a 'relations' field")
    size = data.get("size")
    if "size" in data and (not isinstance(size, int) or isinstance(size, bool)):
        raise ValueError(f"declared size {size!r} is not an integer")
    scheme = validate(data["relations"])
    if "size" in data and scheme.size != size:
        raise ValueError(
            f"declared size {size} but matrices are {scheme.size}x{scheme.size}"
        )
    return scheme


def load_scheme(path) -> AssociationScheme:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return scheme_from_dict(data)


def save_scheme(scheme: AssociationScheme, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scheme.to_dict(), fh, indent=1)
        fh.write("\n")
