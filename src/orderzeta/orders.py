"""Integral orders given by integer multiplication tables.

An order is a ring on a free Z-module of finite rank, encoded by the
tensor c[i][j][k] with b_i b_j = sum_k c[i][j][k] b_k and the coordinates
of 1.  Local maximality at a prime is approximated by the discriminant
test: primes not dividing the discriminant of the trace form are good,
and nothing is ever claimed about the primes that do divide it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import factorize
from .numfields import FieldDescriptor
from .schemes import AssociationScheme, tensor_table


@dataclass(frozen=True, slots=True)
class IntegralOrder:
    """Ring on Z^rank with multiplication table c[i][j][k] and unit vector.

    Associativity and the identity law are checked on all basis triples
    at construction, so an instance is always an honest ring.
    """

    rank: int
    table: tuple[tuple[tuple[int, ...], ...], ...]
    identity: tuple[int, ...]

    def __post_init__(self):
        r = self.rank
        if r < 1:
            raise ValueError("rank must be positive")
        if len(self.table) != r or len(self.identity) != r:
            raise ValueError("table or identity has the wrong shape")
        for row in self.table:
            if len(row) != r or any(len(entry) != r for entry in row):
                raise ValueError("table has the wrong shape")
        for j in range(r):
            basis = tuple(1 if i == j else 0 for i in range(r))
            if (
                self.multiply(self.identity, basis) != basis
                or self.multiply(basis, self.identity) != basis
            ):
                raise ValueError("stored identity is not a two-sided unit")
        for i in range(r):
            for j in range(r):
                pij = self.table[i][j]
                for k in range(r):
                    basis_k = tuple(1 if m == k else 0 for m in range(r))
                    left = self.multiply(pij, basis_k)
                    right = self.multiply(
                        tuple(1 if m == i else 0 for m in range(r)),
                        self.table[j][k],
                    )
                    if left != right:
                        raise ValueError(
                            f"multiplication is not associative at basis triple {(i, j, k)}"
                        )

    def multiply(self, x, y) -> tuple[int, ...]:
        """Product of coordinate vectors in the basis."""
        r = self.rank
        out = [0] * r
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.table[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                entry = row[j]
                for k in range(r):
                    if entry[k]:
                        out[k] += c * entry[k]
        return tuple(out)

    def is_commutative(self) -> bool:
        return all(
            self.table[i][j] == self.table[j][i]
            for i in range(self.rank)
            for j in range(self.rank)
        )


def order_from_scheme(scheme: AssociationScheme) -> IntegralOrder:
    """The adjacency ring: basis = relation matrices, table = structure constants."""
    # relation 0 is the identity: AssociationScheme keeps it first
    ident = (1,) + (0,) * (scheme.rank - 1)
    return IntegralOrder(
        rank=scheme.rank, table=scheme.structure_constants, identity=ident
    )


def tensor_order(a: IntegralOrder, b: IntegralOrder) -> IntegralOrder:
    """Tensor product over Z; basis pairs (i, j) are flattened to i * rank(b) + j.

    When both factors come from schemes this equals the adjacency ring of
    the direct product scheme, basis order included.
    """
    ident = tuple(x * y for x in a.identity for y in b.identity)
    return IntegralOrder(
        rank=a.rank * b.rank, table=tensor_table(a.table, b.table), identity=ident
    )


def ring_of_integers_order(field: FieldDescriptor) -> IntegralOrder:
    """Maximal order of a supported field as an integral order.

    Q gives the rank-1 ring; Q(e_l) gives Z[e_l] on the basis
    1, e, ..., e^{l-2} with e^{l-1} = -(1 + e + ... + e^{l-2}).
    """
    ell = field.cyclotomic_prime
    if ell is None:
        return IntegralOrder(rank=1, table=(((1,),),), identity=(1,))
    r = ell - 1

    def power_vector(exp: int) -> tuple[int, ...]:
        exp %= ell
        if exp <= r - 1:
            return tuple(1 if k == exp else 0 for k in range(r))
        return (-1,) * r

    table = tuple(
        tuple(power_vector(i + j) for j in range(r)) for i in range(r)
    )
    return IntegralOrder(rank=r, table=table, identity=power_vector(0))


def _det_bareiss(mat: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    n = len(mat)
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def discriminant(order: IntegralOrder) -> int:
    """Determinant of the trace form (i, j) -> trace of left multiplication by b_i b_j.

    Zero signals a degenerate (nonsemisimple over Q) algebra; nonzero
    values control the bad-prime superset.
    """
    r = order.rank
    # trace of left multiplication by b_k
    tr = [sum(order.table[k][m][m] for m in range(r)) for k in range(r)]
    gram = [
        [sum(order.table[i][j][k] * tr[k] for k in range(r)) for j in range(r)]
        for i in range(r)
    ]
    return _det_bareiss(gram)


def bad_primes(order: IntegralOrder) -> frozenset[int]:
    """Primes dividing the discriminant: a superset of the primes where the
    completed order can fail to be maximal.  At every other prime the
    completion is maximal and the local zeta factor is the Dedekind one."""
    disc = discriminant(order)
    if disc == 0:
        raise ValueError("zero discriminant: the rational algebra is degenerate")
    return frozenset(factorize(disc))
