"""Brute-force census of finite-index sublattices and left ideals.

Sublattices of Z^r of index n are enumerated bijectively through their
Hermite normal form bases: upper-triangular rows with positive diagonal
d_1 ... d_r multiplying to n and the entries above each pivot reduced
mod that pivot.  Ideals are the enumerated lattices closed under left
multiplication by every basis element, tested by exact back substitution.
This is the ground truth every closed-form factor is compared against;
no floating point appears anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .arith import divisors, factorize
from .localfactors import HeyComponent, PadicRing, hey_local_factor
from .orders import IntegralOrder
from .series import DirichletCoefficients, multiplicative_series

# most sublattices one `ideal_series` call may enumerate
CENSUS_BUDGET = 10**7


@dataclass(frozen=True, slots=True)
class HnfBasis:
    """Canonical upper-triangular basis of a finite-index sublattice.

    Rows are the basis vectors; two sublattices are equal exactly when
    their HnfBasis values are equal.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        r = len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != r:
                raise ValueError("basis matrix must be square")
            if any(row[j] for j in range(i)):
                raise ValueError("basis matrix must be upper triangular")
            if row[i] <= 0:
                raise ValueError("diagonal entries must be positive")
        for j in range(r):
            d = self.rows[j][j]
            if any(not 0 <= self.rows[i][j] < d for i in range(j)):
                raise ValueError(f"entries above pivot {j} must be reduced mod {d}")

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(len(self.rows)))

    @property
    def index(self) -> int:
        out = 1
        for d in self.diagonal:
            out *= d
        return out

    def contains(self, vector) -> bool:
        """Exact membership by back substitution against the triangular rows."""
        r = self.dimension
        if len(vector) != r:
            raise ValueError("vector has the wrong length")
        w = list(vector)
        for j in range(r):
            t = w[j]
            if t:
                q, rem = divmod(t, self.rows[j][j])
                if rem:
                    return False
                row = self.rows[j]
                for k in range(j + 1, r):
                    w[k] -= q * row[k]
        return True


def _diagonals(r: int, n: int):
    # all (d_1, ..., d_r) with product n, in lexicographic order
    if r == 1:
        yield (n,)
        return
    for d in divisors(n):
        for rest in _diagonals(r - 1, n // d):
            yield (d,) + rest


def _raw_sublattices(r: int, n: int):
    """Yield (diagonal, rows) pairs; rows are fresh lists the consumer may keep."""
    for diag in _diagonals(r, n):
        free = [(i, j) for j in range(r) if diag[j] > 1 for i in range(j)]
        base = [[0] * r for _ in range(r)]
        for i in range(r):
            base[i][i] = diag[i]
        if not free:
            yield diag, base
            continue
        ranges = [range(diag[j]) for (_i, j) in free]
        for fill in itertools.product(*ranges):
            rows = [row[:] for row in base]
            for (i, j), v in zip(free, fill):
                rows[i][j] = v
            yield diag, rows


def enumerate_sublattices(rank: int, index: int):
    """Every index-`index` sublattice of Z^rank exactly once, as HnfBasis values.

    Deterministic order: diagonals lexicographically, then the off-diagonal
    entries in mixed-radix order column by column.
    """
    if rank < 1 or index < 1:
        raise ValueError("rank and index must be positive")
    for _diag, rows in _raw_sublattices(rank, index):
        yield HnfBasis(tuple(tuple(row) for row in rows))


def _mult_matrices(order: IntegralOrder):
    # left-multiplication matrix of each basis element, identity rows dropped
    r = order.rank
    ident = tuple(tuple(1 if k == j else 0 for j in range(r)) for k in range(r))
    mats = []
    for i in range(r):
        m = tuple(tuple(order.table[i][j][k] for j in range(r)) for k in range(r))
        if m != ident and m not in mats:
            mats.append(m)
    return tuple(mats)


def _closed_under(mats, diag, rows, r) -> bool:
    # is the lattice spanned by `rows` closed under every matrix in mats?
    for mat in mats:
        for i_h in range(r):
            h = rows[i_h]
            cols = range(i_h, r)  # h starts with i_h zeros
            w = [sum(mk[j] * h[j] for j in cols) for mk in mat]
            for j in range(r):
                t = w[j]
                if t:
                    q, rem = divmod(t, diag[j])
                    if rem:
                        return False
                    row = rows[j]
                    for k in range(j + 1, r):
                        w[k] -= q * row[k]
    return True


@lru_cache(maxsize=None)
def count_left_ideals(order: IntegralOrder, index: int) -> int:
    """Number of index-`index` sublattices of the order closed under left
    multiplication by every basis element."""
    if index < 1:
        raise ValueError("index must be positive")
    if index == 1:
        return 1
    mats = _mult_matrices(order)
    r = order.rank
    count = 0
    for diag, rows in _raw_sublattices(r, index):
        if _closed_under(mats, diag, rows, r):
            count += 1
    return count


def _check_budget(rank: int, bound: int, prime_powers_only: bool) -> None:
    """Refuse a census over more than CENSUS_BUDGET sublattices of Z^rank.

    Z^rank has as many sublattices of index p^k as the u^k coefficient of
    the Hey factor of Z_p^rank, and the count is multiplicative in the
    index, so the total is known before anything is enumerated.
    """
    hey = {}
    total = 0
    for n in range(2, bound + 1):
        parts = factorize(n)
        if prime_powers_only and len(parts) > 1:
            continue
        count = 1
        for p, k in parts.items():
            if p not in hey:
                hey[p] = hey_local_factor(HeyComponent(1, 1, rank, PadicRing(p)))
            count *= hey[p].expand(k)[k]
        total += count
        if total > CENSUS_BUDGET:
            raise ValueError(
                f"a census up to index {bound} enumerates more than "
                f"{CENSUS_BUDGET:,} sublattices of Z^{rank}"
            )


def ideal_series(
    order: IntegralOrder, bound: int, prime_powers_only: bool = False
) -> DirichletCoefficients:
    """Ideal counts a_1..a_bound of the order.

    With `prime_powers_only` the census runs only at prime-power indices
    and composite entries are filled in multiplicatively, which is valid
    because an ideal of finite index splits into its localizations; the
    direct mode counts every index and doubles as a test of that
    decomposition.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    _check_budget(order.rank, bound, prime_powers_only)
    if prime_powers_only:

        def local(p: int, k: int) -> list[int]:
            return [1] + [count_left_ideals(order, p**j) for j in range(1, k + 1)]

        return multiplicative_series(bound, local)
    values = [1] + [count_left_ideals(order, n) for n in range(2, bound + 1)]
    return DirichletCoefficients(bound, values)
