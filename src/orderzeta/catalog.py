"""Global zeta functions assembled from Dedekind components and exceptional
local factors.

A catalog entry bundles the Wedderburn components of an order, its
bad-prime set in closed form and a local rule giving the closed-form
factor of the order over any supported p-adic coefficient ring; only
the census reads the order itself.  A GlobalZeta is the
expandable result: Dedekind components with multiplicities plus a finite
map of exceptional factors that fully replace the Dedekind local factors
at the bad primes.

Every construction is `tensor_global_zeta` over two catalog entries, the
only place where exceptional factors are assembled: a single order is its
tensor product with the maximal order of Q, and a rank-2 scheme ring with
coefficients in the ring of integers of F is its tensor product with the
maximal order of F.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .arith import factorize, is_prime
from .localfactors import (
    PadicRing,
    cyclic_prime_local_factor,
    rank2_scheme_local_factor,
)
from .numfields import (
    RATIONAL,
    FieldDescriptor,
    cyclotomic,
    dedekind_local_factor,
    splitting,
)
from .orders import IntegralOrder, order_from_scheme, ring_of_integers_order
from .schemes import complete_graph_table, cyclic_group_scheme
from .series import DirichletCoefficients, LocalFactor, euler_expand


class NotLocallyCoprimeError(ValueError):
    """Tensor factors share a bad prime, so the product formula does not apply."""


class CompositumError(ValueError):
    """A pairwise compositum of Wedderburn components is not representable
    (both sides are nontrivial cyclotomic fields)."""


class UnsupportedCoefficientRingError(ValueError):
    """A local rule was asked for a coefficient ring it has no closed form for."""


@dataclass(frozen=True, eq=False)
class OrderCatalogEntry:
    """A named order with everything needed for global zeta assembly; the
    order itself is built only when read."""

    name: str
    wedderburn: tuple[FieldDescriptor, ...]
    bad_primes: frozenset[int]
    local_rule: Callable[[PadicRing], LocalFactor]
    build_order: Callable[[], IntegralOrder]

    @cached_property
    def order(self) -> IntegralOrder:
        return self.build_order()


@dataclass(frozen=True, slots=True, eq=False)
class GlobalZeta:
    """Dedekind components (field, multiplicity) plus exceptional local factors.

    At a prime in `exceptional` the stored factor is the complete local
    factor; everywhere else the local factor is the product of the
    Dedekind factors of the components.
    """

    components: tuple[tuple[FieldDescriptor, int], ...]
    exceptional: dict[int, LocalFactor] = field(default_factory=dict)

    def local_factor(self, p: int) -> LocalFactor:
        if p in self.exceptional:
            return self.exceptional[p]
        out = LocalFactor.one(p)
        for f, mult in self.components:
            out = out * dedekind_local_factor(f, p) ** mult
        return out

    @property
    def degree(self) -> int:
        return sum(f.degree * mult for f, mult in self.components)


def maximal_order_catalog(field: FieldDescriptor) -> OrderCatalogEntry:
    """The ring of integers of a supported field: no bad primes, so its zeta
    is the Dedekind zeta of the field.  Q gives the rank-1 order Z."""

    def rule(ring: PadicRing) -> LocalFactor:
        raise UnsupportedCoefficientRingError(
            f"the maximal order of {field} has no bad primes"
        )

    return OrderCatalogEntry(
        name=f"O_{field}",
        wedderburn=(field,),
        bad_primes=frozenset(),
        local_rule=rule,
        build_order=lambda: ring_of_integers_order(field),
    )


def complete_graph_catalog(n: int) -> OrderCatalogEntry:
    """Rank-2 scheme ring of order n: components Q + Q, bad primes the prime
    divisors of n (its discriminant is n^2), local rule the rank-2 closed
    form over any p-adic ring."""
    if n < 2:
        raise ValueError("complete graph scheme needs n >= 2")

    def rule(ring: PadicRing) -> LocalFactor:
        return rank2_scheme_local_factor(ring, n)

    return OrderCatalogEntry(
        name=f"K{n}",
        wedderburn=(RATIONAL, RATIONAL),
        bad_primes=frozenset(factorize(n)),
        local_rule=rule,
        build_order=lambda: IntegralOrder(2, complete_graph_table(n), (1, 0)),
    )


def cyclic_prime_catalog(p: int) -> OrderCatalogEntry:
    """Group ring of the cyclic group of prime order p.

    Components Q + Q(e_p), single bad prime p (its discriminant is
    +-p^p).  The local rule only knows the unramified degree-1
    coefficient ring Z_p; no closed form is implemented over larger
    extensions, and asking for one raises.
    p = 2 coincides with the rank-2 scheme of order 2.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return complete_graph_catalog(2)

    def rule(ring: PadicRing) -> LocalFactor:
        if ring.prime != p:
            raise UnsupportedCoefficientRingError(
                f"rule of C_{p} asked at the prime {ring.prime}"
            )
        if (ring.ramification, ring.residue_degree) != (1, 1):
            raise UnsupportedCoefficientRingError(
                f"no closed form for C_{p} over a coefficient ring with "
                f"e = {ring.ramification}, f = {ring.residue_degree}"
            )
        return cyclic_prime_local_factor(p)

    return OrderCatalogEntry(
        name=f"C{p}",
        wedderburn=(RATIONAL, cyclotomic(p)),
        bad_primes=frozenset({p}),
        local_rule=rule,
        build_order=lambda: order_from_scheme(cyclic_group_scheme(p)),
    )


def global_zeta(entry: OrderCatalogEntry) -> GlobalZeta:
    """Zeta of a catalog entry over Z: its tensor product with Z."""
    return tensor_global_zeta(entry, maximal_order_catalog(RATIONAL))


def _compositum(a: FieldDescriptor, b: FieldDescriptor) -> FieldDescriptor:
    if a.is_rational:
        return b
    if b.is_rational:
        return a
    raise CompositumError(
        f"compositum of {a} and {b} is not representable here; "
        "at least one tensor factor must have all-rational components "
        "alongside any cyclotomic one"
    )


def tensor_global_zeta(a: OrderCatalogEntry, b: OrderCatalogEntry) -> GlobalZeta:
    """Zeta of the tensor product of two locally coprime catalog entries.

    Components are the pairwise composita.  At a bad prime p of `a`, the
    completion of the other factor is maximal and splits into local rings
    R with (e, f) given by the splitting of b's components at p, so the
    local factor is the product of a's rule over those rings; bad primes
    of `b` are handled symmetrically.
    """
    shared = a.bad_primes & b.bad_primes
    if shared:
        raise NotLocallyCoprimeError(
            f"tensor factors are not locally coprime: both are bad at "
            f"{sorted(shared)}; the product formula needs at least one factor "
            f"maximal at every prime"
        )
    components = tuple(
        Counter(
            _compositum(fa, fb) for fa in a.wedderburn for fb in b.wedderburn
        ).items()
    )
    exceptional: dict[int, LocalFactor] = {}
    for entry, other in ((a, b), (b, a)):
        for p in sorted(entry.bad_primes):
            factor = LocalFactor.one(p)
            for f_other in other.wedderburn:
                for e, f in splitting(f_other, p):
                    factor = factor * entry.local_rule(PadicRing(p, e, f))
            exceptional[p] = factor
    return GlobalZeta(components, exceptional)


def rank2_over_field(n: int, coeff_field: FieldDescriptor) -> GlobalZeta:
    """Zeta of the rank-2 scheme ring of order n with coefficients extended to
    the ring of integers of a supported field F: the tensor product of the
    scheme ring with the maximal order of F.

    Components are two copies of F; at each rational prime p dividing n the
    local factor is the product of the rank-2 closed forms over the
    completions of F above p.
    """
    return tensor_global_zeta(
        complete_graph_catalog(n), maximal_order_catalog(coeff_field)
    )


def expand_global(zeta: GlobalZeta, bound: int) -> DirichletCoefficients:
    """Dirichlet coefficients a_1..a_bound of a global zeta function; each
    local factor is built when it is read and dropped after."""
    return euler_expand(zeta.local_factor, bound)
