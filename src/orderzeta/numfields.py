"""Symbolic number fields with explicit prime-splitting rules.

Only the rationals and prime-order cyclotomic fields are supported: those
are the Wedderburn centers of every adjacency algebra assembled in this
package.  Splitting in Q(e_l) is decided by the order of p mod l, so no
polynomial factorization is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_prime, multiplicative_order
from .series import ONE, LocalFactor, monomial


@dataclass(frozen=True, slots=True)
class FieldDescriptor:
    """The rationals (cyclotomic_prime = None) or Q(e_l) for a prime l.

    l = 2 collapses to the rationals at construction (e_2 = -1).
    """

    cyclotomic_prime: int | None = None

    def __post_init__(self):
        ell = self.cyclotomic_prime
        if ell is not None:
            if not is_prime(ell):
                raise ValueError(f"cyclotomic order must be prime, got {ell}")
            if ell == 2:
                object.__setattr__(self, "cyclotomic_prime", None)

    @property
    def is_rational(self) -> bool:
        return self.cyclotomic_prime is None

    @property
    def degree(self) -> int:
        return 1 if self.cyclotomic_prime is None else self.cyclotomic_prime - 1

    def __str__(self) -> str:
        return "Q" if self.is_rational else f"Q(e_{self.cyclotomic_prime})"


RATIONAL = FieldDescriptor()


def cyclotomic(ell: int) -> FieldDescriptor:
    """The field of l-th roots of unity for a prime l (l = 2 gives Q)."""
    return FieldDescriptor(ell)


def splitting(field: FieldDescriptor, p: int) -> tuple[tuple[int, int], ...]:
    """Decomposition of p in `field`: one (ramification index, residue degree)
    pair per prime of the field above p; the e*f sum to the field degree.

    In Q(e_l): p = l is totally ramified; p != l is unramified with residue
    degree f = ord(p mod l) and (l-1)/f primes above p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ell = field.cyclotomic_prime
    if ell is None:
        return ((1, 1),)
    if p == ell:
        return ((ell - 1, 1),)
    f = multiplicative_order(p, ell)
    g = (ell - 1) // f
    return ((1, f),) * g


def dedekind_local_factor(field: FieldDescriptor, p: int) -> LocalFactor:
    """Local Dedekind factor at p: product of (1 - u^f)^{-1} over the primes above p."""
    den = ONE
    for _e, f in splitting(field, p):
        den = den * (ONE - monomial(f))
    return LocalFactor(p, ONE, den)
