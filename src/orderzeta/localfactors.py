"""Closed-form local zeta factors.

Covers the rank-2 orders R[x]/(x(x-n)) over a p-adic ring of integers R
(including the degenerate n = 0, where the algebra is not semisimple),
the rank-2 scheme rings they model, the group ring Z_p C_p, and Hey's
formula for maximal orders in p-adic simple algebras.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import is_prime, valuation
from .series import ONE, ZERO, LocalFactor, UPolynomial, monomial


# valuation of n = 0: larger than every integer
INFINITE = math.inf

Valuation = int | float


@dataclass(frozen=True, slots=True)
class PadicRing:
    """Ring of integers of a p-adic field, known only through e and f.

    The residue field has p^residue_degree elements and the ramification
    index says pR = (pi^ramification); the uniformizer itself never
    appears in any formula.
    """

    prime: int
    ramification: int = 1
    residue_degree: int = 1

    def __post_init__(self):
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if self.ramification < 1 or self.residue_degree < 1:
            raise ValueError("ramification and residue degree must be >= 1")


@dataclass(frozen=True, slots=True)
class HeyComponent:
    """Simple component M_r(D) of a p-adic algebra, with the data Hey's formula needs:
    matrix size r, division-algebra index m, multiplicity k of the irreducible
    module in the lattice, and the center's ring of integers."""

    matrix_size: int
    division_index: int
    multiplicity: int
    center: PadicRing

    def __post_init__(self):
        if min(self.matrix_size, self.division_index, self.multiplicity) < 1:
            raise ValueError("Hey parameters must be >= 1")


def rank2_local_factor(ring: PadicRing, val: Valuation) -> LocalFactor:
    """Zeta factor of R[x]/(x(x-n)) as a rational function of u = p^{-s}.

    `val` is the p-adic valuation of n (INFINITE when n = 0).  With
    q = p^f and v = e*val the factor is

        [ (sum_{r2=0}^{v-1} q^{r2} u^{2f r2}) (1 - u^f) + q^v u^{2fv} ] / (1 - u^f)^2

    and in the n = 0 case (1 - q u^{2f})^{-1} (1 - u^f)^{-1}.
    """
    p, e, f = ring.prime, ring.ramification, ring.residue_degree
    q = p**f
    if val == INFINITE:
        den = (ONE - monomial(f)) * (ONE - monomial(2 * f, q))
        return LocalFactor(p, ONE, den)
    if not isinstance(val, int) or val < 0:
        raise ValueError(f"valuation must be a nonnegative integer or INFINITE: {val}")
    v = e * val
    geom = ZERO
    for r2 in range(v):
        geom = geom + monomial(2 * f * r2, q**r2)
    one_minus = ONE - monomial(f)
    num = geom * one_minus + monomial(2 * f * v, q**v)
    return LocalFactor(p, num, one_minus * one_minus)


def rank2_ideal_count(ring: PadicRing, val: Valuation, r1: int, r2: int) -> int:
    """Number of ideals of R[x]/(x(x-n)) generated by {pi^r1 + a x, pi^r2 x}.

    Counts the admissible a in R/pi^r2 R; summing over r1 + r2 = K gives
    the number of ideals of index p^{fK}, which is how the closed form
    above is cross-checked.
    """
    if r1 < 0 or r2 < 0:
        raise ValueError("exponents must be nonnegative")
    p, e, f = ring.prime, ring.ramification, ring.residue_degree
    q = p**f
    if val == INFINITE:
        return q**r2 if r1 >= r2 else 0
    if not isinstance(val, int) or val < 0:
        raise ValueError(f"valuation must be a nonnegative integer or INFINITE: {val}")
    v = e * val
    if r2 < v:
        return q**r2 if r1 >= r2 else 0
    return q**v if r1 >= v else 0


def rank2_scheme_local_factor(ring: PadicRing, n: int) -> LocalFactor:
    """Local zeta factor of the rank-2 scheme ring of order n over R.

    The nonidentity basis element satisfies x^2 = (n-1) + (n-2)x; after
    the shift x -> x - 1 the ring is R[x]/(x(x-n)), so this is the rank-2
    factor at the valuation of n.  Primes not dividing n give the maximal
    factor (1 - u^f)^{-2}.
    """
    if n < 1:
        raise ValueError("scheme order must be positive")
    return rank2_local_factor(ring, valuation(n, ring.prime))


def cyclic_prime_local_factor(p: int) -> LocalFactor:
    """Full local factor of Z_p C_p at p: (1 - u + p u^2) / (1 - u)^2.

    The two Dedekind parts both contribute (1 - u)^{-1} at p (the rational
    one directly, the cyclotomic one by total ramification), and the scalar
    correction is 1 - u + p u^2.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    num = UPolynomial((1, -1, p))
    den = UPolynomial((1, -1)) ** 2
    return LocalFactor(p, num, den)


def hey_local_factor(component: HeyComponent) -> LocalFactor:
    """Hey's formula for one simple component.

    With q = p^f of the center, r the matrix size, m the division index
    and k the multiplicity:

        prod_{j=0}^{k-1} (1 - q^{j m} u^{f r m})^{-1}
    """
    p = component.center.prime
    f = component.center.residue_degree
    q = p**f
    r, m, k = component.matrix_size, component.division_index, component.multiplicity
    step = f * r * m
    den = ONE
    for j in range(k):
        den = den * (ONE - monomial(step, q ** (j * m)))
    return LocalFactor(p, ONE, den)
