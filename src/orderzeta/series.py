"""Exact Euler-product arithmetic.

Everything is written in the variable u = p^{-s}: a local factor at the
prime p is a rational function num(u)/den(u) with integer coefficients,
and a power q^{a-bs} with q = p^f enters as q^a * u^{fb}.  The complex
variable s itself is never represented; all computations are integer
exact.

An Euler product is expanded into a_1..a_N by one segmented fill,
`multiplicative_values`, which yields the coefficients in order while
it sieves blocks of FILL_BLOCK numbers.  It keeps the local series of
the primes up to sqrt(N) and, for the primes sqrt(N) < q <= N / 2, the
prime and a_q (16 bytes each for small a_q), not the table itself;
`DirichletCoefficients` holds a whole table where a caller needs one.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress
from math import gcd, isqrt
from operator import mul
from typing import Callable, Iterable, Iterator

from .arith import is_prime, primes_upto


class UPolynomial:
    """Dense integer polynomial in u, canonical (no trailing zero coefficients)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, UPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "UPolynomial":
        return UPolynomial(-c for c in self.coeffs)

    def __add__(self, other: "UPolynomial") -> "UPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPolynomial(out)

    def __sub__(self, other: "UPolynomial") -> "UPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return UPolynomial(other * c for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    out[i + j] += ci * cj
        return UPolynomial(out)

    def __rmul__(self, other: int) -> "UPolynomial":
        return self * other

    def __pow__(self, k: int) -> "UPolynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def shifted(self, k: int) -> "UPolynomial":
        """Multiply by u^k."""
        if self.is_zero:
            return self
        return UPolynomial((0,) * k + self.coeffs)

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "UPolynomial":
        c = self.content()
        if c in (0, 1):
            return self
        return UPolynomial(x // c for x in self.coeffs)

    def exact_div(self, other: "UPolynomial") -> "UPolynomial":
        """Exact quotient over Z; raises if other does not divide self."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return UPolynomial()
        rem = list(self.coeffs)
        dg, lead = other.degree, other.leading
        q = [0] * (len(rem) - dg)
        for i in range(len(rem) - 1, dg - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            if c % lead:
                raise ValueError("inexact polynomial division")
            f = c // lead
            q[i - dg] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - dg + j] -= f * oc
        if any(rem):
            raise ValueError("inexact polynomial division")
        return UPolynomial(q)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = "u" if mag == 1 else f"{mag}*u"
            else:
                term = f"u^{k}" if mag == 1 else f"{mag}*u^{k}"
            if not parts:
                parts.append(f"-{term}" if c < 0 else term)
            else:
                parts.append(f"- {term}" if c < 0 else f"+ {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"UPolynomial({list(self.coeffs)!r})"


ZERO = UPolynomial()
ONE = UPolynomial((1,))


def monomial(k: int, c: int = 1) -> UPolynomial:
    """c * u^k."""
    return UPolynomial((0,) * k + (c,))


def _pseudo_rem(f: UPolynomial, g: UPolynomial) -> UPolynomial:
    # lc(g)^k * f mod g, enough for a primitive remainder sequence
    lead = g.leading
    r = f
    while not r.is_zero and r.degree >= g.degree:
        r = r * lead - g.shifted(r.degree - g.degree) * r.leading
    return r


def poly_gcd(a: UPolynomial, b: UPolynomial) -> UPolynomial:
    """gcd in Z[u] via a primitive remainder sequence, positive leading coefficient."""
    if a.is_zero and b.is_zero:
        return ZERO
    if a.is_zero:
        a, b = b, a
    if b.is_zero:
        return a if a.leading > 0 else -a
    c = gcd(a.content(), b.content())
    f, g = a.primitive(), b.primitive()
    while not g.is_zero:
        f, g = g, _pseudo_rem(f, g).primitive()
    f = f * c
    return f if f.leading > 0 else -f


class LocalFactor:
    """Rational function in u = p^{-s} attached to a prime p.

    The denominator keeps constant term 1 after normalization, so the
    factor always has an integer power-series expansion.  Construction
    cancels the polynomial gcd of numerator and denominator; two factors
    compare equal exactly when they are equal as rational functions.
    """

    __slots__ = ("prime", "num", "den")

    def __init__(self, prime: int, num: UPolynomial, den: UPolynomial = ONE):
        if not is_prime(prime):
            raise ValueError(f"local factor needs a prime, got {prime}")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero and g != ONE:
            num = num.exact_div(g)
            den = den.exact_div(g)
        if den.constant_term not in (1, -1):
            raise ValueError(
                f"denominator constant term must be +-1, got {den.constant_term}"
            )
        if den.constant_term == -1:
            num, den = -num, -den
        self.prime = prime
        self.num = num
        self.den = den

    @classmethod
    def one(cls, prime: int) -> "LocalFactor":
        return cls(prime, ONE, ONE)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LocalFactor)
            and self.prime == other.prime
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.prime, self.num, self.den))

    def __mul__(self, other: "LocalFactor") -> "LocalFactor":
        if self.prime != other.prime:
            raise ValueError(f"mismatched primes: {self.prime} vs {other.prime}")
        return LocalFactor(self.prime, self.num * other.num, self.den * other.den)

    def __pow__(self, k: int) -> "LocalFactor":
        if k < 0:
            raise ValueError("negative power of a local factor")
        out = LocalFactor.one(self.prime)
        for _ in range(k):
            out = out * self
        return out

    def expand(self, upto: int) -> list[int]:
        """Coefficients c_0..c_upto of the power series num/den in u.

        Exact integer recurrence against the denominator; c_k is the count
        a_{p^k} when the factor is a local zeta factor.
        """
        if upto < 0:
            raise ValueError("expansion order must be nonnegative")
        n, d = self.num.coeffs, self.den.coeffs
        d0 = d[0]  # +-1 by the invariant
        out = []
        for k in range(upto + 1):
            acc = n[k] if k < len(n) else 0
            for j in range(1, min(k, len(d) - 1) + 1):
                acc -= d[j] * out[k - j]
            out.append(acc * d0)
        return out

    def __str__(self) -> str:
        num = str(self.num)
        if self.den == ONE:
            return num
        return f"({num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"LocalFactor(p={self.prime}, ({self.num}) / ({self.den}))"


class DirichletCoefficients:
    """Truncated Dirichlet series a_1..a_N with arbitrary-precision entries.

    Every series produced here counts sublattices or ideals, so a_1 = 1 is
    enforced at construction.
    """

    __slots__ = ("bound", "values")

    def __init__(self, bound: int, values: Iterable[int]):
        vals = tuple(int(v) for v in values)
        if bound < 1:
            raise ValueError("bound must be positive")
        if len(vals) != bound:
            raise ValueError(f"expected {bound} coefficients, got {len(vals)}")
        if vals[0] != 1:
            raise ValueError("a_1 must equal 1")
        self.bound = bound
        self.values = vals

    def __getitem__(self, n: int) -> int:
        """a_n, 1-indexed."""
        if not 1 <= n <= self.bound:
            raise IndexError(f"n = {n} outside 1..{self.bound}")
        return self.values[n - 1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirichletCoefficients)
            and self.bound == other.bound
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.bound, self.values))

    def __repr__(self) -> str:
        return f"DirichletCoefficients(N={self.bound}, {list(self.values)!r})"


# numbers per block of the segmented multiplicative fill
FILL_BLOCK = 1 << 14


def multiplicative_values(
    bound: int, local: Callable[[int, int], list[int]]
) -> Iterator[int]:
    """Yield a_1..a_bound of the multiplicative function with
    a_{p^j} = local(p, k)[j].

    `local` is called once per prime p <= bound, in increasing order, with
    k the largest exponent such that p^k <= bound, and before any a_n with
    p | n is yielded.  The values are sieved in blocks of FILL_BLOCK
    numbers.  Only the primes up to sqrt(bound) keep their local series.
    Every n <= bound has at most one prime factor q above sqrt(bound), to
    the first power, so of those primes only a_q is kept, and only for
    q <= bound / 2, which have a multiple still to come: the primes in a
    flat array searched by bisection, beside a list of their a_q.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    root = isqrt(bound)
    small = primes_upto(root)
    series: list[list[int]] = []  # local series of small[0], small[1], ...
    big_primes = array("q")  # the primes root < q <= bound / 2 read so far
    big_values: list[int] = []  # their a_q
    for lo in range(1, bound + 1, FILL_BLOCK):
        hi = min(lo + FILL_BLOCK, bound + 1)
        size = hi - lo
        while len(series) < len(small) and small[len(series)] < hi:
            p = small[len(series)]
            k, q = 1, p
            while q * p <= bound:
                q *= p
                k += 1
            series.append(local(p, k))
        values = [1] * size
        unsieved = bytearray([1]) * size  # no prime factor <= root found yet
        if lo == 1:
            unsieved[0] = 0  # n = 1
        for p, coeffs in zip(small, series):
            # a_{p^v} with v = v_p(n), for the multiples n of p in the block
            first = -lo % p
            count = len(range(first, size, p))
            unsieved[first::p] = bytes(count)
            factors = [coeffs[1]] * count
            q, j = p * p, 2
            while q < hi:
                # the multiples of q = p^j are every (q / p)-th of them
                t, step = (-lo % q - first) // p, q // p
                factors[t::step] = [coeffs[j]] * len(range(t, count, step))
                q *= p
                j += 1
            values[first::p] = map(mul, values[first::p], factors)
        # what the small primes leave are the primes q > root
        for q in compress(range(lo, hi), unsieved):
            a_q = local(q, 1)[1]
            values[q - lo] = a_q
            if 2 * q <= bound:
                big_primes.append(q)
                big_values.append(a_q)
        # and every other n has at most one prime factor q > root: n = m q
        for m in range(2, (hi - 1) // (root + 1) + 1):
            first = bisect_left(big_primes, -(-lo // m))
            last = bisect_right(big_primes, (hi - 1) // m, first)
            if first == last:
                continue
            for q, a_q in zip(big_primes[first:last], big_values[first:last]):
                values[m * q - lo] *= a_q
        yield from values


def multiplicative_series(
    bound: int, local: Callable[[int, int], list[int]]
) -> DirichletCoefficients:
    """The whole table of `multiplicative_values(bound, local)`."""
    return DirichletCoefficients(bound, multiplicative_values(bound, local))


def euler_values(
    factor_at: Callable[[int], LocalFactor | None], bound: int
) -> Iterator[int]:
    """Yield a_1..a_bound of an Euler product.

    `factor_at(p)` must give the local factor at every prime p <= bound
    (a mapping's `.get` will do); it is called once per prime, in
    increasing order, so a factor can be built when it is read.  The
    coefficient a_{p^k} is read off the factor at p and composite n are
    filled in multiplicatively, block by block as they are consumed.
    """

    def local(p: int, k: int) -> list[int]:
        f = factor_at(p)
        if f is None:
            raise ValueError(f"no local factor assigned to the prime {p}")
        if f.prime != p:
            raise ValueError(f"factor at key {p} is attached to the prime {f.prime}")
        coeffs = f.expand(k)
        if coeffs[0] != 1:
            raise ValueError(f"local factor at {p} has a_1 = {coeffs[0]}, expected 1")
        return coeffs

    return multiplicative_values(bound, local)


def euler_expand(
    factor_at: Callable[[int], LocalFactor | None], bound: int
) -> DirichletCoefficients:
    """The whole table of `euler_values(factor_at, bound)`."""
    return DirichletCoefficients(bound, euler_values(factor_at, bound))
