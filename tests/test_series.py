"""Local-factor and Dirichlet-series arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderzeta.series import (
    ONE,
    ZERO,
    DirichletCoefficients,
    LocalFactor,
    UPolynomial,
    euler_expand,
    monomial,
    poly_gcd,
)

U = UPolynomial
ONE_MINUS_U = U((1, -1))


def naive_convolution(a, b, upto):
    return [sum(a[j] * b[k - j] for j in range(k + 1) if j < len(a) and k - j < len(b))
            for k in range(upto + 1)]


# ---------------------------------------------------------------- polynomials

def test_trailing_zeros_stripped():
    assert U((1, 2, 0, 0)).coeffs == (1, 2)
    assert U((0, 0)).coeffs == ()
    assert U().is_zero


def test_polynomial_ring_ops():
    f = U((1, -1))
    assert f * f == U((1, -2, 1))
    assert f + U((0, 1)) == ONE
    assert f - f == ZERO
    assert (-f).coeffs == (-1, 1)
    assert 3 * f == U((3, -3))
    assert f**0 == ONE and f**3 == f * f * f
    assert monomial(2, 5) == U((0, 0, 5))
    assert f.shifted(2) == U((0, 0, 1, -1))


def test_exact_division():
    f = U((1, -1, 2)) * U((1, -1))
    assert f.exact_div(U((1, -1))) == U((1, -1, 2))
    with pytest.raises(ValueError):
        U((1, 1)).exact_div(U((1, -1)))


def test_poly_gcd():
    f = U((1, -1)) * U((1, 0, 2))
    g = U((1, -1)) * U((1, 1))
    assert poly_gcd(f, g) == -ONE_MINUS_U  # positive leading coefficient
    assert poly_gcd(U((4,)), U((6, 2))) == U((2,))
    assert poly_gcd(ZERO, g).coeffs == poly_gcd(g, ZERO).coeffs


def test_polynomial_str():
    assert str(U((1, -1, 2))) == "1 - u + 2*u^2"
    assert str(ZERO) == "0"
    assert str(U((0, 1))) == "u"
    assert str(U((-1, 0, -3))) == "-1 - 3*u^2"


# --------------------------------------------------------------- local factors

def test_factor_requires_prime():
    with pytest.raises(ValueError):
        LocalFactor(4, ONE, ONE_MINUS_U)


def test_denominator_constant_term_invariant():
    with pytest.raises(ValueError):
        LocalFactor(2, ONE, U((2, -1)))
    # joint content is cancelled before the check
    f = LocalFactor(2, U((2,)), U((2, -2)))
    assert f.num == ONE and f.den == ONE_MINUS_U
    # constant -1 denominators are normalized to +1
    g = LocalFactor(2, ONE, U((-1, 1)))
    assert g.den == ONE_MINUS_U and g.num == U((-1,))


def test_mul_formal_product():
    f = LocalFactor(2, ONE, ONE_MINUS_U)
    prod = f * f
    assert prod.num == ONE and prod.den == U((1, -2, 1))


def test_mul_identity():
    f = LocalFactor(3, U((1, -1, 3)), ONE_MINUS_U * ONE_MINUS_U)
    assert f * LocalFactor.one(3) == f


def test_mul_cancels_common_factor():
    # oracle: polynomial long division
    f = LocalFactor(2, U((1, -1, 2)), ONE_MINUS_U * ONE_MINUS_U)
    g = LocalFactor(2, ONE_MINUS_U, ONE)
    prod = f * g
    raw_num = U((1, -1, 2)) * ONE_MINUS_U
    raw_den = ONE_MINUS_U * ONE_MINUS_U
    assert prod.num == raw_num.exact_div(ONE_MINUS_U)
    assert prod.den == raw_den.exact_div(ONE_MINUS_U)
    assert prod == LocalFactor(2, U((1, -1, 2)), ONE_MINUS_U)


def test_mul_mismatched_primes():
    with pytest.raises(ValueError):
        LocalFactor.one(2) * LocalFactor.one(3)


def test_expand_geometric():
    assert LocalFactor(2, ONE, ONE_MINUS_U).expand(4) == [1, 1, 1, 1, 1]


def test_expand_solomon_two_local():
    # oracle: convolution of (1, -1, 2) with 1/(1-u)^2 = (1, 2, 3, 4, ...)
    f = LocalFactor(2, U((1, -1, 2)), ONE_MINUS_U * ONE_MINUS_U)
    expected = naive_convolution([1, -1, 2], [1, 2, 3, 4], 3)
    assert expected == [1, 1, 3, 5]  # = ideal counts of Z C_2 at 2^k (census)
    assert f.expand(3) == expected


def test_expand_nilpotent_case():
    # oracle: convolution of (1, 0, 2, 0, 4) with the all-ones series
    f = LocalFactor(2, ONE, U((1, 0, -2)) * ONE_MINUS_U)
    expected = naive_convolution([1, 0, 2, 0, 4], [1] * 5, 4)
    assert expected == [1, 1, 3, 3, 7]
    assert f.expand(4) == expected


# ---------------------------------------------------- hypothesis: local factors

small_ints = st.integers(min_value=-5, max_value=5)


def factors(prime=2):
    num = st.lists(small_ints, min_size=1, max_size=5).map(
        lambda c: U([max(c[0], 1)] + c[1:])  # positive constant term
    )
    den = st.lists(small_ints, min_size=1, max_size=4).map(
        lambda c: U([1] + c[1:])
    )
    return st.tuples(num, den).map(lambda nd: LocalFactor(prime, nd[0], nd[1]))


@given(factors(), st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_expansion_prefix_property(f, k1, k2):
    if k1 > k2:
        k1, k2 = k2, k1
    assert f.expand(k2)[: k1 + 1] == f.expand(k1)


@given(factors(), factors(), st.integers(min_value=0, max_value=6))
def test_product_expands_to_convolution(a, b, k):
    ea, eb = a.expand(k), b.expand(k)
    assert (a * b).expand(k) == naive_convolution(ea, eb, k)


@given(factors(), st.lists(small_ints, min_size=1, max_size=3))
@settings(max_examples=50)
def test_gcd_reduction_preserves_expansion(f, gcoeffs):
    # multiplying num and den by a common polynomial with unit constant term
    # must not change the expansion (the constructor reduces it away)
    g = U([1] + gcoeffs[1:])
    blown = LocalFactor(f.prime, f.num * g, f.den * g)
    assert blown.expand(8) == f.expand(8)
    assert blown == f


# ------------------------------------------------------------ Dirichlet series

def test_coefficients_invariants():
    with pytest.raises(ValueError):
        DirichletCoefficients(3, (2, 1, 1))  # a_1 != 1
    with pytest.raises(ValueError):
        DirichletCoefficients(3, (1, 1))  # wrong length
    s = DirichletCoefficients(3, (1, 5, 7))
    assert s[1] == 1 and s[3] == 7
    with pytest.raises(IndexError):
        s[4]


def test_euler_expand_riemann():
    factors_map = {p: LocalFactor(p, ONE, ONE_MINUS_U) for p in (2, 3, 5, 7)}
    assert euler_expand(factors_map.get, 10).values == (1,) * 10


def test_euler_expand_divisor_counts():
    factors_map = {
        p: LocalFactor(p, ONE, ONE_MINUS_U * ONE_MINUS_U) for p in (2, 3, 5, 7, 11)
    }
    series = euler_expand(factors_map.get, 12)
    divisor_counts = [sum(1 for d in range(1, n + 1) if n % d == 0) for n in range(1, 13)]
    assert list(series.values) == divisor_counts
    assert series[12] == 6


def test_euler_expand_sigma():
    # zeta of the rank-2 free lattice; oracle = the HNF census
    from orderzeta.census import enumerate_sublattices

    factors_map = {
        p: LocalFactor(p, ONE, ONE_MINUS_U * U((1, -p))) for p in (2, 3, 5)
    }
    series = euler_expand(factors_map.get, 6)
    counted = [sum(1 for _ in enumerate_sublattices(2, n)) for n in range(1, 7)]
    assert list(series.values) == counted
    assert series[6] == 12


def test_euler_expand_missing_prime():
    with pytest.raises(ValueError, match="no local factor"):
        euler_expand({2: LocalFactor(2, ONE, ONE_MINUS_U)}.get, 10)


def test_euler_expand_rejects_misfiled_factor():
    good = {p: LocalFactor(p, ONE, ONE_MINUS_U) for p in (2, 3)}
    good[3] = LocalFactor(5, ONE, ONE_MINUS_U)
    with pytest.raises(ValueError, match="attached to the prime"):
        euler_expand(good.get, 3)


def test_euler_expand_rejects_wrong_unit_coefficient():
    factors_map = {2: LocalFactor(2, U((3,)), ONE_MINUS_U)}
    with pytest.raises(ValueError, match="a_1"):
        euler_expand(factors_map.get, 2)


def test_euler_expand_multiplicative():
    from math import gcd

    factors_map = {
        p: LocalFactor(p, U((1, -1, p)), ONE_MINUS_U * ONE_MINUS_U)
        for p in (2, 3, 5, 7, 11, 13, 17, 19)
    }
    series = euler_expand(factors_map.get, 20)
    for m in range(1, 21):
        for n in range(1, 21):
            if m * n <= 20 and gcd(m, n) == 1:
                assert series[m * n] == series[m] * series[n]
