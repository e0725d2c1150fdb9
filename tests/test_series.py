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


# ------------------------------------------------------ segmented fill

def varied_local(p, k):
    # zeros, signs and large entries, all different per prime
    return [1] + [((p * j) % 7 - 3) * p**j for j in range(1, k + 1)]


def naive_multiplicative(bound, local):
    from orderzeta.arith import factorize, primes_upto

    def largest_exponent(p):
        k = 1
        while p ** (k + 1) <= bound:
            k += 1
        return k

    series = {p: local(p, largest_exponent(p)) for p in primes_upto(bound)}
    values = []
    for n in range(1, bound + 1):
        a = 1
        for p, v in (factorize(n).items() if n > 1 else ()):
            a *= series[p][v]
        values.append(a)
    return values, [(p, len(c) - 1) for p, c in series.items()]


# with blocks of 7 the block edges are 7, 14, 21, ...; 61 is prime, 49 = 7^2,
# 121 = 11^2, and at 60 the prime 11 > sqrt(60) has multiples 22..55 in
# later blocks
@pytest.mark.parametrize(
    "bound", [1, 2, 3, 6, 7, 8, 13, 14, 15, 48, 49, 50, 60, 61, 120, 121, 122, 500]
)
def test_segmented_fill_matches_the_whole_table(monkeypatch, bound):
    import orderzeta.series as series_mod
    from orderzeta.series import multiplicative_values

    monkeypatch.setattr(series_mod, "FILL_BLOCK", 7)
    calls = []

    def local(p, k):
        calls.append((p, k))
        return varied_local(p, k)

    expected, expected_calls = naive_multiplicative(bound, varied_local)
    assert list(multiplicative_values(bound, local)) == expected
    assert calls == expected_calls


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 400), st.integers(1, 40))
def test_segmented_fill_for_any_block_size(bound, block):
    from unittest import mock

    import orderzeta.series as series_mod
    from orderzeta.series import multiplicative_series

    expected, _ = naive_multiplicative(bound, varied_local)
    with mock.patch.object(series_mod, "FILL_BLOCK", block):
        assert list(multiplicative_series(bound, varied_local).values) == expected


def test_segmented_fill_reads_each_prime_in_the_block_of_its_first_multiple(monkeypatch):
    import orderzeta.series as series_mod
    from orderzeta.arith import factorize
    from orderzeta.series import multiplicative_values

    monkeypatch.setattr(series_mod, "FILL_BLOCK", 7)
    read = []

    def local(p, k):
        read.append(p)
        return [1] * (k + 1)

    for n, _ in enumerate(multiplicative_values(100, local), start=1):
        block_end = (n - 1) // 7 * 7 + 7
        assert set(factorize(n) if n > 1 else ()) <= set(read)
        assert max(read, default=0) <= block_end


def test_segmented_fill_memory_does_not_hold_the_table():
    import tracemalloc

    from orderzeta.series import multiplicative_values

    tracemalloc.start()
    try:
        for _ in multiplicative_values(10**5, lambda p, k: [1] * (k + 1)):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole-table fill peaked near 6 MB at this bound
    assert peak < 1 << 20


def test_euler_values_checks_each_factor_as_it_is_read(monkeypatch):
    import orderzeta.series as series_mod
    from orderzeta.series import euler_values

    monkeypatch.setattr(series_mod, "FILL_BLOCK", 4)
    factors_map = {p: LocalFactor(p, ONE, ONE_MINUS_U) for p in (2, 3, 5)}
    values = euler_values(factors_map.get, 10)
    assert [next(values) for _ in range(4)] == [1, 1, 1, 1]
    with pytest.raises(ValueError, match="no local factor assigned to the prime 7"):
        next(values)
