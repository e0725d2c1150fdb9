"""Prime splitting and Dedekind series for the supported fields."""

import pytest

from orderzeta.arith import multiplicative_order, primes_upto
from orderzeta.catalog import GlobalZeta, expand_global
from orderzeta.census import ideal_series
from orderzeta.numfields import (
    RATIONAL,
    cyclotomic,
    dedekind_local_factor,
    splitting,
)
from orderzeta.orders import ring_of_integers_order
from orderzeta.series import ONE, LocalFactor, UPolynomial, euler_expand


def test_descriptor_normalization():
    assert cyclotomic(2) == RATIONAL
    assert cyclotomic(2).is_rational
    assert cyclotomic(5).degree == 4
    assert RATIONAL.degree == 1
    with pytest.raises(ValueError):
        cyclotomic(6)
    assert str(cyclotomic(7)) == "Q(e_7)"


def test_splitting_examples():
    assert splitting(cyclotomic(3), 2) == ((1, 2),)
    assert splitting(cyclotomic(5), 5) == ((4, 1),)
    # order of 2 mod 7 is 3 (2, 4, 1), so two primes of degree 3
    assert multiplicative_order(2, 7) == 3
    assert splitting(cyclotomic(7), 2) == ((1, 3), (1, 3))
    assert splitting(RATIONAL, 11) == ((1, 1),)
    with pytest.raises(ValueError):
        splitting(RATIONAL, 6)


def test_splitting_degree_identity():
    fields = [RATIONAL, cyclotomic(3), cyclotomic(5), cyclotomic(7), cyclotomic(11)]
    for field in fields:
        for p in primes_upto(100):
            pairs = splitting(field, p)
            assert sum(e * f for e, f in pairs) == field.degree


def test_unramified_away_from_conductor():
    for ell in (3, 5, 7):
        field = cyclotomic(ell)
        for p in primes_upto(100):
            for e, _f in splitting(field, p):
                assert e == (ell - 1 if p == ell else 1)


def test_dedekind_local_factors():
    one_minus_u = UPolynomial((1, -1))
    assert dedekind_local_factor(RATIONAL, 5) == LocalFactor(5, ONE, one_minus_u)
    assert dedekind_local_factor(cyclotomic(3), 2) == LocalFactor(
        2, ONE, UPolynomial((1, 0, -1))
    )
    # 7 = 1 mod 3 splits completely
    assert dedekind_local_factor(cyclotomic(3), 7) == LocalFactor(
        7, ONE, one_minus_u * one_minus_u
    )


def test_dedekind_series_rationals():
    assert expand_global(GlobalZeta(((RATIONAL, 1),)), 10).values == (1,) * 10
    d = expand_global(GlobalZeta(((RATIONAL, 2),)), 12)
    divisor_counts = [sum(1 for k in range(1, n + 1) if n % k == 0) for n in range(1, 13)]
    assert list(d.values) == divisor_counts


def test_dedekind_series_rational_power_matches_euler_expand():
    for r in (1, 2, 3):
        series = expand_global(GlobalZeta(((RATIONAL, r),)), 15)
        factors = {
            p: LocalFactor(p, ONE, UPolynomial((1, -1)) ** r) for p in primes_upto(15)
        }
        assert series == euler_expand(factors.get, 15)


def test_dedekind_series_eisenstein_vs_ideal_census():
    # ideals of Z[e_3] of index n, counted by brute force on the rank-2 order
    series = expand_global(GlobalZeta(((cyclotomic(3), 1),)), 7)
    census = ideal_series(ring_of_integers_order(cyclotomic(3)), 7)
    assert series == census
    assert list(series.values) == [1, 0, 1, 1, 0, 0, 2]
    assert series[3] == 1 and series[4] == 1 and series[7] == 2
