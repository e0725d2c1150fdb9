"""Integral orders: tables, tensor products, discriminants, bad primes."""

import pytest

from orderzeta.arith import factorize
from orderzeta.numfields import RATIONAL, cyclotomic
from orderzeta.orders import (
    IntegralOrder,
    bad_primes,
    discriminant,
    order_from_scheme,
    ring_of_integers_order,
    tensor_order,
)
from orderzeta.schemes import (
    complete_graph_scheme,
    cyclic_group_scheme,
    direct_product,
)

RANK_ONE = IntegralOrder(rank=1, table=(((1,),),), identity=(1,))


def shifted_rank2_order(n):
    """Z[x]/(x^2 - n x) on the basis 1, x."""
    return IntegralOrder(
        rank=2,
        table=(((1, 0), (0, 1)), ((0, 1), (0, n))),
        identity=(1, 0),
    )


# ------------------------------------------------------------- construction

def test_order_from_k2():
    order = order_from_scheme(complete_graph_scheme(2))
    assert order.rank == 2
    assert order.table[1][1] == (1, 0)  # sigma_1^2 = sigma_0
    assert order.identity == (1, 0)


def test_order_from_kn_quadratic_relation():
    for n in (3, 5, 7):
        order = order_from_scheme(complete_graph_scheme(n))
        assert order.table[1][1] == (n - 1, n - 2)


def test_order_from_c3():
    order = order_from_scheme(cyclic_group_scheme(3))
    assert order.rank == 3
    assert order.multiply((0, 1, 0), (0, 1, 0)) == (0, 0, 1)
    assert order.multiply((0, 1, 0), (0, 0, 1)) == (1, 0, 0)


def test_order_validation_rejects_nonassociative():
    # x * x = 1 + x but with a broken identity row
    with pytest.raises(ValueError):
        IntegralOrder(
            rank=2,
            table=(((1, 0), (0, 1)), ((0, 1), (1, 1))),
            identity=(0, 1),
        )
    # genuinely nonassociative table: b1 * b1 = b0, b1 * b0 = b1 except
    # table says b0 is not a two-sided unit
    with pytest.raises(ValueError):
        IntegralOrder(
            rank=2,
            table=(((1, 0), (0, 1)), ((1, 0), (1, 0))),
            identity=(1, 0),
        )


def test_multiply_bilinear():
    order = order_from_scheme(complete_graph_scheme(3))
    # (1 + 2 s)(3 + 4 s) = 3 + 10 s + 8 s^2 with s^2 = 2 + s
    assert order.multiply((1, 2), (3, 4)) == (3 + 8 * 2, 10 + 8 * 1)


# ------------------------------------------------------------------- tensor

def test_tensor_with_rank_one():
    order = order_from_scheme(complete_graph_scheme(3))
    assert tensor_order(order, RANK_ONE).table == order.table
    assert tensor_order(RANK_ONE, order).table == order.table


def test_tensor_matches_product_scheme():
    a, b = cyclic_group_scheme(2), cyclic_group_scheme(3)
    direct = order_from_scheme(direct_product(a, b))
    tens = tensor_order(order_from_scheme(a), order_from_scheme(b))
    assert direct == tens


def test_tensor_rank_multiplies():
    k2 = order_from_scheme(complete_graph_scheme(2))
    k3 = order_from_scheme(complete_graph_scheme(3))
    assert tensor_order(k2, k3).rank == 4


def test_tensor_associative_on_flattened_indices():
    k2 = order_from_scheme(complete_graph_scheme(2))
    c2 = order_from_scheme(cyclic_group_scheme(2))
    c3 = order_from_scheme(cyclic_group_scheme(3))
    assert tensor_order(tensor_order(k2, c2), c3) == tensor_order(
        k2, tensor_order(c2, c3)
    )


# ------------------------------------------------------------- discriminant

def test_discriminant_examples():
    assert discriminant(order_from_scheme(cyclic_group_scheme(2))) == 4
    assert discriminant(RANK_ONE) == 1
    for n in (2, 3, 4, 5, 6, 10):
        assert abs(discriminant(order_from_scheme(complete_graph_scheme(n)))) == n * n


def test_discriminant_eisenstein():
    assert discriminant(ring_of_integers_order(cyclotomic(3))) == -3
    assert discriminant(ring_of_integers_order(RATIONAL)) == 1


def test_discriminant_zero_for_nilpotent():
    assert discriminant(shifted_rank2_order(0)) == 0


def test_discriminant_of_tensor_has_union_support():
    pairs = [
        (order_from_scheme(cyclic_group_scheme(2)), order_from_scheme(cyclic_group_scheme(3))),
        (order_from_scheme(complete_graph_scheme(2)), order_from_scheme(complete_graph_scheme(3))),
        (ring_of_integers_order(cyclotomic(3)), order_from_scheme(complete_graph_scheme(2))),
    ]
    for a, b in pairs:
        support = set(factorize(discriminant(a))) | set(factorize(discriminant(b)))
        assert set(factorize(discriminant(tensor_order(a, b)))) == support


# --------------------------------------------------------------- bad primes

def test_bad_primes_examples():
    assert bad_primes(order_from_scheme(complete_graph_scheme(6))) == {2, 3}
    assert bad_primes(order_from_scheme(cyclic_group_scheme(3))) == {3}
    assert bad_primes(RANK_ONE) == frozenset()


def test_bad_primes_of_complete_graphs():
    for n in range(2, 31):
        order = order_from_scheme(complete_graph_scheme(n))
        assert bad_primes(order) == frozenset(factorize(n))


def test_bad_primes_rejects_degenerate():
    with pytest.raises(ValueError):
        bad_primes(shifted_rank2_order(0))


def test_locally_coprime():
    c3 = order_from_scheme(cyclic_group_scheme(3))
    c2 = order_from_scheme(cyclic_group_scheme(2))
    k2 = order_from_scheme(complete_graph_scheme(2))
    k4 = order_from_scheme(complete_graph_scheme(4))
    k9 = order_from_scheme(complete_graph_scheme(9))
    assert bad_primes(c3).isdisjoint(bad_primes(c2))
    assert bad_primes(k4).isdisjoint(bad_primes(k9))
    assert not bad_primes(c2).isdisjoint(bad_primes(k2))


# ----------------------------------------------------------- rings of integers

def test_ring_of_integers_cyclotomic_five():
    order = ring_of_integers_order(cyclotomic(5))
    assert order.rank == 4
    # e * e^3 = e^4 = -(1 + e + e^2 + e^3)
    assert order.multiply((0, 1, 0, 0), (0, 0, 0, 1)) == (-1, -1, -1, -1)
    # e^2 * e^3 = e^5 = 1
    assert order.multiply((0, 0, 1, 0), (0, 0, 0, 1)) == (1, 0, 0, 0)
    assert bad_primes(order) == {5}
