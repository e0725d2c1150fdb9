"""The brute-force sublattice and ideal census."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderzeta.census import (
    CENSUS_BUDGET,
    HnfBasis,
    _generator_tables,
    _sublattice_count,
    check_budget,
    count_left_ideals,
    enumerate_sublattices,
    ideal_series,
)
from orderzeta.catalog import (
    complete_graph_catalog,
    cyclic_prime_catalog,
    maximal_order_catalog,
)
from orderzeta.localfactors import HeyComponent, PadicRing, hey_local_factor
from orderzeta.numfields import cyclotomic
from orderzeta.orders import IntegralOrder, order_from_scheme, tensor_order
from orderzeta.schemes import complete_graph_scheme, cyclic_group_scheme

ZC2 = order_from_scheme(cyclic_group_scheme(2))


def nilpotent_rank2():
    return IntegralOrder(
        rank=2, table=(((1, 0), (0, 1)), ((0, 1), (0, 0))), identity=(1, 0)
    )


def upper_triangular():
    # Z-span of E11, E12, E22 in 2x2 integer matrices: not commutative
    e0, e1, e2, z = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    return IntegralOrder(3, ((e0, e1, z), (z, z, e1), (z, z, e2)), (1, 0, 1))


# -------------------------------------------------------------------- HNF

def test_hnf_invariants_enforced():
    with pytest.raises(ValueError):
        HnfBasis(((1, 0), (1, 2)))  # not upper triangular
    with pytest.raises(ValueError):
        HnfBasis(((-1, 0), (0, 1)))  # nonpositive diagonal
    with pytest.raises(ValueError):
        HnfBasis(((1, 5), (0, 2)))  # unreduced above the pivot
    basis = HnfBasis(((1, 1), (0, 2)))
    assert basis.index == 2 and basis.diagonal == (1, 2)


def test_hnf_membership():
    basis = HnfBasis(((1, 1), (0, 2)))
    assert basis.contains((1, 1))
    assert basis.contains((2, 0))  # 2*(1,1) - (0,2)
    assert not basis.contains((1, 0))
    assert not basis.contains((0, 1))


def test_enumerate_counts_small():
    assert [sum(1 for _ in enumerate_sublattices(2, p)) for p in (2, 3, 5)] == [3, 4, 6]
    assert sum(1 for _ in enumerate_sublattices(3, 2)) == 7
    for r in (1, 2, 4):
        assert list(enumerate_sublattices(r, 1)) == [
            HnfBasis(tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r)))
        ]


def test_enumerate_distinct_and_deterministic():
    run1 = list(enumerate_sublattices(3, 8))
    run2 = list(enumerate_sublattices(3, 8))
    assert run1 == run2
    assert len(set(run1)) == len(run1)
    assert all(b.index == 8 for b in run1)


def test_enumerate_order_is_lexicographic_in_diagonal():
    diags = [b.diagonal for b in enumerate_sublattices(2, 4)]
    assert diags == [(1, 4)] * 4 + [(2, 2)] * 2 + [(4, 1)]


def test_enumerate_matches_hey_factor():
    # classical sublattice zeta of Z^r: prod_{j<r} (1 - p^j u)^{-1}
    for r in (1, 2, 3):
        for p in (2, 3):
            coeffs = hey_local_factor(
                HeyComponent(1, 1, r, PadicRing(p))
            ).expand(3)
            counts = [
                sum(1 for _ in enumerate_sublattices(r, p**k)) for k in range(4)
            ]
            assert counts == coeffs


def test_budget_count_is_the_hey_coefficient_capped():
    for r in range(1, 8):
        for p in (2, 3, 5):
            coeffs = hey_local_factor(HeyComponent(1, 1, r, PadicRing(p))).expand(10)
            capped = [min(c, CENSUS_BUDGET + 1) for c in coeffs]
            assert [_sublattice_count(r, p, k) for k in range(11)] == capped


def test_budget_check_refuses_a_large_rank_at_once():
    # Z^1994 has 2^1994 - 1 sublattices of index 2
    with pytest.raises(ValueError, match="sublattices of Z\\^1994"):
        check_budget(1994, 2, prime_powers_only=False)
    check_budget(23, 2, prime_powers_only=False)  # 2^23 - 1 fits


# ------------------------------------------------------------------ ideals

def test_ideal_count_index_two():
    # only <1 + x, 2x> survives closure under x with x^2 = 1
    assert count_left_ideals(ZC2, 2) == 1


def test_ideal_count_index_one():
    for order in (ZC2, nilpotent_rank2()):
        assert count_left_ideals(order, 1) == 1


def test_ideal_count_nilpotent_matches_formula():
    from orderzeta.localfactors import INFINITE, rank2_local_factor

    order = nilpotent_rank2()
    for p in (2, 3):
        coeffs = rank2_local_factor(PadicRing(p), INFINITE).expand(5)
        counted = [count_left_ideals(order, p**k) for k in range(6)]
        assert counted == coeffs


def test_ideal_count_below_sublattice_count():
    for n in (1, 2, 3, 4, 6):
        total = sum(1 for _ in enumerate_sublattices(2, n))
        ideals = count_left_ideals(ZC2, n)
        assert ideals <= total
        if n == 1:
            assert ideals == total


def test_right_closure_agrees_on_commutative_orders():
    # all catalog orders are commutative, so left closure is enough; check
    # the table symmetry and an explicit right-closure pass on Z C_2
    assert ZC2.is_commutative()
    mats = [
        tuple(tuple(ZC2.table[j][i][k] for j in range(2)) for k in range(2))
        for i in range(2)
    ]
    for n in (2, 3, 4, 6, 8):
        right_closed = 0
        for basis in enumerate_sublattices(2, n):
            ok = True
            for mat in mats:
                for row in basis.rows:
                    image = tuple(
                        sum(mat[k][j] * row[j] for j in range(2)) for k in range(2)
                    )
                    if not basis.contains(image):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                right_closed += 1
        assert right_closed == count_left_ideals(ZC2, n)


def test_census_caches_are_bounded_and_hit_by_a_repeated_compare(capsys):
    from orderzeta.cli import main

    for cached in (count_left_ideals, _generator_tables):
        assert cached.cache_parameters()["maxsize"] is not None
    # a perfbench session-mix pass makes 174 census calls and must keep
    # its 108 hits
    assert count_left_ideals.cache_parameters()["maxsize"] > 174
    argv = ["compare", "kn", "5", "--N", "8"]
    assert main(argv) == 0
    hits = count_left_ideals.cache_info().hits
    assert main(argv) == 0
    assert count_left_ideals.cache_info().hits - hits == 7  # indices 2..8
    capsys.readouterr()


# ------------------------------------------------------------------ series

def test_ideal_series_zc2():
    series = ideal_series(ZC2, 8)
    assert list(series.values) == [1, 1, 2, 3, 2, 2, 2, 5]


def test_ideal_series_modes_agree():
    for order, bound in ((ZC2, 12), (order_from_scheme(complete_graph_scheme(3)), 12)):
        direct = ideal_series(order, bound)
        multiplicative = ideal_series(order, bound, prime_powers_only=True)
        assert direct == multiplicative


def test_ideal_series_multiplicative():
    from math import gcd

    series = ideal_series(order_from_scheme(cyclic_group_scheme(3)), 15)
    for m in range(1, 16):
        for n in range(1, 16):
            if m * n <= 15 and gcd(m, n) == 1:
                assert series[m * n] == series[m] * series[n]


def test_ideal_series_bound_one():
    assert list(ideal_series(ZC2, 1).values) == [1]


def test_split_ring_ideals_are_ordered_factorizations():
    # in the componentwise ring Z^r every ideal splits, so the count at
    # index n is the number of ordered factorizations of n into r parts,
    # i.e. the n-th coefficient of the r-th power of the Riemann zeta
    from orderzeta.arith import primes_upto
    from orderzeta.series import ONE, LocalFactor, UPolynomial, euler_expand

    for r in (2, 3):
        table = tuple(
            tuple(
                tuple(1 if i == j == k else 0 for k in range(r)) for j in range(r)
            )
            for i in range(r)
        )
        split = IntegralOrder(rank=r, table=table, identity=(1,) * r)
        factors = {
            p: LocalFactor(p, ONE, UPolynomial((1, -1)) ** r) for p in primes_upto(12)
        }
        assert ideal_series(split, 12) == euler_expand(factors.get, 12)


# ------------------------------------------------------- differential oracle

def naive_left_ideal_count(order, index):
    # every basis of enumerate_sublattices, tested row by row with contains
    r = order.rank
    units = [tuple(int(i == k) for i in range(r)) for k in range(r)]
    return sum(
        all(
            basis.contains(order.multiply(e_k, row))
            for e_k in units
            for row in basis.rows
        )
        for basis in enumerate_sublattices(r, index)
    )


DIFFERENTIAL_ORDERS = {
    "cp 3": (lambda: cyclic_prime_catalog(3).order, 27),
    "cp 5": (lambda: cyclic_prime_catalog(5).order, 8),
    # 24 and 36 put a composite pivot last, so solution classes of size > 1
    "kn 4": (lambda: complete_graph_catalog(4).order, 36),
    "km-x-kn 2 3": (
        lambda: tensor_order(
            complete_graph_catalog(2).order, complete_graph_catalog(3).order
        ),
        9,
    ),
    "zc6": (
        lambda: tensor_order(
            cyclic_prime_catalog(3).order, complete_graph_catalog(2).order
        ),
        6,
    ),
    "rank2-over 2 cyclo3": (
        lambda: tensor_order(
            maximal_order_catalog(cyclotomic(3)).order,
            complete_graph_catalog(2).order,
        ),
        9,
    ),
    "upper triangular": (upper_triangular, 16),
}


@pytest.mark.parametrize("name", DIFFERENTIAL_ORDERS)
def test_count_left_ideals_matches_naive_census(name):
    make, bound = DIFFERENTIAL_ORDERS[name]
    order = make()
    for n in range(1, bound + 1):
        assert count_left_ideals(order, n) == naive_left_ideal_count(order, n), n


def test_upper_triangular_counts_pinned():
    # a transposed multiplication matrix or a dropped outer slot moves these
    counts = [count_left_ideals(upper_triangular(), n) for n in range(1, 17)]
    assert counts == [1, 2, 2, 5, 2, 4, 2, 8, 6, 4, 2, 10, 2, 4, 4, 15]


def km_x_kn_2_3():
    return tensor_order(complete_graph_catalog(2).order, complete_graph_catalog(3).order)


RELABELLED = {
    "cp 3": (lambda: cyclic_prime_catalog(3).order, 12),
    "kn 4": (lambda: complete_graph_catalog(4).order, 16),
    "km-x-kn 2 3": (km_x_kn_2_3, 8),
    "upper triangular": (upper_triangular, 12),
}


@given(st.sampled_from(sorted(RELABELLED)), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_count_left_ideals_ignores_basis_order(name, rng):
    # b'_i = b_sigma(i): the same ring, so the same ideals, reached through
    # other HNF parametrizations and possibly other generators
    make, bound = RELABELLED[name]
    order = make()
    sigma = list(range(order.rank))
    rng.shuffle(sigma)
    table = tuple(
        tuple(tuple(order.table[a][b][c] for c in sigma) for b in sigma) for a in sigma
    )
    relabelled = IntegralOrder(order.rank, table, tuple(order.identity[c] for c in sigma))
    for n in range(1, bound + 1):
        assert count_left_ideals(relabelled, n) == count_left_ideals(order, n), n


@pytest.mark.parametrize(
    "order, count",
    [
        (cyclic_prime_catalog(5).order, 1),
        (tensor_order(cyclic_prime_catalog(3).order, complete_graph_catalog(2).order), 1),
        (km_x_kn_2_3(), 2),
        (upper_triangular(), 2),
        (IntegralOrder(1, (((1,),),), (1,)), 0),
    ],
)
def test_generator_counts(order, count):
    # Z C_5 and Z C_6 are generated by one group element; K2 x K3 needs
    # both factors' generators, since (xy)^2 = y + 2 spans only index 2
    assert len(_generator_tables(order)) == count
