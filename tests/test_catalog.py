"""Global zeta assembly: catalog entries, tensor products, expansions."""

import pytest

from orderzeta.catalog import (
    CompositumError,
    GlobalZeta,
    NotLocallyCoprimeError,
    UnsupportedCoefficientRingError,
    complete_graph_catalog,
    cyclic_prime_catalog,
    expand_global,
    global_zeta,
    maximal_order_catalog,
    rank2_over_field,
    tensor_global_zeta,
)
from orderzeta.census import ideal_series
from orderzeta.localfactors import (
    PadicRing,
    cyclic_prime_local_factor,
    rank2_local_factor,
    rank2_scheme_local_factor,
)
from orderzeta.numfields import RATIONAL, cyclotomic, dedekind_local_factor, splitting
from orderzeta.arith import primes_upto
from orderzeta.orders import bad_primes, ring_of_integers_order, tensor_order
from orderzeta.series import LocalFactor


# ----------------------------------------------------------------- entries

def test_complete_graph_catalog_two():
    entry = complete_graph_catalog(2)
    assert entry.bad_primes == {2}
    assert entry.wedderburn == (RATIONAL, RATIONAL)
    assert entry.local_rule(PadicRing(2)) == cyclic_prime_local_factor(2)


def test_complete_graph_catalog_six():
    assert complete_graph_catalog(6).bad_primes == {2, 3}


def test_complete_graph_catalog_four_uses_valuation_two():
    entry = complete_graph_catalog(4)
    assert entry.local_rule(PadicRing(2)) == rank2_local_factor(PadicRing(2), 2)


def test_cyclic_prime_catalog_three():
    entry = cyclic_prime_catalog(3)
    assert entry.wedderburn == (RATIONAL, cyclotomic(3))
    assert entry.bad_primes == {3}
    assert entry.order.rank == 3


def test_cyclic_prime_catalog_two_normalizes():
    entry = cyclic_prime_catalog(2)
    assert entry.wedderburn == (RATIONAL, RATIONAL)
    assert entry.name == "K2"


def test_cyclic_prime_catalog_five_degrees():
    entry = cyclic_prime_catalog(5)
    assert sum(f.degree for f in entry.wedderburn) == 5 == entry.order.rank


def test_cyclic_rule_refuses_extensions():
    entry = cyclic_prime_catalog(3)
    with pytest.raises(UnsupportedCoefficientRingError):
        entry.local_rule(PadicRing(3, 1, 2))
    with pytest.raises(UnsupportedCoefficientRingError):
        entry.local_rule(PadicRing(3, 2, 1))
    assert entry.local_rule(PadicRing(3)) == cyclic_prime_local_factor(3)


def test_declared_bad_primes_and_ranks_match_the_orders():
    # the closed-form bad primes of K_n and Z C_p are the primes dividing
    # the discriminant, and the component degrees sum to the rank
    entries = [complete_graph_catalog(n) for n in range(2, 61)]
    entries += [cyclic_prime_catalog(p) for p in primes_upto(31)]
    for entry in entries:
        assert entry.bad_primes == bad_primes(entry.order), entry.name
        assert sum(f.degree for f in entry.wedderburn) == entry.order.rank, entry.name


@pytest.mark.parametrize("field", [RATIONAL, *map(cyclotomic, (3, 5, 7, 11))])
def test_maximal_order_is_bad_nowhere_though_its_discriminant_ramifies(field):
    # the discriminant of O_F is divisible exactly by the ramified primes,
    # where O_F is still maximal, so the declared set is empty
    entry = maximal_order_catalog(field)
    ramified = {
        p for p in primes_upto(13) if any(e > 1 for e, _f in splitting(field, p))
    }
    assert entry.bad_primes == frozenset()
    assert bad_primes(entry.order) == ramified
    assert field.degree == entry.order.rank


def test_entry_builds_its_order_once_and_only_when_read():
    built = []
    entry = complete_graph_catalog(4)
    entry = type(entry)(
        entry.name,
        entry.wedderburn,
        entry.bad_primes,
        entry.local_rule,
        lambda: built.append(1) or complete_graph_catalog(4).build_order(),
    )
    global_zeta(entry)
    assert built == []
    assert entry.order is entry.order and built == [1]


def test_rule_agrees_with_census_at_unit_ring():
    # localRule at (p, 1, 1) is the order's own local zeta at p
    from orderzeta.census import count_left_ideals

    for entry in (
        complete_graph_catalog(3),
        complete_graph_catalog(4),
        cyclic_prime_catalog(3),
    ):
        for p in sorted(entry.bad_primes):
            coeffs = entry.local_rule(PadicRing(p)).expand(3)
            counted = [count_left_ideals(entry.order, p**k) for k in range(4)]
            assert counted == coeffs


def test_every_catalog_entry_matches_census():
    # global expansion equals the ideal census of the underlying order
    cases = [
        (complete_graph_catalog(2), 12),
        (complete_graph_catalog(3), 12),
        (complete_graph_catalog(4), 12),
        (complete_graph_catalog(5), 10),
        (complete_graph_catalog(6), 12),
        (cyclic_prime_catalog(2), 12),
        (cyclic_prime_catalog(3), 12),
        (maximal_order_catalog(RATIONAL), 10),
        (maximal_order_catalog(cyclotomic(3)), 12),
        (maximal_order_catalog(cyclotomic(5)), 12),
    ]
    for entry, bound in cases:
        series = expand_global(global_zeta(entry), bound)
        census = ideal_series(entry.order, bound, prime_powers_only=True)
        assert series == census, entry.name
        assert all(v >= 0 for v in series.values)


# -------------------------------------------------------------- global zeta

def test_global_zeta_trivial_is_riemann():
    z = global_zeta(maximal_order_catalog(RATIONAL))
    assert z.components == ((RATIONAL, 1),)
    assert not z.exceptional
    assert expand_global(z, 9).values == (1,) * 9


def test_global_zeta_complete_graph():
    z = global_zeta(complete_graph_catalog(6))
    assert z.components == ((RATIONAL, 2),)
    assert set(z.exceptional) == {2, 3}
    assert z.exceptional[2] == rank2_scheme_local_factor(PadicRing(2), 6)
    assert z.exceptional[3] == rank2_scheme_local_factor(PadicRing(3), 6)


def test_expand_bound_one():
    z = global_zeta(cyclic_prime_catalog(3))
    assert list(expand_global(z, 1).values) == [1]


def test_expand_solomon_zc2():
    # census-confirmed ideal counts of Z C_2 (only <1 + x, 2x> at index 2)
    z = global_zeta(complete_graph_catalog(2))
    assert list(expand_global(z, 8).values) == [1, 1, 2, 3, 2, 2, 2, 5]


# ------------------------------------------------------------------- tensor

def test_tensor_not_locally_coprime():
    with pytest.raises(NotLocallyCoprimeError):
        tensor_global_zeta(complete_graph_catalog(2), complete_graph_catalog(2))
    with pytest.raises(NotLocallyCoprimeError):
        tensor_global_zeta(complete_graph_catalog(6), complete_graph_catalog(10))


def test_tensor_unrepresentable_compositum():
    with pytest.raises(CompositumError):
        tensor_global_zeta(cyclic_prime_catalog(3), cyclic_prime_catalog(5))


def test_tensor_zc6_structure():
    z = tensor_global_zeta(cyclic_prime_catalog(3), complete_graph_catalog(2))
    assert z.components == ((RATIONAL, 2), (cyclotomic(3), 2))
    assert z.degree == 6
    # p = 3: the degree-1 correction squared over the two rational
    # components of the other factor's maximal order
    assert z.exceptional[3] == cyclic_prime_local_factor(3) ** 2
    # p = 2: the rank-2 factor over Z_2 times the one over the unramified
    # quadratic extension, where 2 stays inert in Q(e_3)
    expected2 = rank2_scheme_local_factor(PadicRing(2), 2) * rank2_scheme_local_factor(
        PadicRing(2, 1, 2), 2
    )
    assert z.exceptional[2] == expected2


def test_tensor_complete_graphs_structure():
    z = tensor_global_zeta(complete_graph_catalog(2), complete_graph_catalog(3))
    assert z.components == ((RATIONAL, 4),)
    assert z.exceptional[2] == rank2_scheme_local_factor(PadicRing(2), 2) ** 2
    assert z.exceptional[3] == rank2_scheme_local_factor(PadicRing(3), 3) ** 2


def test_tensor_with_trivial_is_identity():
    for entry in (complete_graph_catalog(4), cyclic_prime_catalog(3)):
        plain = expand_global(global_zeta(entry), 16)
        tensored = expand_global(tensor_global_zeta(entry, maximal_order_catalog(RATIONAL)), 16)
        assert plain == tensored


def test_tensor_symmetric():
    a, b = cyclic_prime_catalog(3), complete_graph_catalog(4)
    left = expand_global(tensor_global_zeta(a, b), 24)
    right = expand_global(tensor_global_zeta(b, a), 24)
    assert left == right


def test_tensor_degree_bookkeeping():
    cases = [
        (cyclic_prime_catalog(3), complete_graph_catalog(2)),
        (cyclic_prime_catalog(5), complete_graph_catalog(2)),
        (complete_graph_catalog(3), complete_graph_catalog(4)),
    ]
    for a, b in cases:
        z = tensor_global_zeta(a, b)
        assert z.degree == a.order.rank * b.order.rank


def test_tensor_good_primes_are_dedekind():
    z = tensor_global_zeta(cyclic_prime_catalog(3), complete_graph_catalog(2))
    for p in (5, 7, 11):
        expected = (
            dedekind_local_factor(RATIONAL, p) ** 2
            * dedekind_local_factor(cyclotomic(3), p) ** 2
        )
        assert z.local_factor(p) == expected


def test_tensor_c3_k4_census_at_prime_powers():
    # exercises the rank-2 rule at valuation 2 over both Z_2 and the
    # unramified quadratic extension; ground truth is the rank-6 census
    from orderzeta.census import count_left_ideals

    a, b = cyclic_prime_catalog(3), complete_graph_catalog(4)
    z = tensor_global_zeta(a, b)
    assert z.exceptional[2] == rank2_local_factor(
        PadicRing(2), 2
    ) * rank2_local_factor(PadicRing(2, 1, 2), 2)
    series = expand_global(z, 9)
    order = tensor_order(a.order, b.order)
    for n in (2, 4, 3, 9):
        assert count_left_ideals(order, n) == series[n], n


def test_tensor_c5_k2_splits_the_cyclotomic_component():
    # at the bad prime 2 of K_2 the rule runs over Z_2 and over the inert
    # quartic completion of Q(e_5), where 2 has order 4 mod 5
    z = tensor_global_zeta(cyclic_prime_catalog(5), complete_graph_catalog(2))
    expected = rank2_scheme_local_factor(PadicRing(2), 2) * rank2_scheme_local_factor(
        PadicRing(2, 1, 4), 2
    )
    assert z.exceptional[2] == expected
    assert z.exceptional[5] == cyclic_prime_local_factor(5) ** 2
    assert z.degree == 10
    # rank-10 census at the two cheapest indices
    from orderzeta.census import count_left_ideals

    series = expand_global(z, 3)
    order = tensor_order(
        cyclic_prime_catalog(5).order, complete_graph_catalog(2).order
    )
    assert count_left_ideals(order, 2) == series[2] == 1
    assert count_left_ideals(order, 3) == series[3] == 2


def test_tensor_zc6_expansion_frozen():
    # values fixed by the rank-6 ideal census (see the acceptance suite)
    z = tensor_global_zeta(cyclic_prime_catalog(3), complete_graph_catalog(2))
    assert list(expand_global(z, 12).values) == [1, 1, 2, 4, 2, 2, 6, 6, 9, 2, 2, 8]


def test_tensor_k2_k3_expansion_frozen():
    # values fixed by the rank-4 ideal census (see the acceptance suite)
    z = tensor_global_zeta(complete_graph_catalog(2), complete_graph_catalog(3))
    assert list(expand_global(z, 16).values) == [
        1, 2, 2, 7, 4, 4, 4, 16, 9, 8, 4, 14, 4, 8, 8, 33,
    ]


# --------------------------------------------------------- rank 2 over a field

def test_rank2_over_rationals_matches_catalog():
    over_q = expand_global(rank2_over_field(6, RATIONAL), 18)
    catalog = expand_global(global_zeta(complete_graph_catalog(6)), 18)
    assert over_q == catalog


def test_rank2_over_eisenstein_ramified():
    # order 3 over Z[e_3]: the bad prime 3 ramifies, so the local rule runs
    # at e = 2; census of the rank-4 tensor order is the ground truth
    z = rank2_over_field(3, cyclotomic(3))
    series = expand_global(z, 9)
    order = tensor_order(
        ring_of_integers_order(cyclotomic(3)),
        complete_graph_catalog(3).order,
    )
    assert series == ideal_series(order, 9)
    assert list(series.values) == [1, 0, 1, 2, 0, 0, 4, 0, 4]


def test_rank2_over_eisenstein_inert():
    # order 2 over Z[e_3]: the bad prime 2 is inert with f = 2
    z = rank2_over_field(2, cyclotomic(3))
    series = expand_global(z, 8)
    order = tensor_order(
        ring_of_integers_order(cyclotomic(3)),
        complete_graph_catalog(2).order,
    )
    assert series == ideal_series(order, 8)
    assert list(series.values) == [1, 0, 2, 1, 0, 0, 4, 0]


def test_rank2_over_eisenstein_mixed_primes():
    # order 6 over Z[e_3]: ramified bad prime 3 (e = 2) and inert bad
    # prime 2 (f = 2) in the same construction
    z = rank2_over_field(6, cyclotomic(3))
    series = expand_global(z, 12)
    order = tensor_order(
        ring_of_integers_order(cyclotomic(3)),
        complete_graph_catalog(6).order,
    )
    assert series == ideal_series(order, 12)
    assert list(series.values) == [1, 0, 1, 1, 0, 0, 4, 0, 4, 0, 0, 1]


# --------------------------------------------------------------- GlobalZeta

def test_manual_global_zeta_requires_prime_factors():
    f = LocalFactor.one(2)
    z = GlobalZeta(((RATIONAL, 1),), {2: f})
    assert z.local_factor(2) == f
    assert z.local_factor(3) == dedekind_local_factor(RATIONAL, 3)
