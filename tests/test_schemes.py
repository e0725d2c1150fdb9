"""Association scheme validation, constructors, and direct products."""

import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orderzeta.schemes as schemes_mod
from orderzeta.schemes import (
    AssociationScheme,
    SchemeError,
    complete_graph_scheme,
    cyclic_group_scheme,
    direct_product,
    load_scheme,
    save_scheme,
    scheme_from_dict,
    validate,
)


def ident(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def complement(m):
    return tuple(tuple(1 - x for x in row) for row in m)


# ------------------------------------------------------------------ validate

def test_validate_complete_graph_three():
    scheme = validate([ident(3), complement(ident(3))])
    assert scheme.rank == 2 and scheme.size == 3
    assert scheme.structure_constants[1][1] == (2, 1)


def test_validate_trivial():
    scheme = validate([ident(1)])
    assert scheme.rank == 1 and scheme.valencies == (1,)


def test_validate_c2():
    swap = ((0, 1), (1, 0))
    scheme = validate([ident(2), swap])
    assert scheme.structure_constants[1][1] == (1, 0)  # sigma_1^2 = sigma_0


def test_validate_reorders_identity_first():
    swap = ((0, 1), (1, 0))
    scheme = validate([swap, ident(2)])
    assert scheme.relations[0] == ident(2)


def test_validate_missing_identity():
    ones = ((1, 1), (1, 1))
    with pytest.raises(SchemeError) as err:
        validate([ones])
    assert err.value.condition == 1


def test_validate_not_partition():
    with pytest.raises(SchemeError) as err:
        validate([ident(2), ((1, 1), (1, 1))])
    assert err.value.condition == 2
    with pytest.raises(SchemeError) as err:
        validate([ident(2)])  # off-diagonal pairs uncovered
    assert err.value.condition == 2


def test_validate_transpose_missing():
    # on 4 points: identity, R + R^2, R^3 for the 4-cycle R; the middle
    # relation's transpose is R^2 + R^3, which is not in the family
    n = 4
    r = tuple(tuple(1 if (x + 1) % n == y else 0 for y in range(n)) for x in range(n))
    r2 = tuple(tuple(1 if (x + 2) % n == y else 0 for y in range(n)) for x in range(n))
    r3 = tuple(tuple(1 if (x + 3) % n == y else 0 for y in range(n)) for x in range(n))
    merged = tuple(tuple(a or b for a, b in zip(ra, rb)) for ra, rb in zip(r, r2))
    with pytest.raises(SchemeError) as err:
        validate([ident(4), merged, r3])
    assert err.value.condition == 3


def test_validate_nonconstant_product():
    # 3 points: the pairing {0,1} leaves the product sigma_1^2 nonconstant
    # on the diagonal
    a = ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    b = ((0, 0, 1), (0, 0, 1), (1, 1, 0))
    with pytest.raises(SchemeError) as err:
        validate([ident(3), a, b])
    assert err.value.condition == 4


def test_validate_malformed_input():
    with pytest.raises(ValueError):
        validate([])
    with pytest.raises(ValueError):
        validate([((0, 2), (1, 0))])
    with pytest.raises(ValueError):
        validate([((1, 0),)])


# ------------------------------------------- condition 4 against products

def product_constants(relations):
    """Condition 4 by relation-matrix products, for relations that meet
    conditions 1-3 with the identity first: the structure constants, or
    the SchemeError that validate raises for the first failing product."""
    n, r = len(relations[0]), len(relations)
    owner = [[next(u for u, m in enumerate(relations) if m[x][y]) for y in range(n)]
             for x in range(n)]
    first = [next((x, y) for x in range(n) for y in range(n) if m[x][y])
             for m in relations]
    constants = []
    for s in range(r):
        row = []
        for t in range(r):
            prod = [[sum(relations[s][x][z] * relations[t][z][y] for z in range(n))
                     for y in range(n)] for x in range(n)]
            coeffs = tuple(prod[x][y] for x, y in first)
            for x in range(n):
                for y in range(n):
                    u = owner[x][y]
                    if prod[x][y] != coeffs[u]:
                        raise SchemeError(
                            4,
                            f"sigma_{s} * sigma_{t} is not constant on relation {u} "
                            f"(seen {prod[x][y]} and {coeffs[u]})",
                        )
            row.append(coeffs)
        constants.append(tuple(row))
    return tuple(constants)


@st.composite
def colourings(draw):
    """The relations of a random colouring of X x X on 1-6 points: the
    diagonal is one colour and up to three others cover the rest, each
    transposed to itself or to a partner colour; shuffled, so the
    identity need not come first.  Conditions 1-3 hold, 4 often fails."""
    n = draw(st.integers(1, 6))
    others = draw(st.integers(1, 3))
    partner = list(range(others + 1))
    if not draw(st.booleans()):  # not symmetric: pair up some colours
        order = draw(st.permutations(range(1, others + 1)))
        for a, b in zip(order[::2], order[1::2]):
            partner[a], partner[b] = b, a
    colour = {}
    for x in range(n):
        colour[x, x] = 0
        for y in range(x + 1, n):
            c = draw(st.integers(1, others))
            colour[x, y], colour[y, x] = c, partner[c]
    relations = [
        tuple(tuple(int(colour[x, y] == c) for y in range(n)) for x in range(n))
        for c in sorted(set(colour.values()))
    ]
    return draw(st.permutations(relations))


@settings(max_examples=300, deadline=None)
@given(colourings())
def test_condition_four_counts_match_products(relations):
    n = len(relations[0])
    canonical = sorted(relations, key=lambda m: m != ident(n))  # identity first
    try:
        expected = product_constants(canonical)
    except SchemeError as exc:
        with pytest.raises(SchemeError) as err:
            validate(relations)
        assert err.value.condition == 4 and str(err.value) == str(exc)
    else:
        assert validate(relations) == AssociationScheme(n, tuple(canonical), expected)


@given(st.permutations(range(6)))
def test_noncommutative_constants_match_products(order):
    # the thin scheme of S_3: relation g pairs x with x g, so sigma_g
    # sigma_h = sigma_gh, which differs from sigma_hg
    group = list(itertools.permutations(range(3)))
    relations = [
        tuple(tuple(int(tuple(x[i] for i in g) == y) for y in group) for x in group)
        for g in group
    ]
    shuffled = [relations[i] for i in order]
    canonical = sorted(shuffled, key=lambda m: m != ident(6))
    expected = AssociationScheme(6, tuple(canonical), product_constants(canonical))
    assert validate(shuffled) == expected


@pytest.mark.parametrize("n", range(1, 41))
def test_validate_reproduces_cyclic_and_complete_schemes(n):
    assert validate(cyclic_group_scheme(n).relations) == cyclic_group_scheme(n)
    if n >= 2:
        assert validate(complete_graph_scheme(n).relations) == complete_graph_scheme(n)


# ------------------------------------------------------------------ budget

def test_validate_refuses_more_steps_than_the_budget(monkeypatch):
    monkeypatch.setattr(schemes_mod, "SCHEME_BUDGET", 27)
    assert validate(complete_graph_scheme(3).relations).size == 3
    with pytest.raises(OverflowError, match="4 points takes 64 steps"):
        validate(complete_graph_scheme(4).relations)
    with pytest.raises(ValueError):  # shape checks come first
        validate([ident(4), ((1, 0),)])


def test_direct_product_refuses_more_entries_than_the_budget(monkeypatch):
    a, b = complete_graph_scheme(3), cyclic_group_scheme(2)
    entries = a.rank * b.rank * (a.size * b.size) ** 2  # 4 relations of 6 x 6
    monkeypatch.setattr(schemes_mod, "SCHEME_BUDGET", entries)
    assert direct_product(a, b).size == 6
    monkeypatch.setattr(schemes_mod, "SCHEME_BUDGET", entries - 1)
    with pytest.raises(OverflowError, match=f"{entries} matrix entries"):
        direct_product(a, b)


# -------------------------------------------------------------- constructors

@pytest.mark.parametrize("n,expected", [(2, (1, 0)), (3, (2, 1)), (5, (4, 3))])
def test_complete_graph_constants(n, expected):
    scheme = complete_graph_scheme(n)
    assert scheme.structure_constants[1][1] == expected


def test_complete_graph_rejects_small():
    with pytest.raises(ValueError):
        complete_graph_scheme(1)


def test_complete_graph_two_is_c2():
    assert complete_graph_scheme(2).relations == cyclic_group_scheme(2).relations


def test_cyclic_three_table():
    scheme = cyclic_group_scheme(3)
    assert scheme.structure_constants[1][2] == (1, 0, 0)  # sigma_1 sigma_2 = sigma_0
    assert scheme.valencies == (1, 1, 1)


def test_cyclic_six_isomorphic_to_product():
    # the CRT relabeling k -> (k mod 2, k mod 3) identifies C_6 with C_2 x C_3
    c6 = cyclic_group_scheme(6)
    prod = direct_product(cyclic_group_scheme(2), cyclic_group_scheme(3))
    relabel = [(k % 2) * 3 + (k % 3) for k in range(6)]
    for s in range(6):
        for t in range(6):
            for u in range(6):
                assert (
                    c6.structure_constants[s][t][u]
                    == prod.structure_constants[relabel[s]][relabel[t]][relabel[u]]
                )


# -------------------------------------------------------------- direct product

def test_product_counts():
    prod = direct_product(complete_graph_scheme(2), complete_graph_scheme(3))
    assert prod.rank == 4 and prod.size == 6


def test_product_with_trivial_is_identity():
    s = complete_graph_scheme(3)
    prod = direct_product(s, cyclic_group_scheme(1))
    assert prod.relations == s.relations
    assert prod.structure_constants == s.structure_constants


def test_product_klein_four_table():
    prod = direct_product(cyclic_group_scheme(2), cyclic_group_scheme(2))
    # indices (s, t) -> 2 s + t; the group is (Z/2)^2 under xor
    for a in range(4):
        for b in range(4):
            expected = tuple(1 if u == a ^ b else 0 for u in range(4))
            assert prod.structure_constants[a][b] == expected


def test_product_constants_factor():
    a, b = complete_graph_scheme(3), cyclic_group_scheme(2)
    prod = direct_product(a, b)
    rb = b.rank
    for s1 in range(a.rank):
        for t1 in range(rb):
            for s2 in range(a.rank):
                for t2 in range(rb):
                    for u1 in range(a.rank):
                        for u2 in range(rb):
                            assert prod.structure_constants[s1 * rb + t1][
                                s2 * rb + t2
                            ][u1 * rb + u2] == (
                                a.structure_constants[s1][s2][u1]
                                * b.structure_constants[t1][t2][u2]
                            )


def test_roundtrip_validation():
    # validate on the constructed relations reproduces identical data
    for scheme in (
        complete_graph_scheme(4),
        cyclic_group_scheme(5),
        direct_product(complete_graph_scheme(2), complete_graph_scheme(3)),
        direct_product(cyclic_group_scheme(2), cyclic_group_scheme(3)),
    ):
        revalidated = validate(scheme.relations)
        assert revalidated == scheme


@given(st.permutations(list(range(6))), st.sampled_from(["k6", "c6", "k2xc3"]))
def test_validation_invariant_under_point_relabeling(perm, which):
    # conjugating every relation by a point permutation keeps the scheme
    # valid with the same valencies and structure constants
    scheme = {
        "k6": complete_graph_scheme(6),
        "c6": cyclic_group_scheme(6),
        "k2xc3": direct_product(complete_graph_scheme(2), cyclic_group_scheme(3)),
    }[which]
    relabeled = [
        tuple(tuple(m[perm[x]][perm[y]] for y in range(6)) for x in range(6))
        for m in scheme.relations
    ]
    conjugated = validate(relabeled)
    assert conjugated.size == scheme.size
    assert sorted(conjugated.valencies) == sorted(scheme.valencies)
    # relations keep their identity-first order under relabeling, so the
    # constants agree entry for entry
    assert conjugated.structure_constants == scheme.structure_constants


def test_row_sums_constant():
    for scheme in (
        complete_graph_scheme(5),
        cyclic_group_scheme(6),
        direct_product(complete_graph_scheme(2), complete_graph_scheme(5)),
    ):
        for m in scheme.relations:
            sums = {sum(row) for row in m}
            assert len(sums) == 1


# ------------------------------------------------------------------- file IO

def test_scheme_file_roundtrip(tmp_path):
    path = tmp_path / "k3.json"
    save_scheme(complete_graph_scheme(3), path)
    loaded = load_scheme(path)
    assert loaded == complete_graph_scheme(3)
    doc = json.loads(path.read_text())
    assert doc["size"] == 3 and len(doc["relations"]) == 2


def test_scheme_from_dict_size_mismatch():
    doc = complete_graph_scheme(3).to_dict()
    doc["size"] = 4
    with pytest.raises(ValueError):
        scheme_from_dict(doc)


@pytest.mark.parametrize("size", [True, 2.0, "2", None])
def test_scheme_from_dict_size_must_be_an_integer(size):
    doc = complete_graph_scheme(2).to_dict()
    doc["size"] = size
    with pytest.raises(ValueError, match=f"declared size {re.escape(repr(size))} is not an integer"):
        scheme_from_dict(doc)
