"""Exact zeta functions of integral adjacency rings.

The package computes Solomon zeta functions (Dirichlet series counting
finite-index left ideals) of orders built from association schemes, as
symbolic Euler products with closed-form local factors, and verifies
every expansion against a brute-force Hermite-normal-form census.
"""

from .census import HnfBasis, count_left_ideals, enumerate_sublattices, ideal_series
from .catalog import (
    CompositumError,
    GlobalZeta,
    NotLocallyCoprimeError,
    OrderCatalogEntry,
    UnsupportedCoefficientRingError,
    complete_graph_catalog,
    cyclic_prime_catalog,
    expand_global,
    global_zeta,
    maximal_order_catalog,
    rank2_over_field,
    tensor_global_zeta,
)
from .localfactors import (
    INFINITE,
    HeyComponent,
    PadicRing,
    cyclic_prime_local_factor,
    hey_local_factor,
    rank2_ideal_count,
    rank2_local_factor,
    rank2_scheme_local_factor,
)
from .numfields import (
    RATIONAL,
    FieldDescriptor,
    cyclotomic,
    dedekind_local_factor,
    splitting,
)
from .orders import (
    IntegralOrder,
    bad_primes,
    discriminant,
    order_from_scheme,
    ring_of_integers_order,
    tensor_order,
)
from .schemes import (
    AssociationScheme,
    SchemeError,
    complete_graph_scheme,
    cyclic_group_scheme,
    direct_product,
    load_scheme,
    save_scheme,
    validate,
)
from .series import (
    DirichletCoefficients,
    LocalFactor,
    UPolynomial,
    euler_expand,
    monomial,
    poly_gcd,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationScheme",
    "CompositumError",
    "DirichletCoefficients",
    "FieldDescriptor",
    "GlobalZeta",
    "HeyComponent",
    "HnfBasis",
    "INFINITE",
    "IntegralOrder",
    "LocalFactor",
    "NotLocallyCoprimeError",
    "OrderCatalogEntry",
    "PadicRing",
    "RATIONAL",
    "SchemeError",
    "UPolynomial",
    "UnsupportedCoefficientRingError",
    "bad_primes",
    "complete_graph_catalog",
    "complete_graph_scheme",
    "count_left_ideals",
    "cyclic_group_scheme",
    "cyclic_prime_catalog",
    "cyclic_prime_local_factor",
    "cyclotomic",
    "dedekind_local_factor",
    "direct_product",
    "discriminant",
    "enumerate_sublattices",
    "euler_expand",
    "expand_global",
    "global_zeta",
    "hey_local_factor",
    "ideal_series",
    "load_scheme",
    "maximal_order_catalog",
    "monomial",
    "order_from_scheme",
    "poly_gcd",
    "rank2_ideal_count",
    "rank2_local_factor",
    "rank2_over_field",
    "rank2_scheme_local_factor",
    "ring_of_integers_order",
    "save_scheme",
    "splitting",
    "tensor_global_zeta",
    "tensor_order",
    "validate",
]
