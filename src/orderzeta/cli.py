"""Command-line front end.

Subcommands: `expand` prints the coefficient table of a named
construction, `compare` checks it against the brute-force ideal census,
`validate` / `product` work on scheme files, and `hey` prints one Hey
factor with its expansion.  Exit codes: 0 success or full match, 1 a
mismatch or failed validation, 2 usage or precondition errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import stat
import sys
from contextlib import nullcontext
from math import log10
from typing import Callable, NamedTuple

from .catalog import (
    CompositumError,
    NotLocallyCoprimeError,
    OrderCatalogEntry,
    UnsupportedCoefficientRingError,
    complete_graph_catalog,
    cyclic_prime_catalog,
    expand_global,
    maximal_order_catalog,
    tensor_global_zeta,
)
from .census import check_budget, ideal_series
from .localfactors import HeyComponent, PadicRing, hey_local_factor
from .numfields import RATIONAL, FieldDescriptor, cyclotomic
from .orders import tensor_order
from .schemes import SchemeError, direct_product, load_scheme, save_scheme
from .series import euler_values


class Construction(NamedTuple):
    label: str
    entries: tuple[OrderCatalogEntry, OrderCatalogEntry]
    notes: tuple[str, ...]


# largest --N that `expand` and `compare` accept, the largest integer
# parameter of a construction, and the most steps one `hey` request may take
MAX_N = 10**7

# largest prime of Z C_p or Q(e_p): their components have degree p - 1,
# and local factors of that degree take time polynomial in p to build
MAX_PRIME = 1000

# most digits Python prints for an integer (its default int-to-str limit)
MAX_DIGITS = 4300


def _parse_int(text: str) -> int:
    """An integer in ASCII digits, optionally after a minus sign.

    Bare int() would also take other scripts' digits, underscores, a plus
    sign and surrounding whitespace.
    """
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer in ASCII digits")
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"an integer of {len(digits)} digits is too large")
    return int(text)


def _parse_field(construction: str, text: str) -> FieldDescriptor:
    if text.upper() == "Q":
        return RATIONAL
    prefix, digits = text[:5], text[5:]
    if prefix.lower() == "cyclo" and digits.isascii() and digits.isdigit():
        if len(digits) > MAX_DIGITS or int(digits) > MAX_PRIME:
            raise ValueError(
                f"{construction} parameter field: the prime of {text!r} "
                f"must be at most {MAX_PRIME}"
            )
        return cyclotomic(int(digits))
    raise ValueError(f"unknown field {text!r}; use Q or cyclo<prime>")


def _over_z(entry: OrderCatalogEntry) -> tuple[OrderCatalogEntry, ...]:
    return entry, maximal_order_catalog(RATIONAL)


def _rank2_over(params: list) -> tuple[OrderCatalogEntry, ...]:
    # the field comes first so the census sees O_F tensor K_n
    n, coeff = params
    if n < 2:
        raise ValueError("scheme order must be >= 2")
    return maximal_order_catalog(coeff), complete_graph_catalog(n)


class Recipe(NamedTuple):
    """One named construction: the names of its parameters (`field` is a
    number field, `p` a prime at most MAX_PRIME, the others integers at
    most MAX_N), the two catalog entries whose tensor product it is, built
    from the parsed parameters, notes for stderr and, where parameters are
    normalised in the label, the label."""

    params: tuple[str, ...]
    entries: Callable[[list], tuple[OrderCatalogEntry, ...]]
    notes: tuple[str, ...] = ()
    label: Callable[[list], str] | None = None


CONSTRUCTIONS: dict[str, Recipe] = {
    "cp": Recipe(("p",), lambda p: _over_z(cyclic_prime_catalog(p[0]))),
    "kn": Recipe(("n",), lambda p: _over_z(complete_graph_catalog(p[0]))),
    "cp-x-kn": Recipe(
        ("p", "n"),
        lambda p: (cyclic_prime_catalog(p[0]), complete_graph_catalog(p[1])),
    ),
    "km-x-kn": Recipe(
        ("m", "n"),
        lambda p: (complete_graph_catalog(p[0]), complete_graph_catalog(p[1])),
    ),
    "zc6": Recipe(
        (),
        lambda p: (cyclic_prime_catalog(3), complete_graph_catalog(2)),
        notes=(
            "note: at p=2 the local factor carries the residue-degree-2 "
            "correction (1 - u^2 + 4u^4)/(1 - u^2)^2 next to the degree-1 one, "
            "while p=3 carries the degree-1 correction squared; the ideal "
            "census decides in favour of this attachment.",
        ),
    ),
    "rank2-over": Recipe(
        ("n", "field"),
        _rank2_over,
        label=lambda p: f"rank2-over {p[0]} {p[1]}",
    ),
}


def _parse_param(construction: str, name: str, text: str):
    if name == "field":
        return _parse_field(construction, text)
    limit = MAX_PRIME if name == "p" else MAX_N
    try:
        value = _parse_int(text)
        if value > limit:
            raise ValueError(f"must be at most {limit}")
    except ValueError as exc:
        raise ValueError(f"{construction} parameter {name}: {exc}") from None
    return value


def _build_construction(name: str, params: list[str]) -> Construction:
    recipe = CONSTRUCTIONS.get(name)
    if recipe is None:
        raise ValueError(
            f"unknown construction {name!r}; known: {', '.join(CONSTRUCTIONS)}"
        )
    if len(params) != len(recipe.params):
        raise ValueError(
            f"construction {name!r} takes {len(recipe.params)} parameter(s)"
        )
    values = [_parse_param(name, *pair) for pair in zip(recipe.params, params)]
    label = recipe.label(values) if recipe.label else " ".join([name, *params])
    return Construction(label, recipe.entries(values), recipe.notes)


def _positive_int(text: str) -> int:
    try:
        value = _parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _capped_int(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_N:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_N}")
    return value


# rows formatted per write, which bounds the output text held at once
CHUNK_ROWS = 4096


def _write_table(args, head: dict, key: str, header: str, rows, tail: dict) -> None:
    """Write a table to `args.out`, or to stdout, while its rows are made.

    `rows` is a nonempty iterable of tuples with one entry per column of
    the CSV `header`: integers or preformatted tokens such as `true`.  The
    JSON text is exactly `json.dumps(doc, indent=1)` plus a newline, with
    doc = {**head, key: [list(row) for row in rows], **tail}; only the
    scalar head and tail fields go through `json.dumps`.  The rows may
    still be computing: every refusal is made before the call, and if
    making or writing a row raises, an `--out` file that is a regular file
    is removed before the error goes on, so neither leaves a partial table.
    """

    def field(k, v) -> str:
        return f" {json.dumps(k)}: {json.dumps(v)}"

    cells = ["{}"] * len(header.split(","))
    if args.format == "json":
        opening = "{\n" + "".join(f"{field(k, v)},\n" for k, v in head.items())
        opening += f" {json.dumps(key)}: [\n"
        closing = "\n ]" + "".join(f",\n{field(k, v)}" for k, v in tail.items())
        closing += "\n}\n"
        row_text = "  [\n   " + ",\n   ".join(cells) + "\n  ]"
        separator = ",\n"
    else:
        opening, closing = header + "\n", ""
        row_text, separator = ",".join(cells) + "\n", ""
    rows = iter(rows)
    if args.out:
        sink = open(args.out, "w", encoding="utf-8")
        regular = stat.S_ISREG(os.fstat(sink.fileno()).st_mode)
    else:
        sink, regular = nullcontext(sys.stdout), False
    try:
        with sink as fh:
            fh.write(opening)
            lead = ""
            # every row formats to a nonempty text, so only the end gives ""
            while text := separator.join(
                itertools.starmap(row_text.format, itertools.islice(rows, CHUNK_ROWS))
            ):
                fh.write(lead + text)
                lead = separator
            fh.write(closing)
    except BaseException:
        if regular:
            os.remove(args.out)
        raise


def _cmd_expand(args) -> int:
    con = _build_construction(args.construction, args.params)
    zeta = tensor_global_zeta(*con.entries)
    for note in con.notes:
        print(note, file=sys.stderr)
    _write_table(
        args,
        {"command": "expand", "construction": con.label, "bound": args.N},
        "coefficients",
        "n,a_n",
        zip(range(1, args.N + 1), euler_values(zeta.local_factor, args.N)),
        {},
    )
    return 0


def _cmd_compare(args) -> int:
    con = _build_construction(args.construction, args.params)
    zeta = tensor_global_zeta(*con.entries)
    # refuse an over-budget census before the order is built
    check_budget(zeta.degree, args.N, args.prime_powers_only)
    order = tensor_order(*(entry.order for entry in con.entries))
    oracle = ideal_series(
        order, args.N, prime_powers_only=args.prime_powers_only
    ).values
    formula = expand_global(zeta, args.N).values
    first_mismatch = next(
        (n for n, a, o in zip(range(1, args.N + 1), formula, oracle) if a != o), None
    )
    for note in con.notes:
        print(note, file=sys.stderr)
    _write_table(
        args,
        {"command": "compare", "construction": con.label, "bound": args.N},
        "rows",
        "n,a_n,oracle_a_n,match",
        (
            (n, a, o, "true" if a == o else "false")
            for n, a, o in zip(range(1, args.N + 1), formula, oracle)
        ),
        {"all_match": first_mismatch is None, "first_mismatch": first_mismatch},
    )
    if first_mismatch is not None:
        print(f"mismatch: first divergence at n = {first_mismatch}", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    try:
        scheme = load_scheme(args.scheme)
    except SchemeError as exc:
        print(f"invalid scheme: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read scheme file: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"malformed scheme file: {exc}", file=sys.stderr)
        return 2
    print(f"valid association scheme: rank {scheme.rank} on {scheme.size} points")
    print(f"valencies: {list(scheme.valencies)}")
    print("structure constants (nonidentity products):")
    for s in range(1, scheme.rank):
        for t in range(1, scheme.rank):
            terms = [
                f"{c}*s{u}"
                for u, c in enumerate(scheme.structure_constants[s][t])
                if c
            ]
            print(f"  s{s}*s{t} = {' + '.join(terms) if terms else '0'}")
    return 0


def _cmd_product(args) -> int:
    try:
        a = load_scheme(args.scheme_a)
        b = load_scheme(args.scheme_b)
    except (OSError, ValueError) as exc:
        print(f"cannot load input schemes: {exc}", file=sys.stderr)
        return 2
    product = direct_product(a, b)
    save_scheme(product, args.out)
    print(
        f"wrote {args.out}: rank {product.rank} scheme on {product.size} points"
    )
    return 0


def _check_hey_size(r: int, m: int, k: int, p: int, f: int, terms: int) -> None:
    """Refuse a Hey factor too large to build, expand or print.

    The denominator prod_{j<k} (1 - q^{jm} u^s), with q = p^f and
    s = f r m, has degree d = s k.  Building it takes about d k / 2 steps
    and expanding it d steps per term.  Its coefficients are at most
    2^k q^{m k(k-1)/2}, and the coefficient of u^{st} in the expansion is
    at most C(t+k-1, k-1) q^{m(k-1)t}; q itself is computed too.
    """
    degree = f * r * m * k
    if degree * max(k, terms) > MAX_N:
        raise ValueError(
            f"a Hey denominator of degree {degree} takes more than {MAX_N:,} "
            f"steps to build and expand to u^{terms}"
        )
    t = terms // (f * r * m)
    exponent = max(1, m * k * (k - 1) // 2, m * (k - 1) * t)
    digits = f * log10(p) * exponent + k * log10(2) + (k - 1) * log10(t + 1)
    if digits > MAX_DIGITS:
        raise ValueError(
            f"the Hey factor or its expansion to u^{terms} has coefficients "
            f"of more than {MAX_DIGITS} digits"
        )


def _cmd_hey(args) -> int:
    _check_hey_size(args.r, args.m, args.k, args.p, args.f, args.terms)
    component = HeyComponent(
        matrix_size=args.r,
        division_index=args.m,
        multiplicity=args.k,
        center=PadicRing(args.p, args.e, args.f),
    )
    factor = hey_local_factor(component)
    print(f"local factor at p={args.p}: {factor}")
    print(f"coefficients (u^0..u^{args.terms}): {factor.expand(args.terms)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderzeta",
        description="Exact zeta functions of integral adjacency rings, with a "
        "brute-force ideal census for verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write to a file instead of stdout")

    construction_help = f"one of: {', '.join(CONSTRUCTIONS)}"

    p_expand = sub.add_parser("expand", help="coefficient table of a construction")
    p_expand.add_argument("construction", help=construction_help)
    p_expand.add_argument("params", nargs="*")
    p_expand.add_argument("--N", type=_capped_int, default=20)
    add_io(p_expand)
    p_expand.set_defaults(func=_cmd_expand)

    p_compare = sub.add_parser("compare", help="formula vs brute-force census")
    p_compare.add_argument("construction", help=construction_help)
    p_compare.add_argument("params", nargs="*")
    p_compare.add_argument("--N", type=_capped_int, default=12)
    p_compare.add_argument(
        "--prime-powers-only", action="store_true",
        help="census only prime-power indices, fill composites multiplicatively",
    )
    add_io(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    p_validate = sub.add_parser("validate", help="check a scheme file")
    p_validate.add_argument("scheme")
    p_validate.set_defaults(func=_cmd_validate)

    p_product = sub.add_parser("product", help="direct product of two scheme files")
    p_product.add_argument("scheme_a")
    p_product.add_argument("scheme_b")
    p_product.add_argument("--out", required=True)
    p_product.set_defaults(func=_cmd_product)

    p_hey = sub.add_parser(
        "hey", help="Hey factor of a simple p-adic component and its expansion"
    )
    p_hey.add_argument("r", type=_positive_int, help="matrix size")
    p_hey.add_argument("m", type=_positive_int, help="division algebra index")
    p_hey.add_argument("k", type=_positive_int, help="module multiplicity")
    p_hey.add_argument("p", type=_capped_int, help="rational prime of the center")
    p_hey.add_argument("e", type=_positive_int, help="ramification index of the center")
    p_hey.add_argument("f", type=_positive_int, help="residue degree of the center")
    p_hey.add_argument("--terms", type=_capped_int, default=8)
    p_hey.set_defaults(func=_cmd_hey)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NotLocallyCoprimeError, OverflowError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (CompositumError, UnsupportedCoefficientRingError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except SchemeError as exc:
        print(f"invalid scheme: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
