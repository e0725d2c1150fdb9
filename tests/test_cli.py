"""Command-line surface: tables, comparisons, scheme files, exit codes."""

import csv
import io
import json
import time
import tracemalloc

import pytest

from orderzeta.cli import CONSTRUCTIONS, MAX_N, MAX_PRIME, build_parser, main
from orderzeta.schemes import (
    complete_graph_scheme,
    cyclic_group_scheme,
    save_scheme,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


# ------------------------------------------------------------------- expand

def test_expand_cp2(capsys):
    code, out, _ = run(capsys, "expand", "cp", "2", "--N", "8")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["n", "a_n"]
    assert [int(r[1]) for r in rows[1:]] == [1, 1, 2, 3, 2, 2, 2, 5]


def test_expand_kn_single_row(capsys):
    code, out, _ = run(capsys, "expand", "kn", "3", "--N", "1")
    assert code == 0
    assert parse_csv(out) == [["n", "a_n"], ["1", "1"]]


def test_expand_formats_agree(capsys):
    code, out_csv, _ = run(capsys, "expand", "km-x-kn", "2", "3", "--N", "16")
    assert code == 0
    code, out_json, _ = run(
        capsys, "expand", "km-x-kn", "2", "3", "--N", "16", "--format", "json"
    )
    assert code == 0
    csv_values = [int(r[1]) for r in parse_csv(out_csv)[1:]]
    json_values = [a for _n, a in json.loads(out_json)["coefficients"]]
    assert csv_values == json_values


def test_expand_to_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, "expand", "cp", "3", "--N", "6", "--out", str(target))
    assert code == 0 and out == ""
    rows = parse_csv(target.read_text())
    assert rows[0] == ["n", "a_n"] and len(rows) == 7


def test_expand_unknown_construction(capsys):
    code, _, err = run(capsys, "expand", "nope")
    assert code == 2 and "unknown construction" in err


def test_expand_bad_parameter_count(capsys):
    code, _, err = run(capsys, "expand", "cp")
    assert code == 2


def test_expand_refuses_shared_bad_primes(capsys):
    code, _, err = run(capsys, "expand", "km-x-kn", "2", "4", "--N", "4")
    assert code == 2
    assert "locally coprime" in err


def test_expand_refuses_cp_x_kn_overlap(capsys):
    code, _, err = run(capsys, "expand", "cp-x-kn", "3", "6", "--N", "4")
    assert code == 2
    assert "locally coprime" in err


def test_expand_rank2_over(capsys):
    code, out, _ = run(
        capsys, "expand", "rank2-over", "2", "cyclo3", "--N", "8"
    )
    assert code == 0
    assert [int(r[1]) for r in parse_csv(out)[1:]] == [1, 0, 2, 1, 0, 0, 4, 0]


def test_construction_table_drives_help_and_errors(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # keep the help line unwrapped
    code, help_text, _ = run(capsys, "expand", "--help")
    assert code == 0
    code, _, err = run(capsys, "expand", "nope")
    assert code == 2 and "unknown construction 'nope'" in err
    for name in CONSTRUCTIONS:
        assert name in help_text
        assert name in err
    code, out, _ = run(
        capsys, "expand", "rank2-over", "5", "cyclo5", "--N", "30", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["construction"] == "rank2-over 5 Q(e_5)"


def test_expand_invalid_n(capsys):
    code, _, _ = run(capsys, "expand", "cp", "2", "--N", "0")
    assert code == 2


@pytest.mark.parametrize("field", ["cyclo 5", "cyclo0_5", "cyclo\u0665", "cyclo", "cycloabc"])
def test_rank2_over_field_must_be_cyclo_and_ascii_digits(capsys, field):
    code, out, err = run(capsys, "expand", "rank2-over", "2", field, "--N", "4")
    assert code == 2 and out == ""
    assert f"unknown field {field!r}; use Q or cyclo<prime>" in err


@pytest.mark.parametrize("command", ["expand", "compare"])
def test_n_above_cap_is_refused(capsys, command):
    code, out, err = run(capsys, command, "kn", "3", "--N", str(MAX_N + 1))
    assert code == 2 and out == ""
    assert f"must be at most {MAX_N}" in err


@pytest.mark.parametrize(
    "argv, names",
    [
        (["expand", "cp", "\u0663"], "cp parameter p"),
        (["expand", "cp", "0_3"], "cp parameter p"),
        (["expand", "cp", " 3"], "cp parameter p"),
        (["expand", "cp", "+3"], "cp parameter p"),
        (["expand", "cp", "abc"], "cp parameter p"),
        (["compare", "km-x-kn", "2", "\u0663"], "km-x-kn parameter n"),
        (["expand", "rank2-over", "1_0", "Q"], "rank2-over parameter n"),
        (["expand", "cp", "3", "--N", "\u0663"], "argument --N"),
        (["expand", "cp", "3", "--N", "1_0"], "argument --N"),
        (["hey", "1", "1", "1", "\u0662", "1", "1"], "argument p"),
        (["hey", "1", "1", "1", "2", "1", "1", "--terms", "1_2"], "argument --terms"),
    ],
)
def test_integers_must_be_ascii_digits(capsys, argv, names):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert names in err and "is not an integer in ASCII digits" in err
    assert "invalid literal" not in err


@pytest.mark.parametrize(
    "argv, names",
    [
        (["expand", "cp", "1" * 5000], "cp parameter p"),
        (["expand", "cp", "3", "--N", "1" * 5000], "argument --N"),
    ],
)
def test_integers_of_more_digits_than_python_prints_are_refused(capsys, argv, names):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{names}: an integer of 5000 digits is too large" in err


@pytest.mark.parametrize("command", ["expand", "compare"])
def test_n_at_cap_parses(command):
    # parsed only: a run at this bound would take minutes
    args = build_parser().parse_args([command, "kn", "3", "--N", str(MAX_N)])
    assert args.N == MAX_N == 10**7


# ------------------------------------------------------------------ compare

def test_compare_cp3(capsys):
    code, out, _ = run(capsys, "compare", "cp", "3", "--N", "20")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["n", "a_n", "oracle_a_n", "match"]
    assert all(r[3] == "true" for r in rows[1:])
    assert all(r[1] == r[2] for r in rows[1:])


def test_compare_kn4_exercises_valuation_two(capsys):
    code, out, _ = run(capsys, "compare", "kn", "4", "--N", "16")
    assert code == 0
    assert all(r[3] == "true" for r in parse_csv(out)[1:])


def test_compare_cp_x_kn(capsys):
    code, out, _ = run(
        capsys, "compare", "cp-x-kn", "3", "2", "--N", "12", "--prime-powers-only"
    )
    assert code == 0
    assert all(r[3] == "true" for r in parse_csv(out)[1:])


def test_validate_size_mismatch(capsys, tmp_path):
    doc = complete_graph_scheme(3).to_dict()
    doc["size"] = 7
    path = tmp_path / "lying.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "declared size" in err


def test_compare_zc6_notes_attachment(capsys):
    code, out, err = run(
        capsys, "compare", "zc6", "--N", "12", "--prime-powers-only"
    )
    assert code == 0
    assert "note:" in err and "residue-degree-2" in err
    assert all(r[3] == "true" for r in parse_csv(out)[1:])


def test_compare_json_reports_match(capsys):
    code, out, _ = run(
        capsys, "compare", "kn", "3", "--N", "9", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_match"] is True and doc["first_mismatch"] is None


def doctor_complete_graph_rule(monkeypatch):
    # doctor the local rule of K_n so the formula of kn 2 is wrong at n = 2
    import dataclasses

    import orderzeta.cli as cli_mod
    from orderzeta.catalog import complete_graph_catalog
    from orderzeta.series import LocalFactor

    def doctored(n):
        entry = complete_graph_catalog(n)
        return dataclasses.replace(
            entry, local_rule=lambda ring: LocalFactor.one(ring.prime)
        )

    monkeypatch.setattr(cli_mod, "complete_graph_catalog", doctored)


def test_compare_mismatch_exits_one(capsys, monkeypatch):
    doctor_complete_graph_rule(monkeypatch)
    code, out, err = run(capsys, "compare", "kn", "2", "--N", "6")
    assert code == 1
    assert "first divergence at n = 2" in err
    rows = parse_csv(out)
    assert rows[2][3] == "false"


def test_compare_formats_agree(capsys):
    code, out_csv, _ = run(capsys, "compare", "kn", "3", "--N", "9")
    assert code == 0
    code, out_json, _ = run(
        capsys, "compare", "kn", "3", "--N", "9", "--format", "json"
    )
    assert code == 0
    csv_rows = [(int(r[0]), int(r[1]), int(r[2])) for r in parse_csv(out_csv)[1:]]
    json_rows = [(n, a, o) for n, a, o, _m in json.loads(out_json)["rows"]]
    assert csv_rows == json_rows


@pytest.mark.parametrize(
    "argv",
    [["cp-x-kn", "5", "3"], ["rank2-over", "4", "cyclo7"]],
)
def test_compare_over_census_budget_is_refused(capsys, argv):
    # 1.1e9 and 8.2e10 sublattices, far past the budget
    code, out, err = run(capsys, "compare", *argv, "--N", "10", "--prime-powers-only")
    assert code == 2 and "sublattices" in err
    assert out == ""


def test_compare_refuses_before_expanding_the_formula(capsys, monkeypatch):
    import orderzeta.cli as cli_mod

    def no_expand(zeta, bound):
        raise AssertionError("formula expanded before the census budget check")

    monkeypatch.setattr(cli_mod, "expand_global", no_expand)
    code, out, err = run(capsys, "compare", "kn", "3", "--N", "100000")
    assert code == 2 and "sublattices" in err
    assert out == ""


def count_order_builds(monkeypatch) -> list:
    from orderzeta.orders import IntegralOrder

    built = []
    check = IntegralOrder.__post_init__

    def counting(self):
        built.append(self.rank)
        check(self)

    monkeypatch.setattr(IntegralOrder, "__post_init__", counting)
    return built


SAMPLE_PARAMS = {
    "cp": ["5"],
    "kn": ["6"],
    "cp-x-kn": ["5", "3"],
    "km-x-kn": ["2", "3"],
    "zc6": [],
    "rank2-over": ["4", "cyclo7"],
}


@pytest.mark.parametrize("name", SAMPLE_PARAMS)
def test_expand_builds_no_order(capsys, monkeypatch, name):
    assert set(SAMPLE_PARAMS) == set(CONSTRUCTIONS)
    built = count_order_builds(monkeypatch)
    code, _, _ = run(capsys, "expand", name, *SAMPLE_PARAMS[name], "--N", "30")
    assert code == 0 and built == []


def test_compare_checks_the_budget_before_building_an_order(capsys, monkeypatch):
    built = count_order_builds(monkeypatch)
    code, out, err = run(capsys, "compare", "cp", "101", "--N", "2")
    assert code == 2 and out == "" and "sublattices of Z^101" in err
    assert built == []


def test_compare_builds_the_tensor_order_it_censuses(capsys, monkeypatch):
    built = count_order_builds(monkeypatch)
    code, _, _ = run(capsys, "compare", "cp", "3", "--N", "4")
    assert code == 0 and built[-1] == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cp", "1009"], f"cp parameter p: must be at most {MAX_PRIME}"),
        (["cp", "1000000000000000000000007"], "cp parameter p: must be at most"),
        (["cp-x-kn", "9999991", "2"], "cp-x-kn parameter p: must be at most"),
        (
            ["rank2-over", "2", "cyclo1000000000000000000000007"],
            "rank2-over parameter field: the prime of "
            f"'cyclo1000000000000000000000007' must be at most {MAX_PRIME}",
        ),
        (["rank2-over", "2", "cyclo" + "1" * 5000], "rank2-over parameter field"),
        (["rank2-over", str(MAX_N + 1), "Q"], f"rank2-over parameter n: must be at most {MAX_N}"),
        (["kn", "99999999999999999999999"], "kn parameter n: must be at most"),
        (["km-x-kn", "2", str(MAX_N + 1)], "km-x-kn parameter n: must be at most"),
    ],
)
@pytest.mark.parametrize("command", ["expand", "compare"])
def test_oversized_parameters_are_refused_before_building(
    capsys, monkeypatch, command, argv, message
):
    import orderzeta.cli as cli_mod

    def no_build(*args):
        raise AssertionError("built a catalog entry for a refused parameter")

    monkeypatch.setattr(cli_mod, "cyclic_prime_catalog", no_build)
    monkeypatch.setattr(cli_mod, "complete_graph_catalog", no_build)
    monkeypatch.setattr(cli_mod, "maximal_order_catalog", no_build)
    start = time.perf_counter()
    code, out, err = run(capsys, command, *argv, "--N", "2")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == "" and message in err


def test_largest_parameters_are_accepted(capsys):
    code, out, _ = run(capsys, "expand", "cp", "997", "--N", "4")
    assert code == 0 and parse_csv(out)[-1] == ["4", "1"]
    code, out, _ = run(capsys, "expand", "rank2-over", "2", "cyclo997", "--N", "2")
    assert code == 0 and parse_csv(out)[-1] == ["2", "0"]
    code, out, _ = run(capsys, "expand", "kn", str(MAX_N), "--N", "2")
    assert code == 0 and parse_csv(out)[-1] == ["2", "1"]


def test_compare_kn_census_does_not_grow_with_n(capsys):
    # K_n's order comes from its 2 x 2 structure constants, never from
    # its n x n relation matrices
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, _ = run(capsys, "compare", "kn", "9999991", "--N", "4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert peak < 10**7
    assert code == 0
    assert [r[3] for r in parse_csv(out)[1:]] == ["true"] * 4


# ----------------------------------------------------------- streamed tables

def expected_table(command, name, params, bound, fmt, prime_powers_only=False):
    """The table as the whole document was formatted before tables were
    streamed: `json.dumps(doc, indent=1)`, or the CSV text, of values
    computed here through the same construction."""
    import orderzeta.cli as cli_mod
    from orderzeta.catalog import expand_global, tensor_global_zeta
    from orderzeta.census import ideal_series
    from orderzeta.orders import tensor_order

    con = cli_mod._build_construction(name, params)
    formula = expand_global(tensor_global_zeta(*con.entries), bound).values
    doc = {"command": command, "construction": con.label, "bound": bound}
    if command == "expand":
        header = "n,a_n"
        rows = [[n, a] for n, a in zip(range(1, bound + 1), formula)]
        doc["coefficients"] = rows
    else:
        header = "n,a_n,oracle_a_n,match"
        order = tensor_order(*(entry.order for entry in con.entries))
        oracle = ideal_series(order, bound, prime_powers_only).values
        rows = [
            [n, a, o, a == o] for n, a, o in zip(range(1, bound + 1), formula, oracle)
        ]
        mismatches = [row[0] for row in rows if not row[3]]
        doc["rows"] = rows
        doc["all_match"] = not mismatches
        doc["first_mismatch"] = mismatches[0] if mismatches else None
    if fmt == "json":
        return json.dumps(doc, indent=1) + "\n"
    lines = [header, *(",".join(str(x).lower() for x in row) for row in rows)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command, name, params, bound, flags, doctored, code",
    [
        ("expand", "kn", ["3"], 1, [], False, 0),
        ("expand", "km-x-kn", ["2", "3"], 8, [], False, 0),
        ("expand", "zc6", [], 11, [], False, 0),
        ("compare", "kn", ["3"], 1, [], False, 0),
        ("compare", "cp", ["3"], 81, ["--prime-powers-only"], False, 0),
        ("compare", "kn", ["2"], 6, [], True, 1),
    ],
    ids=["expand-N1", "expand-2-chunks", "expand-3-chunks", "compare-N1",
         "compare-ppo", "mismatch"],
)
def test_streamed_table_is_byte_identical_to_whole_document(
    capsys, monkeypatch, tmp_path, command, name, params, bound, flags, doctored,
    code, fmt, to_file,
):
    import orderzeta.cli as cli_mod

    # four rows a write, so short tables span several writes
    monkeypatch.setattr(cli_mod, "CHUNK_ROWS", 4)
    if doctored:
        doctor_complete_graph_rule(monkeypatch)
    target = tmp_path / "table"
    argv = [command, name, *params, "--N", str(bound), *flags, "--format", fmt]
    got_code, out, _ = run(capsys, *argv, *(["--out", str(target)] if to_file else []))
    assert got_code == code
    if to_file:
        assert out == ""
        with open(target, encoding="utf-8", newline="") as fh:
            out = fh.read()
    assert out == expected_table(
        command, name, params, bound, fmt, "--prime-powers-only" in flags
    )


def test_expand_table_spans_several_writes(capsys):
    from orderzeta.cli import CHUNK_ROWS

    bound = 2 * CHUNK_ROWS + 3
    code, out, _ = run(capsys, "expand", "kn", "3", "--N", str(bound))
    assert code == 0
    assert out == expected_table("expand", "kn", ["3"], bound, "csv")


def test_expand_json_memory_does_not_grow_with_the_table(tmp_path):
    # the whole JSON document of this table took about 3.5 MB to format
    target = tmp_path / "kn6.json"
    argv = ["expand", "kn", "6", "--N", "10000", "--format", "json"]
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 10**6
    assert len(json.loads(target.read_text())["coefficients"]) == 10000


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "cp", "4", "--N", "20"],
        ["compare", "kn", "3", "--N", "100000"],
        ["compare", "nope", "--N", "5"],
    ],
    ids=["not-prime", "over-budget", "unknown"],
)
def test_refusal_leaves_no_output_file(capsys, tmp_path, argv):
    target = tmp_path / "refused"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == "" and err.startswith("error:")
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failure_mid_table_leaves_no_output_file(capsys, monkeypatch, tmp_path, fmt):
    # 97 > sqrt(1000): rows 1..96 are written when its factor is read
    import orderzeta.catalog as catalog_mod
    import orderzeta.cli as cli_mod
    import orderzeta.series as series_mod

    dedekind = catalog_mod.dedekind_local_factor
    written = []

    def failing(field, p):
        if p == 97:
            written.append(target.exists())
            raise ValueError("no factor at 97")
        return dedekind(field, p)

    monkeypatch.setattr(catalog_mod, "dedekind_local_factor", failing)
    monkeypatch.setattr(series_mod, "FILL_BLOCK", 16)
    monkeypatch.setattr(cli_mod, "CHUNK_ROWS", 8)
    target = tmp_path / "kn10"
    argv = ["expand", "kn", "10", "--N", "1000", "--format", fmt, "--out", str(target)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == "error: no factor at 97\n"
    assert written == [True]
    assert not target.exists()


# ------------------------------------------------------------------ validate

def test_validate_k3(capsys, tmp_path):
    path = tmp_path / "k3.json"
    save_scheme(complete_graph_scheme(3), path)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "rank 2 on 3 points" in out
    assert "valencies: [1, 2]" in out


def test_validate_missing_identity(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"size": 2, "relations": [[[1, 1], [1, 1]]]}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "condition 1" in err


def test_validate_unreadable(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2


# ------------------------------------------------------------------- product

def test_product_roundtrip(capsys, tmp_path):
    a, b = tmp_path / "c2.json", tmp_path / "c3.json"
    save_scheme(cyclic_group_scheme(2), a)
    save_scheme(cyclic_group_scheme(3), b)
    out_path = tmp_path / "c6.json"
    code, out, _ = run(capsys, "product", str(a), str(b), "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(out_path))
    assert code == 0
    assert "rank 6 on 6 points" in out


def test_product_with_trivial(capsys, tmp_path):
    a, triv = tmp_path / "k3.json", tmp_path / "c1.json"
    save_scheme(complete_graph_scheme(3), a)
    save_scheme(cyclic_group_scheme(1), triv)
    out_path = tmp_path / "same.json"
    code, _, _ = run(capsys, "product", str(a), str(triv), "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(a.read_text())


def test_product_order_multiplies(capsys, tmp_path):
    a, b = tmp_path / "k2.json", tmp_path / "k5.json"
    save_scheme(complete_graph_scheme(2), a)
    save_scheme(complete_graph_scheme(5), b)
    out_path = tmp_path / "k2k5.json"
    code, _, _ = run(capsys, "product", str(a), str(b), "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["size"] == 10


def test_product_invalid_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"size": 2, "relations": [[[1, 1], [1, 1]]]}))
    good = tmp_path / "k2.json"
    save_scheme(complete_graph_scheme(2), good)
    code, _, err = run(capsys, "product", str(bad), str(good), "--out", str(tmp_path / "x.json"))
    assert code == 2


MALFORMED_SCHEMES = [
    {"size": 1, "relations": 5},
    {"size": 1, "relations": [[1]]},
    {"size": 1, "relations": [[[None]]]},
    {"size": 0, "relations": [[]]},
    {"size": 2, "matrices": [[[1, 0], [0, 1]]]},
    [1],
    {"relations": [[[True, False], [False, True]], [[False, True], [True, False]]]},
    {"size": True, "relations": [[[1]]]},
    {"size": 2.0, "relations": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
    {"size": "2", "relations": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
]


@pytest.mark.parametrize("doc", MALFORMED_SCHEMES)
def test_malformed_scheme_file_is_refused(capsys, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and "malformed scheme file" in err
    good = tmp_path / "k2.json"
    save_scheme(complete_graph_scheme(2), good)
    out_path = str(tmp_path / "x.json")
    for a, b in ((bad, good), (good, bad)):
        code, _, err = run(capsys, "product", str(a), str(b), "--out", out_path)
        assert code == 2 and "cannot load input schemes" in err


def test_scheme_commands_refuse_over_the_budget(capsys, monkeypatch, tmp_path):
    import orderzeta.schemes as schemes_mod

    monkeypatch.setattr(schemes_mod, "SCHEME_BUDGET", 27)
    k3, k4 = tmp_path / "k3.json", tmp_path / "k4.json"
    save_scheme(complete_graph_scheme(3), k3)
    save_scheme(complete_graph_scheme(4), k4)
    code, out, err = run(capsys, "validate", str(k4))
    assert code == 2 and out == ""
    assert err == "refused: a scheme on 4 points takes 64 steps to validate, more than 27\n"
    out_path = tmp_path / "k3k3.json"
    for a in (k4, k3):  # an input over the budget, then a product over it
        code, out, err = run(capsys, "product", str(a), str(k3), "--out", str(out_path))
        assert code == 2 and out == "" and err.startswith("refused: ")
        assert not out_path.exists()
    assert "324 matrix entries is more than 27" in err  # 4 relations of 9 x 9


def test_product_accepts_file_without_size(capsys, tmp_path):
    a, b = tmp_path / "k2.json", tmp_path / "k3.json"
    a.write_text(json.dumps({"relations": complete_graph_scheme(2).to_dict()["relations"]}))
    save_scheme(complete_graph_scheme(3), b)
    out_path = tmp_path / "k2k3.json"
    code, out, _ = run(capsys, "product", str(a), str(b), "--out", str(out_path))
    assert code == 0 and "rank 4 scheme on 6 points" in out
    assert json.loads(out_path.read_text())["size"] == 6


# ---------------------------------------------------------------------- hey

def test_hey_field_case(capsys):
    code, out, _ = run(capsys, "hey", "1", "1", "1", "5", "1", "1", "--terms", "4")
    assert code == 0
    assert "(1) / (1 - u)" in out
    assert "[1, 1, 1, 1, 1]" in out


def test_hey_rank_two_lattice(capsys):
    code, out, _ = run(capsys, "hey", "1", "1", "2", "2", "1", "1", "--terms", "3")
    assert code == 0
    assert "[1, 3, 7, 15]" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["1", "1", "250", "2", "1", "1"], "more than 4300 digits"),
        (["1", "1", "1000", "2", "1", "1"], "more than 4300 digits"),
        (["1", "1", "2", "2", "1", "1", "--terms", "20000"], "more than 4300 digits"),
        (["1", "1", "1", "2", "1", "20000"], "more than 4300 digits"),
        (["10000", "1", "1", "2", "1", "1", "--terms", "10000"], "steps"),
        (["1", "1", "1", "2", "1", "1", "--terms", str(MAX_N + 1)], f"at most {MAX_N}"),
        (["1", "1", "1", "10000019", "1", "1"], f"at most {MAX_N}"),
    ],
)
def test_hey_refuses_oversized_before_computing(capsys, monkeypatch, argv, message):
    def never(component):
        raise AssertionError("the factor was built")

    monkeypatch.setattr("orderzeta.cli.hey_local_factor", never)
    code, out, err = run(capsys, "hey", *argv)
    assert code == 2 and out == ""
    assert message in err


def test_hey_largest_accepted_factor_prints(capsys):
    # 2^(159*160/2) is the top denominator coefficient: 3830 digits
    code, out, _ = run(capsys, "hey", "1", "1", "160", "2", "1", "1")
    assert code == 0 and str(2 ** (159 * 160 // 2)) in out


def test_usage_error_exits_two(capsys):
    assert main(["expand"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0
