"""The names the benchmark uses from the package must keep resolving.

perfbench/tracer.py rebinds the callables listed in its TARGETS table and
reads the census cache counters; perfbench/make_reference.py and
perfbench/selftest.py import names from the package; perfbench/workloads.py
sends argv lists through the CLI.  A renamed or deleted name or flag, or a
census cache without its counters, makes the benchmark fail.
"""

import ast
import importlib
from pathlib import Path

import pytest

import orderzeta
from orderzeta import census, cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    targets = importlib.import_module("tracer").TARGETS
    assert targets
    for module_name, attribute in targets:
        obj = importlib.import_module(module_name)
        for part in attribute.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module_name, attribute)


def test_census_cache_exposes_counters():
    assert callable(census.count_left_ideals.cache_clear)
    assert callable(census.count_left_ideals.cache_info)


def test_package_exports_resolve():
    for name in orderzeta.__all__:
        assert hasattr(orderzeta, name), name


def _imported_from_package(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "orderzeta"
        for alias in node.names
    ]


@pytest.mark.parametrize("script", ["make_reference.py", "selftest.py"])
def test_perfbench_imports_resolve(script):
    names = _imported_from_package(PERFBENCH / script)
    assert names
    for name in names:
        # `from orderzeta import cli` also finds submodules
        if not hasattr(orderzeta, name):
            importlib.import_module(f"orderzeta.{name}")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["expand-large", "census-deep", "session-mix"])
def test_workload_argv_parses(monkeypatch, tmp_path, workload, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    requests = workloads.build(workload, seed, str(tmp_path))
    assert requests
    parser = cli.build_parser()
    out = str(tmp_path / "out")
    for request in requests:
        parser.parse_args([arg.replace("{out}", out) for arg in request["argv"]])


def test_every_hey_request_of_the_pool_runs(monkeypatch, capsys):
    # the size refusals of `hey` must leave every request the benchmark
    # can draw answerable
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for params in workloads.HEY_POOL:
        argv = ["hey", *map(str, params), "--terms", str(workloads.HEY_TERMS)]
        assert cli.main(argv) == 0, params
    capsys.readouterr()
